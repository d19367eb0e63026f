"""Retrieval operations: the prototype's by-name level plus selections.

"The SEED prototype provides the procedures for data creation, update,
and simple retrieval by name. Retrieval with complex queries is not
supported." — the by-name procedures live directly on
:class:`~repro.core.database.SeedDatabase`; this module layers the
slightly richer retrieval style tools actually need (name prefixes,
class extents with predicates, role navigation chains) without yet
being the full algebra (see :mod:`repro.core.query.algebra`).

Name prefixes are served from the sorted name index and class extents
from the extent index; complex queries start from
:meth:`Retrieval.plan`, the planner's indexed access paths.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.database import SeedDatabase
from repro.core.objects import SeedObject
from repro.core.query.parallel import ParallelConfig
from repro.core.query.planner import PlanBuilder
from repro.core.query.predicates import Predicate

__all__ = ["Retrieval"]


class Retrieval:
    """Read-only retrieval helper bound to one database."""

    def __init__(self, db: SeedDatabase) -> None:
        self._db = db

    # -- planned queries ---------------------------------------------------

    def plan(self, parallel: "ParallelConfig | None" = None) -> PlanBuilder:
        """Start a planned ER-algebra query over this database.

        ``retrieval.plan().extent("Data").select(...)`` builds a logical
        plan the cost-based optimizer evaluates through the index layer;
        see :mod:`repro.core.query.planner`. With *parallel* (a
        :class:`~repro.core.query.parallel.ParallelConfig`) the built
        plans run large shardable scans on the warm forked pool where
        it pays and the host can run it, and in-thread everywhere else.
        """
        return PlanBuilder(self._db, parallel)

    # -- by name -----------------------------------------------------------

    def by_name(self, name: str) -> Optional[SeedObject]:
        """Exact dotted-name lookup (the prototype's operation)."""
        return self._db.find_object(name)

    def by_name_prefix(self, prefix: str) -> list[SeedObject]:
        """All independent objects whose name starts with *prefix*.

        The sorted name index is bisected, so the cost is
        O(log n + |matches|); results come in name order.
        """
        return self._db.objects_by_name_prefix(prefix)

    # -- class extents ----------------------------------------------------------

    def iter_instances(
        self, class_name: str, where: Optional[Predicate] = None
    ) -> Iterator[SeedObject]:
        """Lazily yield instances of a class, optionally predicate-filtered.

        Backed by the extent index: consumers that stop early (or only
        count) never materialise the full extent list.
        """
        extent = self._db.iter_objects(class_name)
        if where is None:
            yield from extent
            return
        for obj in extent:
            if where(obj):
                yield obj

    def instances(
        self, class_name: str, where: Optional[Predicate] = None
    ) -> list[SeedObject]:
        """Instances of a class, optionally filtered by a predicate."""
        return list(self.iter_instances(class_name, where))

    # -- navigation ------------------------------------------------------------------

    def navigate(
        self, start: SeedObject, *steps: tuple[str, str]
    ) -> list[SeedObject]:
        """Follow a chain of ``(association, result_role)`` steps.

        ``retrieval.navigate(handler, ("Read", "from"), ("Write", "by"))``
        finds the actions writing the data the handler reads. Duplicates
        along the way are removed; traversal uses effective (pattern-
        expanded) relationships.
        """
        frontier = [start]
        for association, role in steps:
            next_frontier: list[SeedObject] = []
            seen: set[int] = set()
            for obj in frontier:
                for result in self._db.navigate(obj, association, role):
                    if result.oid not in seen:
                        seen.add(result.oid)
                        next_frontier.append(result)
            frontier = next_frontier
        return frontier

    def closure(
        self, start: SeedObject, association: str, role: str
    ) -> list[SeedObject]:
        """Transitive closure over one association direction.

        ``retrieval.closure(action, "Contained", "container")`` yields
        all (transitive) containers of an action — well defined because
        ``Contained`` is ACYCLIC.
        """
        result: list[SeedObject] = []
        seen: set[int] = {start.oid}
        frontier = [start]
        while frontier:
            next_frontier: list[SeedObject] = []
            for obj in frontier:
                for found in self._db.navigate(obj, association, role):
                    if found.oid not in seen:
                        seen.add(found.oid)
                        result.append(found)
                        next_frontier.append(found)
            frontier = next_frontier
        return result
