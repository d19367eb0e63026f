"""Completeness analysis: checked **on demand**, never blocking updates.

Minimum cardinalities and covering conditions for generalizations are
*completeness* information (paper, section "Incomplete data"): they
describe the desired **final** state of the data, so they must not
prevent the entry of incomplete information. "Formal detection of
incompleteness is provided by operations which check the rules that are
derivable from the completeness conditions in the schema" — that is this
module.

The analysis produces a :class:`CompletenessReport` of :class:`Gap`
records; it raises nothing. Use
:meth:`repro.core.database.SeedDatabase.require_complete` to turn a
non-empty report into a :class:`~repro.core.errors.CompletenessError`.

Gap kinds:

``sub-object-minimum``
    a parent has fewer sub-objects of a dependent class than its
    minimum cardinality requires;
``undefined-value``
    a value-typed object exists but its value is still undefined;
``relationship-minimum``
    an object participates in fewer relationships of an association
    than the role minimum requires (instances of specializations count:
    figure 3's ``Access by 1..*`` is satisfied by a ``Read`` *or* a
    ``Write``);
``covering``
    an item is still classified in a covering general element and must
    eventually be specialized;
``attribute-minimum``
    a mandatory association attribute has no value yet.

Incremental maintenance
-----------------------

The seed answered :meth:`CompletenessEngine.check_database` by scanning
every live item — O(database × schema) per check. The engine now keeps a
per-item gap map (item key → its current gaps) and a dirty set,
maintained through every :class:`~repro.core.database.SeedDatabase`
mutation path: when a transaction commits, the database hands the
engine its touched-item set (:meth:`CompletenessEngine.note_commit`)
and the engine marks every item whose gaps could have changed —
the touched item and its sub-tree, the owning parent (sub-object
minima), relationship endpoints (participation minima), and, for
pattern-context items, every inheritor of the pattern root (effective
views). Rolled-back transactions mark nothing, mirroring the
transaction-safety of the PR-1 index layer. ``check_database`` then
re-derives gaps for dirty items only and assembles the report from the
map — O(dirty × schema + gaps) instead of O(database × schema).

The inheritor fan-out is *narrowed* for pattern-heavy databases
(PR 4): an inheritor's gaps depend only on the pattern's **structure**
— which sub-objects and relationships exist and how they are bound —
never on values or relationship attributes inside the pattern
(value/attribute gaps are per-item and pattern-context items report
none; sub-object minima and participation minima count items, not
values). A commit therefore dirties inheritor sub-trees only when the
touched pattern-context item changed structurally: a create, delete,
or re-classification, or one of the flag/link operations the database
explicitly marks (pattern mark/unmark, inherit/uninherit). Value
updates inside a pattern leave the inheritors' cached gaps untouched.
The equivalence property tests in
``tests/test_completeness_incremental.py`` pin this against the scan.

Bulk batches (:meth:`repro.core.database.SeedDatabase.bulk`) defer
``note_commit`` to one set-union merge over the whole batch's touched
map at finalize; a ``check_database`` issued *inside* an open batch
falls back to the full scan (the gap map is not yet merged).

Bulk state replacement (version selection, schema migration, image
load, checkout) calls :meth:`CompletenessEngine.invalidate`; the next
check primes the map with one full scan.

The seed's full scanner is retained verbatim as
:meth:`CompletenessEngine.check_database_scan` — the reference the
equivalence property tests in
``tests/test_completeness_incremental.py`` compare against forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

from repro.core.patterns import pattern_root
from repro.core.schema.association import Association
from repro.core.versions.store import ItemKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.objects import SeedObject
    from repro.core.relationships import SeedRelationship

__all__ = ["Gap", "CompletenessReport", "CompletenessEngine"]

#: operation tags that change structure visible to pattern inheritors
STRUCTURAL_OPERATIONS = frozenset({"create", "delete", "reclassify"})


@dataclass(frozen=True)
class Gap:
    """One piece of missing information.

    Attributes:
        kind: gap category (see module docstring).
        item: textual reference to the incomplete item.
        element: name of the schema element whose condition is unmet.
        message: human explanation of what is still missing.
    """

    kind: str
    item: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.item}: {self.message}"


@dataclass
class CompletenessReport:
    """The result of a completeness analysis."""

    gaps: list[Gap] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        """True when no information is missing."""
        return not self.gaps

    def by_kind(self, kind: str) -> list[Gap]:
        """All gaps of one category."""
        return [gap for gap in self.gaps if gap.kind == kind]

    def for_item(self, item_ref: str) -> list[Gap]:
        """All gaps concerning the item referenced by *item_ref*."""
        return [gap for gap in self.gaps if gap.item == item_ref]

    def kinds(self) -> dict[str, int]:
        """Histogram of gap kinds (for reports and benchmarks)."""
        histogram: dict[str, int] = {}
        for gap in self.gaps:
            histogram[gap.kind] = histogram.get(gap.kind, 0) + 1
        return histogram

    def summary(self) -> str:
        """One line: either 'complete' or the gap-kind histogram."""
        if self.is_complete:
            return "complete"
        parts = ", ".join(f"{kind}: {count}" for kind, count in sorted(self.kinds().items()))
        return f"{len(self.gaps)} gaps ({parts})"

    def render(self) -> str:
        """Multi-line human-readable report."""
        if self.is_complete:
            return "complete — no missing information"
        lines = [self.summary()]
        lines.extend(f"  {gap}" for gap in self.gaps)
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Gap]:
        return iter(self.gaps)

    def __len__(self) -> int:
        return len(self.gaps)


class CompletenessEngine:
    """Derives completeness rules from the schema and checks them."""

    def __init__(self, database: "SeedDatabase") -> None:
        self._db = database
        #: item key -> its current gaps; only incomplete items appear
        self._gaps_by_item: dict[ItemKey, tuple[Gap, ...]] = {}
        #: keys whose gaps must be re-derived before the next report
        self._dirty: set[ItemKey] = set()
        #: the map's gaps in report order; None whenever the map changed
        #: since they were assembled
        self._assembled: Optional[list[Gap]] = None
        #: False until the map was primed by one full scan
        self._primed = False

    # -- entry points ------------------------------------------------------

    def check_database(self) -> CompletenessReport:
        """Analyse every live, normal (non-pattern) item.

        Incremental: only items marked dirty since the previous check
        are re-analysed; the report is assembled from the maintained
        per-item gap map (deterministic key order — objects before
        relationships, ids ascending). The first call primes the map
        with a full scan. The assembled gap list is kept beside the map
        until the map next changes, so a clean call only copies it (a
        fresh list each time: callers may mutate their report). Inside
        an open bulk batch the maintained map has not yet absorbed the
        batch's touched set, so the retained full scan answers instead
        (read-your-writes).
        """
        if self._db._bulk is not None:  # noqa: SLF001
            return self.check_database_scan()
        if not self._primed:
            self._prime()
        else:
            for key in self._dirty:
                self._recompute(key)
            self._dirty.clear()
        if self._assembled is None:
            gaps: list[Gap] = []
            for key in sorted(self._gaps_by_item):
                gaps.extend(self._gaps_by_item[key])
            self._assembled = gaps
        return CompletenessReport(list(self._assembled))

    def check_database_scan(self) -> CompletenessReport:
        """The seed's full scan — kept as the equivalence reference."""
        report = CompletenessReport()
        for obj in self._db.objects(include_patterns=False):
            report.gaps.extend(self.object_gaps(obj))
        for rel in self._db.relationships(include_patterns=False):
            report.gaps.extend(self.relationship_gaps(rel))
        return report

    def check_items(self, items: Iterable[object]) -> CompletenessReport:
        """Analyse selected items only (and their sub-trees for objects)."""
        report = CompletenessReport()
        for item in items:
            if hasattr(item, "walk"):  # an object: include its sub-tree
                for obj in item.walk():
                    report.gaps.extend(self.object_gaps(obj))
            else:
                report.gaps.extend(self.relationship_gaps(item))
        return report

    # -- incremental maintenance -------------------------------------------

    def note_commit(
        self,
        touched: dict[ItemKey, tuple[object, set[str]]],
        structural: frozenset[ItemKey] | set[ItemKey] = frozenset(),
    ) -> None:
        """Mark every item whose gaps a committed transaction may change.

        Called by the database once per *successful* commit with the
        transaction's touched-item map (the same map consistency
        validation runs over); rolled-back transactions never reach
        this point, so the dirty set stays exact. Bulk batches call this exactly once at
        finalize with the union of all their touches (the set-union
        dirty merge).

        *structural* lists keys whose touch changed inheritor-visible
        structure despite carrying only an "update" tag (pattern
        mark/unmark, inherit-link changes); together with the
        create/delete/reclassify tags it gates the inheritor fan-out —
        value-only updates inside a pattern skip it (see the module
        docstring).
        """
        if not self._primed:
            return  # nothing cached yet; priming scans everything anyway
        # per-commit visited sets keep the fan-out linear: a cascading
        # delete touches every node of a subtree individually, and
        # without them each touched node would re-walk its whole
        # subtree (quadratic in depth). Object marking and
        # inheritor marking track separate sets because they cover
        # different things (incident relationships vs. nodes only).
        marked_objects: set[int] = set()
        marked_inheritor_nodes: set[int] = set()
        for key, (item, operations) in touched.items():
            is_structural = (
                bool(operations & STRUCTURAL_OPERATIONS) or key in structural
            )
            if hasattr(item, "walk"):
                self._mark_object(  # type: ignore[arg-type]
                    item,
                    marked_objects,
                    marked_inheritor_nodes,
                    structural=is_structural,
                )
            else:
                self._mark_relationship(  # type: ignore[arg-type]
                    item, marked_inheritor_nodes, structural=is_structural
                )

    def invalidate(self) -> None:
        """Forget everything (bulk state replacement); next check re-primes."""
        self._gaps_by_item.clear()
        self._dirty.clear()
        self._assembled = None
        self._primed = False

    def dirty_count(self) -> int:
        """Items pending re-analysis (statistics/benchmarks)."""
        return len(self._dirty)

    def incomplete_item_count(self) -> int:
        """Items currently holding at least one gap (may be stale by
        up to the dirty set until the next check)."""
        return len(self._gaps_by_item)

    def _prime(self) -> None:
        """Fill the gap map with one full scan."""
        self._gaps_by_item.clear()
        self._dirty.clear()
        self._assembled = None
        for obj in self._db.objects(include_patterns=False):
            gaps = self.object_gaps(obj)
            if gaps:
                self._gaps_by_item[("o", obj.oid)] = tuple(gaps)
        for rel in self._db.relationships(include_patterns=False):
            gaps = self.relationship_gaps(rel)
            if gaps:
                self._gaps_by_item[("r", rel.rid)] = tuple(gaps)
        self._primed = True

    def _recompute(self, key: ItemKey) -> None:
        """Re-derive one item's gaps and update the map."""
        kind, item_id = key
        if kind == "o":
            item = self._db._objects.get(item_id)  # noqa: SLF001
            gaps = self.object_gaps(item) if item is not None else []
        else:
            rel = self._db._relationships.get(item_id)  # noqa: SLF001
            gaps = self.relationship_gaps(rel) if rel is not None else []
        self._assembled = None
        if gaps:
            self._gaps_by_item[key] = tuple(gaps)
        else:
            self._gaps_by_item.pop(key, None)

    def _mark_object(
        self,
        obj: "SeedObject",
        marked: set[int],
        marked_nodes: set[int],
        *,
        structural: bool = True,
    ) -> None:
        """Dirty an object, its sub-tree, parent, incident items.

        The sub-tree covers renames (gap texts embed dotted names) and
        pattern-flag flips (a whole context changes visibility); the
        parent covers sub-object minima; incident relationships and
        their endpoints cover participation minima and pattern-context
        flips of relationships the transaction never touched directly.
        Nodes in *marked* were fully covered earlier in the same commit
        (e.g. by a touched ancestor) and are pruned with their subtrees.
        Only *structural* touches fan out to pattern inheritors —
        value updates inside a pattern cannot change inheritor gaps.
        """
        incidence = self._db._incidence  # noqa: SLF001
        relationships = self._db._relationships  # noqa: SLF001
        stack = [obj]
        while stack:
            node = stack.pop()
            if node.oid in marked:
                continue
            marked.add(node.oid)
            self._dirty.add(("o", node.oid))
            for rid in incidence.get(node.oid, ()):
                self._dirty.add(("r", rid))
                for endpoint in relationships[rid].bound_objects():
                    self._dirty.add(("o", endpoint.oid))
            stack.extend(node.sub_objects())
        if obj.parent is not None:
            self._dirty.add(("o", obj.parent.oid))
        if structural:
            self._mark_inheritors_of_context(obj, marked_nodes)

    def _mark_relationship(
        self,
        rel: "SeedRelationship",
        marked_nodes: set[int],
        *,
        structural: bool = True,
    ) -> None:
        """Dirty a relationship and both endpoints (participation minima).

        The endpoint inheritor fan-out (pattern relationships only) is
        gated like the object one: attribute-only updates of a pattern
        relationship cannot change inheritor gaps.
        """
        self._dirty.add(("r", rel.rid))
        for endpoint in rel.bound_objects():
            self._dirty.add(("o", endpoint.oid))
            if structural:
                self._mark_inheritors_of_context(endpoint, marked_nodes)

    def _mark_inheritors_of_context(
        self, obj: "SeedObject", marked_nodes: set[int]
    ) -> None:
        """Dirty every inheritor of *obj*'s pattern root (and sub-trees).

        A change inside a pattern context propagates to all inheritors'
        effective structure — the same fan-out consistency validation
        performs in ``_validate_object_context``. *marked_nodes* prunes
        inheritor subtrees already dirtied in this commit (many touched
        pattern nodes share their inheritors).
        """
        root = pattern_root(obj)
        if not root.is_pattern:
            return
        for inheritor in self._db.patterns.inheritors_of(root):
            stack = [inheritor]
            while stack:
                node = stack.pop()
                if node.oid in marked_nodes:
                    continue
                marked_nodes.add(node.oid)
                self._dirty.add(("o", node.oid))
                stack.extend(node.sub_objects())

    # -- objects --------------------------------------------------------------

    def object_gaps(self, obj: "SeedObject") -> list[Gap]:
        """All completeness gaps of one object."""
        if obj.deleted or obj.in_pattern_context:
            return []
        gaps: list[Gap] = []
        name = str(obj.name)
        gaps.extend(self._sub_object_minima(obj, name))
        gaps.extend(self._undefined_value(obj, name))
        gaps.extend(self._relationship_minima(obj, name))
        gaps.extend(self._covering(obj, name))
        return gaps

    def _sub_object_minima(self, obj: "SeedObject", name: str) -> Iterable[Gap]:
        for element in obj.entity_class.kind_chain():
            for dependent in getattr(element, "dependents", []):
                minimum = dependent.cardinality.minimum
                if minimum == 0:
                    continue
                count = len(
                    self._db.patterns.effective_sub_objects(obj, dependent.name)
                )
                if count < minimum:
                    yield Gap(
                        "sub-object-minimum",
                        name,
                        dependent.full_name,
                        f"has {count} {dependent.name!r} sub-objects, "
                        f"minimum is {minimum}",
                    )

    def _undefined_value(self, obj: "SeedObject", name: str) -> Iterable[Gap]:
        if obj.entity_class.has_value and obj.value is None:
            yield Gap(
                "undefined-value",
                name,
                obj.entity_class.full_name,
                "exists but its value is still undefined",
            )

    def _relationship_minima(self, obj: "SeedObject", name: str) -> Iterable[Gap]:
        for association in self._db.schema.associations:
            for position in (0, 1):
                role = association.role_at(position)
                minimum = role.cardinality.minimum
                if minimum == 0:
                    continue
                if not obj.entity_class.is_kind_of(role.target):
                    continue
                count = self._db.patterns.count_participations(
                    obj, association, position
                )
                if count < minimum:
                    yield Gap(
                        "relationship-minimum",
                        name,
                        association.name,
                        f"participates in {count} {association.name!r} "
                        f"relationships at role {role.name!r}, minimum is "
                        f"{minimum}",
                    )

    def _covering(self, obj: "SeedObject", name: str) -> Iterable[Gap]:
        if obj.entity_class.covering:
            specials = ", ".join(
                special.name for special in obj.entity_class.specials
            )
            yield Gap(
                "covering",
                name,
                obj.entity_class.name,
                f"is still classified in covering class "
                f"{obj.entity_class.name!r}; must be specialized "
                f"(to one of: {specials})",
            )

    # -- relationships ------------------------------------------------------------

    def relationship_gaps(self, rel: "SeedRelationship") -> list[Gap]:
        """All completeness gaps of one relationship."""
        if rel.deleted or rel.in_pattern_context:
            return []
        gaps: list[Gap] = []
        ref = f"{rel.association.name}#{rel.rid}"
        if rel.association.covering:
            specials = ", ".join(
                special.name for special in rel.association.specials
            )
            gaps.append(
                Gap(
                    "covering",
                    ref,
                    rel.association.name,
                    f"is still classified in covering association "
                    f"{rel.association.name!r}; must be specialized "
                    f"(to one of: {specials})",
                )
            )
        for attribute in rel.association.all_attributes():
            if attribute.mandatory and not rel.has_attribute(attribute.name):
                gaps.append(
                    Gap(
                        "attribute-minimum",
                        ref,
                        rel.association.name,
                        f"mandatory attribute {attribute.name!r} has no value",
                    )
                )
        return gaps
