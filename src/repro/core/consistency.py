"""The consistency engine: checks enforced on **every** update.

The paper partitions schema information into *consistency* information —
class and association membership, maximum cardinalities, ACYCLIC
conditions, and attached procedures — and *completeness* information
(minimum cardinalities, covering conditions). This engine implements the
consistency half: it is invoked by the database after every update (or
at transaction commit) and any violation causes the update to be rolled
back, so "SEED permanently ensures database consistency" while still
admitting incomplete data.

Pattern items are exempt ("patterns ... are not checked for consistency
unless they are inherited by a 'normal' data item"); when a pattern *is*
inherited, its content is validated in the context of every inheritor,
which the engine does by working on *effective* structure (own plus
pattern-inherited sub-objects and relationships) as computed by the
pattern manager.

*Compiled plans: decide, then explain.* An item is decided on what its
schema element compiled — a class's role → dependent class map and
value sort (plain ``str`` passes STRING and TEXT without a call), an
association's kind-of sets, bounded role maxima and ACYCLIC flag —
recompiled when :func:`~repro.core.schema.element.schema_changed`
moves the generation. Only an item the decision does not accept (a
rejection, or patterns, attributes or a deleted binding it leaves to
the rules) runs the rule-walking checks, which word the violations, so
messages and their order are the rule walk's. Every commit, per edit
or bulk, takes this path. The rule walk is the oracle
(``tests/test_consistency_plans.py``): the decision never accepts an
item it finds a violation in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING

from repro.core.errors import ConsistencyError, ValueTypeError
from repro.core.schema.association import Association
from repro.core.schema.attached import UpdateContext
from repro.core.values import STRING, TEXT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.objects import SeedObject
    from repro.core.relationships import SeedRelationship

__all__ = ["Violation", "ConsistencyEngine"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One consistency violation.

    Attributes:
        kind: category — ``membership``, ``max-cardinality``, ``acyclic``,
            ``value-sort``, ``structure``, or ``procedure``.
        item: textual reference to the offending item (name or id).
        message: human explanation.
    """

    kind: str
    item: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.item}: {self.message}"


class ConsistencyEngine:
    """Validates objects and relationships against consistency rules."""

    def __init__(self, database: "SeedDatabase") -> None:
        self._db = database

    def accepts_object(self, obj: "SeedObject") -> bool:
        """True when *obj* has no violation, decided on its class's
        compiled role -> dependent class map and value sort. False hands
        it to :meth:`explain_object` (a rejection, or inherited patterns)."""
        if obj.deleted:
            return True
        if obj.inherited_patterns:
            return False
        entity_class = obj.entity_class
        value = obj.value
        if value is not None:
            sort = entity_class.value_sort
            if sort is None:
                return False
            if type(value) is not str or (sort is not STRING and sort is not TEXT):
                try:
                    sort.coerce(value)
                except ValueTypeError:
                    return False
        for role, children in obj._children.items():  # noqa: SLF001
            declared = entity_class.resolve_dependent(role)
            count = 0
            for child in children:
                if not child.deleted:
                    if child.entity_class is not declared:
                        return False  # an undeclared role, or the wrong class
                    count += 1
            if count and not declared.cardinality.allows_more(count - 1):
                return False
        return True

    def accepts_relationship(self, rel: "SeedRelationship") -> bool:
        """True when *rel* has no violation, decided on its association's
        compiled kind-of sets and bounded maxima. False hands it to
        :meth:`explain_relationship`: a rejection, or attributes, a
        deleted binding, or a bound object with pattern influence."""
        if rel.deleted:
            return True
        if rel._attributes:  # noqa: SLF001
            return False
        first, second = rel._bindings.values()  # noqa: SLF001
        if first.deleted or second.deleted:
            return False
        first_role, second_role = rel.association.roles
        if not first_role.accepts(first.entity_class):
            return False
        if not second_role.accepts(second.entity_class):
            return False
        maxima = rel.association.participation_maxima()
        # pattern content skips the maxima; an accepted binding is of an
        # independent class, so its own flag decides its pattern context
        if maxima and not (rel.is_pattern or first.is_pattern or second.is_pattern):
            indexes = self._db.indexes
            for name, position, maximum in maxima:
                bound = second if position else first
                if indexes.pattern_influenced(bound):  # refreshes the maps
                    return False
                maps = indexes.participation.get(name)
                if maps is not None and maps[position].get(bound.oid, 0) > maximum:
                    return False
        return True

    # -- objects ---------------------------------------------------------

    def validate_object(self, obj: "SeedObject") -> list[Violation]:
        """All consistency violations of *obj*: none when
        :meth:`accepts_object` decides so, else :meth:`explain_object`."""
        if self.accepts_object(obj):
            return []
        return self.explain_object(obj)

    def explain_object(self, obj: "SeedObject") -> list[Violation]:
        """The rule-walking checks of *obj*, worded as violations.

        Checks sub-object role membership, dependent-class maximum
        cardinalities (on effective structure, i.e. including
        pattern-inherited sub-objects), and value-sort conformance.
        Relationship-side checks live in :meth:`explain_relationship`.
        """
        if obj.deleted:
            return []
        # the dotted name only appears in violation messages; each check
        # renders it at report time — building it eagerly would dominate
        # the (hot) all-consistent case. Leaf objects (no children, no
        # inherited patterns) skip the child checks entirely.
        violations: list[Violation] = []
        if obj._children or obj.inherited_patterns:  # noqa: SLF001
            self._check_children(obj, violations)
        if obj.value is not None:
            self._check_value(obj, violations)
        return violations

    def _check_children(
        self, obj: "SeedObject", violations: list[Violation]
    ) -> None:
        """Membership and maximum-cardinality checks, one child pass.

        Membership covers the object's *own* children; the cardinality
        counts additionally include pattern-inherited sub-objects
        (effective structure). A single enumeration serves both — the
        per-check re-enumeration this replaces made large fan-outs pay
        for their child list twice per validation.
        """
        entity_class = obj.entity_class
        counts: dict[str, int] = {}
        for child in obj.sub_objects():
            role = child.simple_name
            counts[role] = counts.get(role, 0) + 1
            declared = entity_class.resolve_dependent(role)
            if declared is None:
                violations.append(
                    Violation(
                        "membership",
                        str(obj.name),
                        f"sub-object role {role!r} is not declared "
                        f"for class {entity_class.name!r} or its generals",
                    )
                )
            elif child.entity_class is not declared:
                violations.append(
                    Violation(
                        "membership",
                        str(obj.name),
                        f"sub-object {role!r} is classified as "
                        f"{child.entity_class.full_name!r} but the schema "
                        f"declares {declared.full_name!r}",
                    )
                )
        for pattern in self._db.patterns.patterns_of(obj):
            for child in pattern.sub_objects():
                role = child.simple_name
                counts[role] = counts.get(role, 0) + 1
        for role, count in counts.items():
            declared = entity_class.resolve_dependent(role)
            if declared is None or declared.cardinality is None:
                continue  # membership check reports unknown roles
            if not declared.cardinality.allows_more(count - 1):
                violations.append(
                    Violation(
                        "max-cardinality",
                        str(obj.name),
                        f"{count} sub-objects in role {role!r} exceed the "
                        f"maximum of cardinality {declared.cardinality}",
                    )
                )

    def _check_value(
        self, obj: "SeedObject", violations: list[Violation]
    ) -> None:
        if not obj.entity_class.has_value:
            violations.append(
                Violation(
                    "value-sort",
                    str(obj.name),
                    f"class {obj.entity_class.full_name!r} is not "
                    "value-typed but the object carries a value",
                )
            )
            return
        try:
            obj.entity_class.value_sort.coerce(obj.value)
        except ValueTypeError as exc:
            violations.append(Violation("value-sort", str(obj.name), str(exc)))

    # -- relationships -------------------------------------------------------

    def validate_relationship(self, rel: "SeedRelationship") -> list[Violation]:
        """All consistency violations of *rel*, decided as
        :meth:`validate_object` decides an object's."""
        if self.accepts_relationship(rel):
            return []
        return self.explain_relationship(rel)

    def explain_relationship(self, rel: "SeedRelationship") -> list[Violation]:
        """The rule-walking checks of *rel*, worded as violations."""
        violations: list[Violation] = []
        if rel.deleted:
            return violations
        # the ``Association#rid`` reference only appears in violation
        # messages: each check renders it at report time, as
        # validate_object does with the dotted name
        for role in rel.association.roles:
            bound = rel.bound(role.name)
            if bound.deleted:
                violations.append(
                    Violation(
                        "structure",
                        _rel_ref(rel),
                        f"role {role.name!r} binds deleted object {bound.name}",
                    )
                )
            if not role.accepts(bound.entity_class):
                violations.append(
                    Violation(
                        "membership",
                        _rel_ref(rel),
                        f"role {role.name!r} requires {role.target.name!r} "
                        f"but {bound.name} is a {bound.entity_class.name!r}",
                    )
                )
        violations.extend(self._check_attributes(rel))
        if not rel.in_pattern_context:
            violations.extend(self._check_participation_maxima(rel))
        return violations

    def _check_attributes(self, rel: "SeedRelationship") -> Iterable[Violation]:
        for attr_name, value in rel.attributes().items():
            if not rel.association.has_attribute(attr_name):
                yield Violation(
                    "structure",
                    _rel_ref(rel),
                    f"association {rel.association.name!r} declares no "
                    f"attribute {attr_name!r}",
                )
                continue
            try:
                rel.association.attribute(attr_name).sort.coerce(value)
            except ValueTypeError as exc:
                yield Violation("value-sort", _rel_ref(rel), str(exc))

    def _check_participation_maxima(
        self, rel: "SeedRelationship"
    ) -> Iterable[Violation]:
        # A Read relationship counts toward Read's own maxima and toward
        # the maxima of every general (Access): walk the kind chain.
        for element in rel.association.kinds():
            association = element
            if not isinstance(association, Association):  # pragma: no cover
                continue
            for position in (0, 1):
                role = association.role_at(position)
                if role.cardinality.is_unbounded:
                    continue
                bound = rel.bound_at(position)
                if bound.in_pattern_context:
                    continue
                count = self._db.patterns.count_participations(
                    bound, association, position
                )
                if not role.cardinality.allows_more(count - 1):
                    yield Violation(
                        "max-cardinality",
                        _rel_ref(rel),
                        f"object {bound.name} participates in {count} "
                        f"{association.name!r} relationships at role "
                        f"{role.name!r}, exceeding cardinality "
                        f"{role.cardinality}",
                    )

    # -- ACYCLIC ------------------------------------------------------------------

    def validate_acyclic(
        self, association: Association, *, use_index: bool = True
    ) -> list[Violation]:
        """Check the ACYCLIC condition over the association's family graph.

        Edges are the *effective* (pattern-expanded) relationships of the
        association family rooted at *association*'s family root,
        directed from role position 0 to role position 1 (figure 2's
        ``Contained``: contained → container). ``use_index=False`` forces
        the seed's full relationship scan (reference implementation for
        the equivalence tests and the benchmark baseline).
        """
        root = association.family_root()
        if not isinstance(root, Association):  # pragma: no cover - defensive
            return []
        edges: dict[int, list[int]] = {}
        for source_oid, target_oid in self._db.patterns.effective_edges(
            root, use_index=use_index
        ):
            edges.setdefault(source_oid, []).append(target_oid)
        cycle = _find_cycle(edges)
        if cycle is None:
            return []
        return [self._cycle_violation(root, cycle)]

    def validate_new_edges(
        self, association: Association, edges: list[tuple[int, int]]
    ) -> list[Violation]:
        """Incremental ACYCLIC check for edges added by one transaction.

        Precondition (enforced by the caller): the family root itself
        is ACYCLIC, so every edge of the family was checked when it was
        created and the graph was acyclic before this transaction. Any
        new cycle must then pass through at least one inserted edge
        ``source → target`` — and then ``target`` reaches ``source``.
        Only the reachable part of the family graph behind each new
        edge's target is explored (the edges are already indexed; a
        node's successors come from its incident relationships),
        instead of re-deriving and DFS-walking the whole graph. Virtual
        pattern edges are merged in from the family's (typically empty)
        pattern-relationship set.
        """
        root = association.family_root()
        if not isinstance(root, Association):  # pragma: no cover - defensive
            return []
        indexes = self._db.indexes
        virtual: dict[int, set[int]] = {}
        for rel in indexes.pattern_relationships(root.name):
            for source_oid, target_oid in self._db.patterns.expand_edges(rel):
                virtual.setdefault(source_oid, set()).add(target_oid)

        def successors(node: int) -> list[int]:
            merged = set(indexes.successors(root.name, node))
            extra = virtual.get(node)
            if extra:
                merged |= extra
            return sorted(merged)

        for source_oid, target_oid in edges:
            path = _reachable_path(target_oid, source_oid, successors)
            if path is not None:
                return [self._cycle_violation(root, path)]
        return []

    def _cycle_violation(self, root: Association, cycle: list[int]) -> Violation:
        names = " -> ".join(
            str(self._db.object_by_oid(oid).name) for oid in cycle
        )
        return Violation(
            "acyclic",
            root.name,
            f"association {root.name!r} is ACYCLIC but the update "
            f"creates the cycle {names}",
        )

    # -- attached procedures ----------------------------------------------------------

    def run_attached_procedures(
        self, item: object, operation: str
    ) -> list[Violation]:
        """Run every attached procedure observing *operation* on *item*.

        Procedures attached to any element of the item's kind chain fire
        (an update of a ``Read`` relationship triggers procedures on
        ``Access`` too). Messages returned by procedures and
        :class:`ConsistencyError` raised by them become violations.
        """
        element = getattr(item, "association", None) or getattr(
            item, "entity_class", None
        )
        if element is None:  # pragma: no cover - defensive
            return []
        violations: list[Violation] = []
        ref: Optional[str] = None  # dotted-name rendering is deferred —
        # most elements have no attached procedures, and building the
        # reference dominates the (hot) no-procedure case
        for procedure in element.procedures_including_inherited():
            if not procedure.applies_to(operation):
                continue
            if ref is None:
                ref = _item_ref(item)
            context = UpdateContext(
                database=self._db,
                operation=operation,
                item=item,
                element=element,
            )
            try:
                messages = procedure.run(context)
            except ConsistencyError as exc:
                messages = [str(exc)]
            violations.extend(
                Violation("procedure", ref, f"{procedure.name}: {message}")
                for message in messages
            )
        return violations


def _rel_ref(rel: "SeedRelationship") -> str:
    return f"{rel.association.name}#{rel.rid}"


def _item_ref(item: object) -> str:
    name = getattr(item, "name", None)
    if name is not None:
        return str(name)
    return repr(item)


def _find_cycle(edges: dict[int, list[int]]) -> Optional[list[int]]:
    """Return one directed cycle in *edges*, or None. Iterative DFS.

    Start nodes and successors are visited in sorted (oid) order so the
    reported cycle — and with it the violation message — is identical
    across Python hash seeds and insertion orders.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[int, int] = {}
    parent: dict[int, int] = {}
    for start in sorted(edges):
        if colour.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [
            (start, iter(sorted(edges.get(start, ()))))
        ]
        colour[start] = GREY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                state = colour.get(successor, WHITE)
                if state == GREY:
                    # reconstruct the cycle successor -> ... -> node -> successor
                    cycle = [successor]
                    walker = node
                    while walker != successor:
                        cycle.append(walker)
                        walker = parent[walker]
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    colour[successor] = GREY
                    parent[successor] = node
                    stack.append(
                        (successor, iter(sorted(edges.get(successor, ()))))
                    )
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _reachable_path(
    start: int, goal: int, successors
) -> Optional[list[int]]:
    """DFS path ``[start, ..., goal]`` over *successors*, or None.

    Used by the incremental ACYCLIC check: the returned path is the
    cycle closed by the new edge ``goal → start``. A *start* equal to
    *goal* is the self-loop case and yields the one-node path.
    """
    if start == goal:
        return [start]
    parent: dict[int, int] = {}
    visited: set[int] = {start}
    stack: list[int] = [start]
    while stack:
        node = stack.pop()
        for successor in successors(node):
            if successor in visited:
                continue
            parent[successor] = node
            if successor == goal:
                path = [goal]
                walker = node
                while walker != start:
                    path.append(walker)
                    walker = parent[walker]
                path.append(start)
                path.reverse()
                return path
            visited.add(successor)
            stack.append(successor)
    return None
