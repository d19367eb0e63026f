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

:meth:`CompletenessEngine.check_database` does not scan. The engine
keeps a per-item gap map (item key → its current gaps), the map's keys
in report order (objects before relationships, ids ascending), and a
dirty set. When a unit of work commits, the database hands the engine
its touched-item map (:meth:`CompletenessEngine.note_commit`) and the
engine marks every item whose gaps could have changed; rolled-back
units mark nothing. A check re-derives the dirty items only, so it
costs O(changed items × their own rules) plus one copy of the gap list.
The first check primes the map under the collector rule of
:mod:`repro.core.bulk`: the map lives as long as the database.

*Compiled rules.* The rules an item is checked against depend on its
schema element alone, so they are derived once per element and kept
in a table keyed by the element object: for a class, the dependent
classes along its kind chain with a minimum above zero, the
association roles with a minimum above zero whose target it is a kind
of, whether it is value-typed, and its covering gap with the message
already rendered; for an association, its covering gap and its
mandatory attributes; a participation gap's text is rendered once
per role and count. The table, and the gap map with it, is dropped by
:meth:`invalidate`, when ``db.schema`` is replaced and when the schema
generation moves (``add_dependent``, ``specialize`` and
``set_covering`` change a schema in place). One kernel,
:meth:`~CompletenessEngine.object_gaps`, serves the prime and the
refresh: an object without pattern influence has its own live children
counted in place and its participations read from the index maps. An
item's name is rendered only when it has a gap; an independent,
unindexed object's dotted name is its simple name.

*Dirty fan-out.* A commit dirties each touched object with its
sub-tree (gap texts embed dotted names) and its parent (sub-object
minima), and each touched relationship. Participation minima and a
relationship's own gaps change only when the relationship itself is
created, deleted or reclassified; those touches also dirty its two
endpoints. An object touch walks its incident relationships and their
endpoints only when it flips what is visible around it: a pattern
mark/unmark (every relationship bound into the sub-tree changes
context) or an inherits-link change, including a deleted inheritor
(objects bound to the pattern by pattern relationships gain or lose
one virtual participation per inheritor). The database lists those
keys in the unit's ``structural`` set.

Pattern-context items additionally dirty every inheritor of their
pattern root (effective views), but only for *structural* touches —
create, delete, reclassify, or a key in ``structural``. An inheritor's
gaps depend on the pattern's structure (which sub-objects and
relationships exist and how they are bound), never on values or
relationship attributes inside it, so value updates inside a pattern
leave the inheritors' cached gaps alone.

*Assembly.* The report is the gap lists of the map's keys in order.
The key list is kept sorted with :mod:`bisect` as items enter and
leave the map, and the assembled list is rebuilt only when some item's
gaps actually changed; a clean check copies it.

Bulk batches (:meth:`repro.core.database.SeedDatabase.bulk`) defer
``note_commit`` to one merge over the whole batch's touched map at
finalize; a ``check_database`` issued *inside* an open batch derives
every item afresh on the compiled rules and leaves the gap map alone
(it is not yet merged). Bulk state
replacement (version selection, schema migration, image load,
checkout) calls :meth:`CompletenessEngine.invalidate`; the next check
primes the map with one pass over the live items on the compiled
rules.

*The oracle.* :meth:`CompletenessEngine.check_database_scan` keeps the
seed's rule-walking derivation (:meth:`~CompletenessEngine.
object_gaps_scan`, :meth:`~CompletenessEngine.relationship_gaps_scan`),
which reads the schema afresh for every item. It shares no code with
the compiled path, so the equivalence suites in
``tests/test_completeness_incremental.py`` compare two
implementations: the report must equal the scan and a freshly primed
engine's report, in order, after every step;
``tests/test_completeness_kernel.py`` does so on pattern fixtures, a
``query_mix``-shaped database, a reopened journal and re-primes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, TYPE_CHECKING

from repro.core.bulk import long_lived
from repro.core.patterns import pattern_root
from repro.core.schema.association import Association
from repro.core.schema.element import schema_generation
from repro.core.versions.store import ItemKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.objects import SeedObject
    from repro.core.relationships import SeedRelationship
    from repro.core.schema.entity_class import EntityClass

__all__ = ["Gap", "CompletenessReport", "CompletenessEngine"]

#: operation tags that change structure visible to pattern inheritors
STRUCTURAL_OPERATIONS = frozenset({"create", "delete", "reclassify"})


@dataclass(frozen=True, slots=True)
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


class _ClassRules(NamedTuple):
    """The completeness rules of one entity class, derived once."""

    #: ``(role, minimum, dependent full name)`` per dependent class
    #: along the kind chain whose minimum is above zero
    dependents: tuple[tuple[str, int, str], ...]
    #: ``(association, position, minimum, role name, texts)`` per
    #: association role whose minimum is above zero and whose target the
    #: class is a kind of; *texts* maps a count to its rendered gap
    roles: tuple[tuple[Association, int, int, str, dict], ...]
    #: the class's full name when it is value-typed, else None
    value_element: Optional[str]
    #: ``(element, message)`` of the covering gap, or None
    covering: Optional[tuple[str, str]]


class _AssociationRules(NamedTuple):
    """The completeness rules of one association, derived once."""

    #: ``(element, message)`` of the covering gap, or None
    covering: Optional[tuple[str, str]]
    #: ``(attribute name, message)`` per mandatory attribute
    mandatory: tuple[tuple[str, str], ...]


def _covering_gap(
    element: "EntityClass | Association", what: str
) -> tuple[str, str]:
    specials = ", ".join(special.name for special in element.specials)
    return (
        element.name,
        f"is still classified in covering {what} {element.name!r}; must be "
        f"specialized (to one of: {specials})",
    )


def _compile_class(
    entity_class: "EntityClass", associations: list[Association]
) -> _ClassRules:
    dependents = tuple(
        (dependent.name, dependent.cardinality.minimum, dependent.full_name)
        for element in entity_class.kind_chain()
        for dependent in getattr(element, "dependents", [])
        if dependent.cardinality.minimum != 0
    )
    roles = []
    for association in associations:
        for position in (0, 1):
            role = association.role_at(position)
            minimum = role.cardinality.minimum
            if minimum != 0 and entity_class.is_kind_of(role.target):
                roles.append((association, position, minimum, role.name, {}))
    return _ClassRules(
        dependents,
        tuple(roles),
        entity_class.full_name if entity_class.has_value else None,
        _covering_gap(entity_class, "class") if entity_class.covering else None,
    )


def _compile_association(association: Association) -> _AssociationRules:
    return _AssociationRules(
        _covering_gap(association, "association") if association.covering else None,
        tuple(
            (attribute.name, f"mandatory attribute {attribute.name!r} has no value")
            for attribute in association.all_attributes()
            if attribute.mandatory
        ),
    )


class CompletenessEngine:
    """Derives completeness rules from the schema and checks them."""

    def __init__(self, database: "SeedDatabase") -> None:
        self._db = database
        #: item key -> its current gaps; only incomplete items appear
        self._gaps_by_item: dict[ItemKey, tuple[Gap, ...]] = {}
        #: the keys of the gap map, sorted (report order)
        self._order: list[ItemKey] = []
        #: keys whose gaps must be re-derived before the next report
        self._dirty: set[ItemKey] = set()
        #: the map's gaps in report order; None whenever the map changed
        #: since they were assembled
        self._assembled: Optional[list[Gap]] = None
        #: False until the map was primed by one pass over all items,
        #: under :attr:`_primed_generation` of the schema
        self._primed = False
        self._primed_generation = -1
        #: schema element -> its compiled rules (None: it has none), for
        #: :attr:`_rules_schema` as of :attr:`_rules_generation`
        self._rules: dict[object, "_ClassRules | _AssociationRules | None"] = {}
        self._rules_schema: object = None
        self._rules_generation = -1

    # -- entry points ------------------------------------------------------

    def check_database(self) -> CompletenessReport:
        """Analyse every live, normal (non-pattern) item.

        Incremental: only items marked dirty since the previous check
        are re-analysed; the report is assembled from the maintained
        per-item gap map (deterministic key order — objects before
        relationships, ids ascending). The first call primes the map.
        The assembled gap list is kept beside the map until some item's
        gaps change, so a clean call only copies it (a fresh list each
        time: callers may mutate their report). Inside an open bulk
        batch the maintained map has not yet absorbed the batch's
        touched set, so every item is derived afresh on the compiled
        rules and the map is left alone (read-your-writes).
        """
        if self._db._bulk is not None:  # noqa: SLF001
            found = dict(self._item_gaps())
            return CompletenessReport(
                list(chain.from_iterable(map(found.__getitem__, sorted(found))))
            )
        if self._primed and self._primed_generation != schema_generation():
            self.invalidate()  # the schema changed in place
        if not self._primed:
            self._prime()
        elif self._dirty:
            self._refresh()
        if self._assembled is None:
            self._assembled = list(
                chain.from_iterable(map(self._gaps_by_item.__getitem__, self._order))
            )
        return CompletenessReport(list(self._assembled))

    def check_database_scan(self) -> CompletenessReport:
        """The seed's full scan — kept as the equivalence reference."""
        report = CompletenessReport()
        for obj in self._db.objects(include_patterns=False):
            report.gaps.extend(self.object_gaps_scan(obj))
        for rel in self._db.relationships(include_patterns=False):
            report.gaps.extend(self.relationship_gaps_scan(rel))
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

        *structural* lists keys whose touch changed what is visible
        around them despite carrying only an "update" tag (pattern
        mark/unmark, inherit-link changes): only those walk incident
        relationships, and together with the create/delete/reclassify
        tags they gate the inheritor fan-out (see the module docstring).
        """
        if not self._primed:
            return  # nothing cached yet; priming derives everything anyway
        # per-commit visited sets keep the fan-out linear: a cascading
        # delete touches every node of a subtree individually, and
        # without them each touched node would re-walk its whole
        # subtree (quadratic in depth). Sub-tree marking, incidence
        # walking and inheritor marking each keep their own set because
        # they cover different things.
        marked_objects: set[int] = set()
        marked_incident: set[int] = set()
        marked_inheritor_nodes: set[int] = set()
        for key, (item, operations) in touched.items():
            flips_context = key in structural
            is_structural = flips_context or not operations.isdisjoint(
                STRUCTURAL_OPERATIONS
            )
            if hasattr(item, "walk"):
                self._mark_object(item, marked_objects)  # type: ignore[arg-type]
                if flips_context:
                    self._mark_incident(item, marked_incident)  # type: ignore[arg-type]
                if is_structural:
                    self._mark_inheritors_of_context(
                        item, marked_inheritor_nodes  # type: ignore[arg-type]
                    )
            else:
                self._mark_relationship(  # type: ignore[arg-type]
                    item, marked_inheritor_nodes, structural=is_structural
                )

    def invalidate(self) -> None:
        """Forget everything (bulk state replacement); next check re-primes."""
        self._gaps_by_item.clear()
        self._order.clear()
        self._dirty.clear()
        self._assembled = None
        self._primed = False
        self._rules.clear()
        self._rules_schema = None
        self._rules_generation = -1

    def dirty_count(self) -> int:
        """Items pending re-analysis (statistics/benchmarks)."""
        return len(self._dirty)

    def _item_gaps(self) -> Iterator[tuple[ItemKey, tuple[Gap, ...]]]:
        """``(key, gaps)`` of every item record that has a gap, from
        one pass on the compiled rules."""
        object_gaps = self.object_gaps
        for obj in self._db.all_objects_raw():
            gaps = object_gaps(obj)
            if gaps:
                yield ("o", obj.oid), tuple(gaps)
        relationship_gaps = self.relationship_gaps
        for rel in self._db.all_relationships_raw():
            gaps = relationship_gaps(rel)
            if gaps:
                yield ("r", rel.rid), tuple(gaps)

    @long_lived()
    def _prime(self) -> None:
        """Fill the gap map with one pass over every item record."""
        gaps_by_item = self._gaps_by_item
        gaps_by_item.clear()
        self._dirty.clear()
        self._assembled = None
        gaps_by_item.update(self._item_gaps())
        self._order = sorted(gaps_by_item)
        self._primed = True
        self._primed_generation = schema_generation()

    def _refresh(self) -> None:
        """Re-derive every dirty item's gaps and update the map.

        The key order changes only when an item enters or leaves the
        map, and the assembled report is dropped only when some item's
        gaps actually changed.
        """
        objects = self._db._objects  # noqa: SLF001
        relationships = self._db._relationships  # noqa: SLF001
        gaps_by_item = self._gaps_by_item
        order = self._order
        changed = False
        for key in self._dirty:
            kind, item_id = key
            if kind == "o":
                obj = objects.get(item_id)
                gaps = self.object_gaps(obj) if obj is not None else None
            else:
                rel = relationships.get(item_id)
                gaps = self.relationship_gaps(rel) if rel is not None else None
            old = gaps_by_item.get(key)
            if gaps:
                new = tuple(gaps)
                if new == old:
                    continue
                if old is None:
                    insort(order, key)
                gaps_by_item[key] = new
            elif old is not None:
                del gaps_by_item[key]
                del order[bisect_left(order, key)]
            else:
                continue
            changed = True
        self._dirty.clear()
        if changed:
            self._assembled = None

    def _mark_object(self, obj: "SeedObject", marked: set[int]) -> None:
        """Dirty an object, its sub-tree and its parent.

        The sub-tree covers renames (gap texts embed dotted names) and
        pattern-flag flips (a whole context changes visibility); the
        parent covers sub-object minima. Nodes in *marked* were covered
        earlier in the same commit (e.g. by a touched ancestor) and are
        pruned with their subtrees.
        """
        dirty = self._dirty
        stack = [obj]
        while stack:
            node = stack.pop()
            if node.oid in marked:
                continue
            marked.add(node.oid)
            dirty.add(("o", node.oid))
            stack.extend(node.sub_objects())
        if obj.parent is not None:
            dirty.add(("o", obj.parent.oid))

    def _mark_incident(self, obj: "SeedObject", marked: set[int]) -> None:
        """Dirty every relationship bound into *obj*'s sub-tree and both
        of its endpoints.

        Only for touches that flip what surrounds the sub-tree — a
        pattern mark/unmark changes every such relationship's context,
        an inherits-link change the virtual participations of objects
        bound to the pattern — which relationships nobody touched
        cannot otherwise learn of.
        """
        dirty = self._dirty
        incidence = self._db._incidence  # noqa: SLF001
        relationships = self._db._relationships  # noqa: SLF001
        stack = [obj]
        while stack:
            node = stack.pop()
            if node.oid in marked:
                continue
            marked.add(node.oid)
            for rid in incidence.get(node.oid, ()):
                dirty.add(("r", rid))
                for endpoint in relationships[rid].bound_objects():
                    dirty.add(("o", endpoint.oid))
            stack.extend(node.sub_objects())

    def _mark_relationship(
        self,
        rel: "SeedRelationship",
        marked_nodes: set[int],
        *,
        structural: bool = True,
    ) -> None:
        """Dirty a relationship; a structural touch (create, delete,
        reclassify, pattern flip) also dirties both endpoints, whose
        participation counts it changed.

        The endpoint inheritor fan-out (pattern relationships only) is
        gated the same way: attribute-only updates of a pattern
        relationship cannot change inheritor gaps.
        """
        self._dirty.add(("r", rel.rid))
        if not structural:
            return
        for endpoint in rel.bound_objects():
            self._dirty.add(("o", endpoint.oid))
            self._mark_inheritors_of_context(endpoint, marked_nodes)

    def _mark_inheritors_of_context(
        self, obj: "SeedObject", marked_nodes: set[int]
    ) -> None:
        """Dirty every inheritor of *obj*'s pattern root (and sub-trees).

        A change inside a pattern context propagates to all inheritors'
        effective structure — the same fan-out consistency validation
        performs in ``SeedDatabase._validate_objects``. *marked_nodes* prunes
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

    # -- compiled rules ---------------------------------------------------------

    def _rules_of(self, element: object) -> "_ClassRules | _AssociationRules | None":
        """The compiled rules of a class or association of ``db.schema``,
        or None when it has none (its items never have a gap)."""
        schema = self._db.schema
        generation = schema_generation()
        if schema is not self._rules_schema or generation != self._rules_generation:
            self._rules.clear()
            self._rules_schema = schema
            self._rules_generation = generation
        try:
            return self._rules[element]
        except KeyError:
            if isinstance(element, Association):
                rules = _compile_association(element)
            else:
                rules = _compile_class(
                    element, schema.associations  # type: ignore[arg-type]
                )
            self._rules[element] = rules if any(rules) else None
            return self._rules[element]

    def object_gaps(self, obj: "SeedObject") -> list[Gap]:
        """All completeness gaps of one object, from its class's
        compiled rules (the kernel; the oracle is :meth:`object_gaps_scan`)."""
        if obj.deleted:
            return []
        rules: _ClassRules = self._rules_of(obj.entity_class)  # type: ignore[assignment]
        if rules is None or obj.in_pattern_context:
            return []
        patterns = self._db.patterns
        inherited = obj.inherited_patterns
        found: list[tuple[str, str, str]] = []
        for role, minimum, element in rules.dependents:
            if inherited:
                count = len(patterns.effective_sub_objects(obj, role))
            else:
                count = 0
                for child in obj._children_of_role(role):  # noqa: SLF001
                    if not child.deleted:
                        count += 1
            if count < minimum:
                found.append((
                    "sub-object-minimum",
                    element,
                    f"has {count} {role!r} sub-objects, minimum is {minimum}",
                ))
        if rules.value_element is not None and obj.value is None:
            found.append((
                "undefined-value",
                rules.value_element,
                "exists but its value is still undefined",
            ))
        if rules.roles:
            indexes = self._db.indexes
            influenced = indexes.pattern_influenced(obj)  # refreshes the maps
            for association, position, minimum, role, texts in rules.roles:
                if influenced:
                    count = patterns.count_participations(obj, association, position)
                else:
                    maps = indexes.participation.get(association.name)
                    count = 0 if maps is None else maps[position].get(obj.oid, 0)
                if count < minimum:
                    gap = texts.get(count)
                    if gap is None:
                        gap = texts[count] = (
                            "relationship-minimum",
                            association.name,
                            f"participates in {count} {association.name!r} "
                            f"relationships at role {role!r}, minimum is {minimum}",
                        )
                    found.append(gap)
        if rules.covering is not None:
            found.append(("covering", *rules.covering))
        if not found:
            return []
        # an independent, unindexed object's name was validated as given
        unindexed = obj.parent is None and obj.index is None
        name = obj.simple_name if unindexed else str(obj.name)
        return [Gap(kind, name, element, text) for kind, element, text in found]

    def relationship_gaps(self, rel: "SeedRelationship") -> list[Gap]:
        """All completeness gaps of one relationship, from its
        association's compiled rules (see :meth:`relationship_gaps_scan`)."""
        if rel.deleted:
            return []
        rules: _AssociationRules = self._rules_of(rel.association)  # type: ignore[assignment]
        if rules is None or rel.in_pattern_context:
            return []
        association = rel.association
        found = [] if rules.covering is None else [("covering", *rules.covering)]
        for attribute, message in rules.mandatory:
            if not rel.has_attribute(attribute):
                found.append(("attribute-minimum", association.name, message))
        if not found:
            return []
        ref = f"{association.name}#{rel.rid}"
        return [Gap(kind, ref, element, text) for kind, element, text in found]

    # -- the seed's derivation, kept as the oracle ---------------------------------

    def object_gaps_scan(self, obj: "SeedObject") -> list[Gap]:
        """All completeness gaps of one object, rules re-derived from the
        schema (the seed's derivation)."""
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

    def relationship_gaps_scan(self, rel: "SeedRelationship") -> list[Gap]:
        """All completeness gaps of one relationship, rules re-derived
        from the schema (the seed's derivation)."""
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
