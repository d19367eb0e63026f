"""Maintained secondary indexes: every hot path becomes sublinear.

The seed answered class-extent queries, participation counts, name
lookups, and ACYCLIC checks by scanning all objects or all
relationships — O(database) work per update or query. This layer keeps
secondary structures incrementally up to date so the same answers cost
O(answer), O(degree) or O(1). **Each fact is stored once:** what another
stored structure, or the database's own records, already answer is
derived on read instead of kept in a second copy.

Stored (:attr:`IndexLayer.STORED`):

``extent``
    class full-name → set of live oids classified exactly in that
    class. A query for class ``C`` unions the sets of ``C`` and its
    transitive specializations (generalization rollup). The sets
    include pattern-context objects; visibility filtering stays a
    query-time concern because marking a pattern flips the context of
    a whole sub-tree at once.
``names``
    sorted list of independent-object names, mirroring the database's
    ``_name_index`` keys exactly. Prefix retrieval bisects.
``participation`` / ``assoc_counts``
    association element name → ``(by_oid_at_0, by_oid_at_1)``, two
    ``oid → count`` maps over live **normal** (non-pattern-context)
    relationships, and element name → their number. Each relationship
    counts once per element of its association's kind chain.
    Virtual (pattern-inherited) participations are not counted; the
    pattern manager falls back to enumeration for the few objects with
    pattern influence (tracked by ``pattern_incidence``).
``family_rids`` / ``pattern_rids``
    live normal and pattern-context relationship ids per association
    family (by root name). The sets are disjoint; the one that holds a
    rid *is* the status the relationship is indexed under, and removal
    reads it back from there, so a removal mirrors its insertion.
``pattern_incidence``
    oid → live pattern-context relationships touching it.
``value_counts``
    class full-name → type-aware value key → live count over the
    objects the extent holds; the planner's selectivity statistics.

Derived on read: :meth:`distinct_participants` is the size of a
``participation`` map; :meth:`normal_edges` reads the endpoints of a
family's ``family_rids``; :meth:`successors` keeps, of the database's
incidence list of the node, the family's normal relationships that bind
it at position 0 — O(degree). :func:`brute_objects` and
:func:`brute_relationships` are the full scans the equivalence tests
compare the extents against.

Invariants (checked by :meth:`IndexLayer.verify` and the equivalence
tests in ``tests/test_indexes.py``):

1. **Mirror invariant** — after any committed operation, every stored
   structure equals what :meth:`rebuild` computes from the raw records
   in one pass over the objects and one over the relationships — a
   derivation independent of the per-item hooks the mutators of
   :class:`~repro.core.database.SeedDatabase` call.
2. **Rollback invariant** — a rolled-back unit of work leaves all
   structures equal to their pre-unit state. The unit's rollback
   withdraws the entries of every item it logged (from the item's
   current state), thaws the before-images, and re-enters them —
   through the same maintenance hooks the mutators call, O(items
   changed), no :meth:`rebuild` (a bulk batch resumes maintenance
   first, which rebuilds once if the suspended layer is stale).
3. **Status invariant** — each live relationship is indexed under
   exactly one status, ``normal`` or ``pattern``; pattern-flag changes
   re-index through :meth:`refresh_relationship` /
   :meth:`set_relationship_status`.
4. **Fallback invariant** — indexed fast paths are only taken when
   they provably agree with the brute-force scan; pattern-influenced
   objects (inherited patterns or incident pattern relationships) use
   the scan. The brute-force reference implementations live in this
   module (:func:`brute_objects`, :func:`brute_relationships`) and in
   the pattern manager so tests can compare answers forever.

Bulk loaders that bypass the operational interface (version restore,
schema migration, image deserialization, multi-user checkout) call
:meth:`rebuild`.

Deferred maintenance: the bulk write path
(:meth:`repro.core.database.SeedDatabase.bulk`) calls :meth:`suspend`
before a batch and :meth:`resume` after it. While suspended, every
incremental mutator is a no-op that only marks the layer *stale*; the
batch then pays **one** :meth:`rebuild` instead of per-item updates.
Query entry points call :meth:`_ensure_fresh`, which rebuilds on demand
when a stale layer is read mid-batch — so a read inside a bulk batch
sees every batch mutation applied so far, at the cost of one rebuild
per write-then-read boundary.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from typing import Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.objects import SeedObject
    from repro.core.relationships import SeedRelationship
    from repro.core.schema.entity_class import EntityClass

__all__ = [
    "IndexLayer",
    "brute_objects",
    "brute_relationships",
    "prefix_upper_bound",
    "value_key",
]

#: relationship index status values
NORMAL = "normal"
PATTERN = "pattern"

#: the largest code point — prefixes ending here have no same-length successor
_MAX_CHAR = chr(0x10FFFF)

#: distinct values kept exactly by the top-K + remainder histogram view
TOP_K = 16


def prefix_upper_bound(prefix: str) -> Optional[str]:
    """The exclusive upper bound of the names starting with *prefix*.

    The smallest string greater than every string with that prefix:
    strip trailing ``U+10FFFF`` code points (they have no successor —
    the naive ``prefix[:-1] + chr(ord(last) + 1)`` raises
    ``ValueError`` for them), then bump the last surviving character.
    ``None`` means "no upper bound" (every character is the maximum
    code point, or the prefix is empty): scan to the end of the list.
    """
    trimmed = prefix.rstrip(_MAX_CHAR)
    if not trimmed:
        return None
    return trimmed[:-1] + chr(ord(trimmed[-1]) + 1)


def value_key(value: object) -> tuple:
    """Type-aware histogram key of a defined value.

    Mirrors the algebra's cell keying: SEED values are typed, so
    BOOLEAN ``False`` must not collapse with INTEGER ``0``.
    """
    return (type(value).__name__, value)


def _split_ids(ids: list[int], shards: int) -> list[list[int]]:
    """Cut a sorted id list into *shards* contiguous, near-equal slices.

    Concatenating the slices in order gives back *ids*. Slices come
    back empty when there are fewer ids than shards.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(len(ids), shards)
    slices: list[list[int]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        slices.append(ids[start : start + size])
        start += size
    return slices


def _discard(sets: dict, key: object, member: int) -> None:
    """Remove *member* from ``sets[key]``, dropping the set once empty."""
    bucket = sets.get(key)
    if bucket is not None:
        bucket.discard(member)
        if not bucket:
            del sets[key]


def _bump(counts: dict, key: object, delta: int) -> None:
    """Add *delta* to ``counts[key]``, dropping the key at zero."""
    remaining = counts.get(key, 0) + delta
    if remaining > 0:
        counts[key] = remaining
    else:
        counts.pop(key, None)

class IndexLayer:
    """Incrementally maintained secondary indexes for one database."""

    #: every structure the layer stores (what snapshot() and verify() cover)
    STORED = (
        "extent", "names", "participation", "value_counts", "assoc_counts",
        "family_rids", "pattern_rids", "pattern_incidence",
    )

    def __init__(self, database: "SeedDatabase") -> None:
        self._db = database
        #: class full-name -> set of live oids of exactly that class
        self.extent: dict[str, set[int]] = {}
        #: sorted mirror of the database's independent-name index keys
        self.names: list[str] = []
        #: association element name -> (oid -> live normal-rel count at
        #: position 0, oid -> the same at position 1)
        self.participation: dict[str, tuple[dict[int, int], dict[int, int]]] = {}
        #: association element name -> live normal-rel count (incl. specials)
        self.assoc_counts: dict[str, int] = {}
        #: family root name -> live normal relationship ids
        self.family_rids: dict[str, set[int]] = {}
        #: family root name -> live pattern-context relationship ids
        self.pattern_rids: dict[str, set[int]] = {}
        #: oid -> number of live pattern-context relationships touching it
        self.pattern_incidence: dict[int, int] = {}
        #: class full-name -> value key -> live objects holding the value
        #: (covers exactly the objects the extent holds; undefined
        #: values are not counted — "undefined matches nothing")
        self.value_counts: dict[str, dict[tuple, int]] = {}
        #: True while a bulk batch defers maintenance (see suspend())
        self._suspended = False
        #: True when mutations happened while suspended (rebuild needed)
        self._stale = False

    # ------------------------------------------------------------------
    # deferred maintenance (the bulk write path)
    # ------------------------------------------------------------------

    def suspend(self) -> None:
        """Defer all incremental maintenance until :meth:`resume`.

        Mutators become no-ops that only mark the layer stale; queries
        transparently :meth:`rebuild` on first read of a stale layer.
        """
        self._suspended = True

    def resume(self) -> None:
        """End deferred maintenance; one rebuild settles all batched work."""
        self._suspended = False
        if self._stale:
            self.rebuild()

    def mark_stale(self) -> None:
        """Record that records changed without the mutators being called.

        Only ``serialize.apply_txn_delta`` does that: it wires frozen
        states in through ``bulk.wire_item_states``, so no maintenance
        hook fires and nothing else would flag the divergence; the next
        read or :meth:`resume` then rebuilds.
        """
        self._stale = True

    def _ensure_fresh(self) -> None:
        if self._stale:
            self.rebuild()

    # ------------------------------------------------------------------
    # object extent
    # ------------------------------------------------------------------

    def add_object(self, obj: "SeedObject") -> None:
        """Enter a live object into its class extent (and value stats)."""
        if self._suspended:
            self._stale = True
            return
        self.extent.setdefault(obj.entity_class.full_name, set()).add(obj.oid)
        if obj.value is not None:
            self._count_value(obj.entity_class.full_name, obj.value, +1)

    def remove_object(self, obj: "SeedObject") -> None:
        """Remove an object (tombstoned or rolled back) from its extent."""
        if self._suspended:
            self._stale = True
            return
        _discard(self.extent, obj.entity_class.full_name, obj.oid)
        if obj.value is not None:
            self._count_value(obj.entity_class.full_name, obj.value, -1)

    def move_object(
        self, obj: "SeedObject", old_class: "EntityClass", new_class: "EntityClass"
    ) -> None:
        """Re-file an object after re-classification."""
        if self._suspended:
            self._stale = True
            return
        _discard(self.extent, old_class.full_name, obj.oid)
        self.extent.setdefault(new_class.full_name, set()).add(obj.oid)
        if obj.value is not None:
            self._count_value(old_class.full_name, obj.value, -1)
            self._count_value(new_class.full_name, obj.value, +1)

    def update_value(
        self, obj: "SeedObject", old_value: object, new_value: object
    ) -> None:
        """Re-count a live object's value after ``set_value``.

        Called by the database in the same code path that flips
        ``obj.value``, mirroring the other maintained structures.
        """
        if self._suspended:
            self._stale = True
            return
        class_name = obj.entity_class.full_name
        if old_value is not None:
            self._count_value(class_name, old_value, -1)
        if new_value is not None:
            self._count_value(class_name, new_value, +1)

    def _count_value(self, class_name: str, value: object, delta: int) -> None:
        bucket = self.value_counts.setdefault(class_name, {})
        _bump(bucket, value_key(value), delta)
        if not bucket:
            del self.value_counts[class_name]

    def extent_oids(
        self, wanted: "EntityClass", include_specials: bool = True
    ) -> list[int]:
        """Sorted oids of the extent of *wanted* (rolled up when asked).

        Sorting by oid reproduces creation order, matching the order the
        seed's full scan produced.
        """
        self._ensure_fresh()
        if not include_specials:
            return sorted(self.extent.get(wanted.full_name, ()))
        result: set[int] = set()
        result.update(self.extent.get(wanted.full_name, ()))
        for special in wanted.all_specials():
            result.update(self.extent.get(special.full_name, ()))
        return sorted(result)

    def extent_shards(self, wanted: "EntityClass", shards: int) -> list[list[int]]:
        """Shard-stable partition of an extent's oids into *shards* lists.

        The sorted oid list is cut into contiguous, near-equal slices —
        concatenating the shards in order reproduces the exact scan
        order. A deterministic function of the extent contents, so
        repeated calls against unchanged data partition identically
        (shard-stable).
        """
        return _split_ids(self.extent_oids(wanted), shards)

    def family_relationship_shards(
        self, root_name: str, shards: int
    ) -> list[list[int]]:
        """Shard-stable partition of a family's relationship ids.

        Same contract as :meth:`extent_shards`, over the sorted rid list
        of :meth:`family_relationship_ids`.
        """
        return _split_ids(self.family_relationship_ids(root_name), shards)

    # ------------------------------------------------------------------
    # sorted name index
    # ------------------------------------------------------------------

    def add_name(self, name: str) -> None:
        """Mirror an insertion into the database's name index."""
        if self._suspended:
            self._stale = True
            return
        insort(self.names, name)

    def remove_name(self, name: str) -> None:
        """Mirror a removal from the database's name index."""
        if self._suspended:
            self._stale = True
            return
        position = bisect_left(self.names, name)
        if position < len(self.names) and self.names[position] == name:
            del self.names[position]

    def names_with_prefix(self, prefix: str) -> list[str]:
        """All indexed names starting with *prefix*, in sorted order.

        Two bisections against the successor bound (see
        :func:`prefix_upper_bound` — correct even for prefixes ending
        in ``U+10FFFF``, which have no same-length successor), then one
        slice: O(log n + |matches|).
        """
        self._ensure_fresh()
        low, high = self._prefix_range(prefix)
        return self.names[low:high]

    def _prefix_range(self, prefix: str) -> tuple[int, int]:
        """Half-open index range of the sorted names with *prefix*."""
        low = bisect_left(self.names, prefix)
        bound = prefix_upper_bound(prefix)
        high = (
            len(self.names)
            if bound is None
            else bisect_left(self.names, bound, lo=low)
        )
        return low, high

    # ------------------------------------------------------------------
    # relationship indexes
    # ------------------------------------------------------------------

    @staticmethod
    def _status_of(rel: "SeedRelationship") -> str:
        return PATTERN if rel.in_pattern_context else NORMAL

    def _indexed_status(self, rel: "SeedRelationship") -> Optional[str]:
        """The status *rel* is indexed under: the set that holds its rid."""
        root_name = rel.association.family_root().name
        if rel.rid in self.pattern_rids.get(root_name, ()):
            return PATTERN
        if rel.rid in self.family_rids.get(root_name, ()):
            return NORMAL
        return None

    def index_relationship(self, rel: "SeedRelationship") -> None:
        """Enter a live relationship under its current pattern status."""
        if self._suspended:
            self._stale = True
            return
        self._apply(rel, self._status_of(rel))

    def unindex_relationship(self, rel: "SeedRelationship") -> None:
        """Remove a relationship using the status it was indexed under.

        The indexed status, not one recomputed from the current flags,
        drives removal, so a removal always mirrors its insertion.
        """
        if self._suspended:
            self._stale = True
            return
        status = self._indexed_status(rel)
        if status is not None:
            self._apply(rel, status, -1)

    def refresh_relationship(
        self, rel: "SeedRelationship"
    ) -> Optional[tuple[str, str]]:
        """Re-index after a pattern-flag change; returns (old, new) or None."""
        if self._suspended:
            self._stale = True
            return None
        old_status = self._indexed_status(rel)
        new_status = self._status_of(rel)
        if old_status == new_status or old_status is None:
            return None
        self.set_relationship_status(rel, new_status)
        return (old_status, new_status)

    def set_relationship_status(self, rel: "SeedRelationship", status: str) -> None:
        """Re-index a relationship under *status* (what
        :meth:`refresh_relationship` applies)."""
        current = self._indexed_status(rel)
        if current is not None:
            self._apply(rel, current, -1)
        self._apply(rel, status)

    def _apply(self, rel: "SeedRelationship", status: str, delta: int = 1) -> None:
        """Enter (*delta* +1) or remove (-1) *rel*'s entries under *status*."""
        association = rel.association
        root_name = association.family_root().name
        rids = self.pattern_rids if status == PATTERN else self.family_rids
        if delta > 0:
            rids.setdefault(root_name, set()).add(rel.rid)
        else:
            _discard(rids, root_name, rel.rid)
        source, target = rel.endpoints()
        if status == PATTERN:
            _bump(self.pattern_incidence, source.oid, delta)
            _bump(self.pattern_incidence, target.oid, delta)
            return
        participation = self.participation
        for element in association.kinds():
            name = element.name
            _bump(self.assoc_counts, name, delta)
            maps = participation.get(name)
            if maps is None:
                maps = participation[name] = ({}, {})
            _bump(maps[0], source.oid, delta)
            _bump(maps[1], target.oid, delta)
            if not maps[0]:
                del participation[name]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def participations(self, association_name: str, oid: int, position: int) -> int:
        """O(1) participation count over live normal relationships."""
        self._ensure_fresh()
        maps = self.participation.get(association_name)
        return 0 if maps is None else maps[position].get(oid, 0)

    # ------------------------------------------------------------------
    # statistics (cost-model accessors for the query planner)
    # ------------------------------------------------------------------

    def extent_size(self, wanted: "EntityClass") -> int:
        """Number of live instances of *wanted*, specializations included,
        without materializing them (exact-class buckets are disjoint, so
        the sum of the rollup is exact)."""
        self._ensure_fresh()
        total = len(self.extent.get(wanted.full_name, ()))
        for special in wanted.all_specials():
            total += len(self.extent.get(special.full_name, ()))
        return total

    def association_size(self, element_name: str) -> int:
        """Live normal relationships of an association, specials included.

        Maintained as a counter (one increment per kind-chain element on
        index), so the planner reads cardinalities in O(1).
        """
        self._ensure_fresh()
        return self.assoc_counts.get(element_name, 0)

    def name_prefix_count(self, prefix: str) -> int:
        """Number of indexed independent names starting with *prefix*.

        Two bisections — O(log n), no list materialization — since the
        planner re-estimates on every optimize/execute/explain. The
        exclusive upper bound is the successor string of the prefix
        (:func:`prefix_upper_bound`), which handles trailing
        ``U+10FFFF`` code points by stripping them; a prefix of only
        maximum code points has no successor and counts to the end of
        the list.
        """
        self._ensure_fresh()
        low, high = self._prefix_range(prefix)
        return high - low

    def name_count(self) -> int:
        """Number of indexed independent names (what a prefix count is
        a fraction of)."""
        self._ensure_fresh()
        return len(self.names)

    def total_objects(self) -> int:
        """All live objects across every extent bucket (O(#classes))."""
        self._ensure_fresh()
        return sum(len(bucket) for bucket in self.extent.values())

    def value_histogram(
        self, wanted: "EntityClass"
    ) -> tuple[list[tuple[tuple, int]], int, int]:
        """Top-K + remainder view of the defined-value distribution of
        *wanted* and its specializations.

        Returns ``(top, remainder_count, remainder_distinct)`` where
        *top* holds the :data:`TOP_K` most frequent ``(value key,
        count)`` pairs (count-descending, key-ascending for
        determinism) and the
        remainder buckets summarize everything else. Full ranked view
        (O(distinct · log distinct)) for introspection and tests; the
        planner asks :meth:`value_frequency`, which answers
        single-value questions exactly from the maintained counters.
        """
        self._ensure_fresh()
        merged: dict[tuple, int] = {}
        for element in (wanted, *wanted.all_specials()):
            for key, count in self.value_counts.get(element.full_name, {}).items():
                merged[key] = merged.get(key, 0) + count
        ranked = sorted(merged.items(), key=lambda item: (-item[1], repr(item[0])))
        top = ranked[:TOP_K]
        rest = ranked[TOP_K:]
        return top, sum(count for __, count in rest), len(rest)

    def value_frequency(self, wanted: "EntityClass", value: object) -> float:
        """Live objects of *wanted* or its specializations holding
        *value*: the maintained count, exact (0.0 for a value never
        seen), one hash lookup per class of the rollup. The planner
        calls this per Select estimate and the plan cache on every
        hit."""
        self._ensure_fresh()
        key = value_key(value)
        count = self.value_counts.get(wanted.full_name, {}).get(key, 0)
        for special in wanted.all_specials():
            count += self.value_counts.get(special.full_name, {}).get(key, 0)
        return float(count)

    def total_value_frequency(self, value: object) -> float:
        """:meth:`value_frequency` over every class (untraceable columns)."""
        self._ensure_fresh()
        key = value_key(value)
        return float(sum(bucket.get(key, 0) for bucket in self.value_counts.values()))

    def defined_count(self, wanted: "EntityClass") -> int:
        """Live objects of *wanted* or its specializations holding any
        defined value.

        Sums the class buckets directly — no merged-dict allocation,
        since the planner calls this per Select estimate.
        """
        self._ensure_fresh()
        total = sum(self.value_counts.get(wanted.full_name, {}).values())
        for special in wanted.all_specials():
            total += sum(self.value_counts.get(special.full_name, {}).values())
        return total

    def distinct_participants(
        self, element_name: str, position: Optional[int] = None
    ) -> int:
        """Distinct live oids participating in an association element.

        With a *position* the count is exact (the size of that
        position's participation map); without one the sum over both
        positions is an upper bound (an object bound at both ends is
        counted twice).
        """
        self._ensure_fresh()
        maps = self.participation.get(element_name)
        if maps is None:
            return 0
        if position is not None:
            return len(maps[position])
        return len(maps[0]) + len(maps[1])

    def pattern_influenced(self, obj: "SeedObject") -> bool:
        """True when *obj*'s effective structure may diverge from counters."""
        self._ensure_fresh()
        return bool(obj.inherited_patterns) or (
            self.pattern_incidence.get(obj.oid, 0) > 0
        )

    def normal_edges(self, root_name: str) -> Iterator[tuple[int, int]]:
        """Edges of a family's normal relationships, with multiplicity
        (in no particular order: the ACYCLIC check sorts)."""
        self._ensure_fresh()
        relationships = self._db._relationships  # noqa: SLF001
        ends = (
            relationships[rid].endpoints()
            for rid in self.family_rids.get(root_name, ())
        )
        return ((source.oid, target.oid) for source, target in ends)

    def successors(self, root_name: str, node: int) -> Iterator[int]:
        """Distinct normal-edge successors of *node* in a family graph.

        The family's normal relationships among the node's incident
        ones that bind it at position 0: O(degree).
        """
        self._ensure_fresh()
        family = self.family_rids.get(root_name, ())
        relationships = self._db._relationships  # noqa: SLF001
        found: set[int] = set()
        for rid in self._db._incidence.get(node, ()):  # noqa: SLF001
            if rid in family:
                source, target = relationships[rid].endpoints()
                if source.oid == node:
                    found.add(target.oid)
        return iter(found)

    def pattern_relationships(self, root_name: str) -> list["SeedRelationship"]:
        """Live pattern-context relationships of a family, by rid order."""
        self._ensure_fresh()
        return [
            self._db._relationships[rid]
            for rid in sorted(self.pattern_rids.get(root_name, ()))
        ]

    def family_relationship_ids(self, root_name: str) -> list[int]:
        """All live relationship ids of a family (normal and pattern)."""
        self._ensure_fresh()
        rids = self.family_rids.get(root_name, set()) | self.pattern_rids.get(
            root_name, set()
        )
        return sorted(rids)

    def family_size(self, root_name: str) -> int:
        """How many ids :meth:`family_relationship_ids` returns, in O(1).

        The rows an association scan reads whichever member of the
        family it asks for: a relationship is indexed under exactly one
        of the two statuses, so the sets are disjoint.
        """
        self._ensure_fresh()
        return len(self.family_rids.get(root_name, ())) + len(
            self.pattern_rids.get(root_name, ())
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every structure from the raw records.

        Called after bulk state replacement (version selection, schema
        migration, image load, checkout) where incremental maintenance
        is impossible or family roots may have changed, and by
        :meth:`_ensure_fresh` when a suspended layer is read mid-batch.
        One pass over the objects and one over the relationships; an
        association's family root and kind-chain names are looked up
        once, not per relationship. The per-item hooks are not replayed,
        so :meth:`verify` compares two independent derivations.
        """
        db = self._db
        extent: dict[str, set[int]] = {}
        value_counts: dict[str, dict[tuple, int]] = {}
        for obj in db.all_objects_raw():
            if obj.deleted:
                continue
            class_name = obj.entity_class.full_name
            bucket = extent.get(class_name)
            if bucket is None:
                bucket = extent[class_name] = set()
            bucket.add(obj.oid)
            if obj.value is not None:
                counts = value_counts.setdefault(class_name, {})
                key = value_key(obj.value)
                counts[key] = counts.get(key, 0) + 1
        participation: dict[str, tuple[dict[int, int], dict[int, int]]] = {}
        family_rids: dict[str, set[int]] = {}
        pattern_rids: dict[str, set[int]] = {}
        pattern_incidence: dict[int, int] = {}
        facts: dict[int, tuple[str, tuple[str, ...]]] = {}
        for rel in db.all_relationships_raw():
            if rel.deleted:
                continue
            association = rel.association
            fact = facts.get(id(association))
            if fact is None:
                fact = facts[id(association)] = (
                    association.family_root().name,
                    tuple(element.name for element in association.kinds()),
                )
            root_name, element_names = fact
            source, target = rel.endpoints()
            if rel.in_pattern_context:
                pattern_rids.setdefault(root_name, set()).add(rel.rid)
                for oid in (source.oid, target.oid):
                    pattern_incidence[oid] = pattern_incidence.get(oid, 0) + 1
                continue
            family_rids.setdefault(root_name, set()).add(rel.rid)
            for name in element_names:
                maps = participation.get(name)
                if maps is None:
                    maps = participation[name] = ({}, {})
                at_source, at_target = maps
                at_source[source.oid] = at_source.get(source.oid, 0) + 1
                at_target[target.oid] = at_target.get(target.oid, 0) + 1
        self.extent = extent
        self.value_counts = value_counts
        self.names = sorted(db._name_index)  # noqa: SLF001
        self.participation = participation
        # every normal relationship counts once per kind-chain element
        # at position 0, so an element's size is that map's total
        self.assoc_counts = {
            name: sum(maps[0].values()) for name, maps in participation.items()
        }
        self.family_rids = family_rids
        self.pattern_rids = pattern_rids
        self.pattern_incidence = pattern_incidence
        self._stale = False

    def snapshot(self) -> dict:
        """Deep copy of every stored structure (for rollback-identity tests)."""
        self._ensure_fresh()
        return {field: copy.deepcopy(getattr(self, field)) for field in self.STORED}

    def verify(self) -> None:
        """Check the mirror invariant: indexes equal a fresh rebuild.

        Raises :class:`AssertionError` on a divergence — explicitly, so
        the check also runs under ``python -O``.
        """
        self._ensure_fresh()
        reference = IndexLayer(self._db)
        reference.rebuild()
        for field in self.STORED:
            maintained, rebuilt = getattr(self, field), getattr(reference, field)
            if maintained != rebuilt:
                raise AssertionError(
                    f"index {field!r} diverged from the raw records:\n"
                    f"  maintained: {maintained!r}\n"
                    f"  rebuilt:    {rebuilt!r}"
                )


# ----------------------------------------------------------------------
# brute-force reference implementations (seed semantics, kept verbatim)
# ----------------------------------------------------------------------


def brute_objects(
    db: "SeedDatabase",
    class_name: Optional[str] = None,
    *,
    include_specials: bool = True,
    include_patterns: bool = False,
    independent_only: bool = False,
) -> list["SeedObject"]:
    """The seed's full-scan ``objects()`` — the reference the index must match."""
    wanted = db.schema.entity_class(class_name) if class_name else None
    results = []
    for obj in db.all_objects_raw():
        if obj.deleted:
            continue
        if obj.in_pattern_context and not include_patterns:
            continue
        if independent_only and obj.parent is not None:
            continue
        if wanted is not None:
            if include_specials:
                if not obj.entity_class.is_kind_of(wanted):
                    continue
            elif obj.entity_class is not wanted:
                continue
        results.append(obj)
    return results


def brute_relationships(
    db: "SeedDatabase",
    association: Optional[str] = None,
    *,
    include_specials: bool = True,
    include_patterns: bool = False,
) -> list["SeedRelationship"]:
    """The seed's full-scan ``relationships()`` — reference implementation."""
    wanted = db.schema.association(association) if association else None
    results = []
    for rel in db.all_relationships_raw():
        if rel.deleted:
            continue
        if rel.in_pattern_context and not include_patterns:
            continue
        if wanted is not None:
            if include_specials:
                if not rel.association.is_kind_of(wanted):
                    continue
            elif rel.association is not wanted:
                continue
        results.append(rel)
    return results
