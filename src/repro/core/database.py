"""The SEED database: the operational interface of the paper's prototype.

"SEED has been designed to support the data management tasks of software
development tools. Hence, SEED has an operational interface that
consists of a set of procedures. The SEED prototype provides the
procedures for data creation, update, and simple retrieval by name."

:class:`SeedDatabase` is that interface, extended with the paper's
version, pattern, and completeness operations:

* creation: :meth:`create_object`, :meth:`create_sub_object`,
  :meth:`relate`;
* update: :meth:`set_value`, :meth:`set_attribute`, :meth:`delete`,
  :meth:`reclassify`, :meth:`rename`;
* retrieval by name: :meth:`find_object`, :meth:`get_object`,
  :meth:`objects`, :meth:`relationships`, :meth:`navigate`;
* consistency: every update is checked against the consistency half of
  the schema; a violating update is rolled back and reported via
  :class:`~repro.core.errors.ConsistencyError`. :meth:`transaction`
  groups several updates into one check-then-commit unit (needed e.g. to
  reclassify an object and its relationship together);
* completeness: :meth:`check_completeness` / :meth:`require_complete`;
* versions: :meth:`create_version`, :meth:`select_version`,
  :meth:`version_view`, :meth:`delete_version`, :attr:`history`;
* patterns: :meth:`mark_pattern`, :meth:`inherit`, :meth:`uninherit`;
* schema evolution: :meth:`migrate_schema` (generates a schema version).

All mutation funnels through the private ``_operation`` context so that
dirty tracking (delta versioning), consistency validation and rollback
happen uniformly.

Units of work and rollback
--------------------------

Every update runs in a unit of work: a single operation, an explicit
:meth:`transaction`, or a :meth:`bulk` batch. There is one way to roll
a unit back. Before an operation first changes an item that existed
when the unit began, the unit logs the item's ``freeze()`` — its
before-image — once; an item the unit created logs nothing. Items
touched only so that commit re-validates them (a parent that gains a
sub-object, the endpoints of a deleted relationship) are not logged
either. Rollback drops each created item and thaws each before-image
back onto the same record, so held handles stay valid, repairing only
the derived state of those items (name index, child lists, incidence,
inherits links, index entries, and the index status of relationships
whose pattern context a restored flag decides). Its cost is O(items
touched); it rebuilds no index.

An operation that raises before changing anything (an argument or
lookup check) leaves its unit usable. One that raises after changing
state *poisons* the unit, even if the caller swallows the error: the
unit then rolls back whole at its end and raises
:class:`~repro.core.errors.TransactionError`.

Bulk operations
---------------

:meth:`SeedDatabase.bulk` opens a **deferred-maintenance batch**: for
its duration, per-mutation index maintenance, incremental ACYCLIC
checks, and completeness dirty fan-out are suspended; the batch
finalizes with one-shot work instead — a single index rebuild from the
final state, one validation pass over the touched items (one full
cycle check per touched ACYCLIC family), and a single set-union
completeness merge. Semantics:

* **atomicity** — like any unit: an exception escaping the batch body,
  a validation failure at finalize, or a poisoned batch rolls the whole
  batch back in place;
* **mid-batch reads** see all batch mutations so far; index-backed
  queries transparently rebuild once per write-then-read boundary, and
  ``check_completeness`` derives every item afresh on the compiled
  rules;
* **restrictions** — versions, compaction, and schema migration cannot
  run inside a batch; an explicit :meth:`transaction` inside a batch
  adds no boundary (its validation is the batch's);
* **allocation** — the batch's log keeps one entry per touched item:
  its tags are one of a few interned frozensets, and its key tuple is
  the object the dirty set holds too. The rollback log of dirty keys
  names only items that existed before the batch; rollback drops the
  keys of created items by their ``"create"`` tag;
* **collector pause** — Python's cyclic garbage collector is disabled
  while the batch is open and restored on every exit. The batch only
  grows the heap, so a collection inside it would rescan all it has
  built and free nothing; what a large committed batch built is then
  aged without a walk (:mod:`repro.core.bulk`). The pause is
  process-wide: it holds for every thread until the batch ends.

Prefer ``bulk()`` whenever many items are written before the next read
barrier: ingest and workload population. For a handful of mutations
the per-item path is cheaper — the batch pays a full index rebuild.

There is one way to create an item inside a batch, the same as outside
it: :meth:`create_object`, :meth:`create_sub_object`, :meth:`relate`.
:meth:`SeedDatabase.bulk_load` is a convenience walker over exactly
those — it opens one batch and feeds nested spec mappings to the public
mutators, constructing no record itself. The only code that bypasses
the mutators builds records *from frozen states*, through
:func:`repro.core.bulk.wire_item_states` (image load, checkout, restore
and journal replay).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from repro.core.bulk import load_item_states, long_lived
from repro.core.completeness import CompletenessEngine, CompletenessReport
from repro.core.consistency import ConsistencyEngine, Violation
from repro.core.errors import (
    CompletenessError,
    ConsistencyError,
    PatternError,
    SchemaError,
    SeedError,
    TransactionError,
)
from repro.core.identifiers import DottedName, check_simple_name
from repro.core.indexes import IndexLayer
from repro.core.objects import SeedObject
from repro.core.patterns import PatternManager, pattern_root
from repro.core.relationships import SeedRelationship
from repro.core.schema.generalization import check_reclassification
from repro.core.schema.schema import Schema
from repro.core.versions.compaction import CompactionStats, RetentionPolicy
from repro.core.versions.history import HistoryNavigator
from repro.core.versions.manager import VersionManager
from repro.core.versions.store import ItemKey
from repro.core.versions.version_id import VersionId
from repro.core.versions.view import VersionView

__all__ = ["SeedDatabase"]

Item = Union[SeedObject, SeedRelationship]


class _Transaction:
    """Bookkeeping for one unit of work: a single operation, an explicit
    transaction, or a bulk batch (see "Units of work and rollback")."""

    __slots__ = (
        "before", "next_id", "changes", "failed",
        "touched", "dirty_added", "force_acyclic", "structural",
    )

    def __init__(self, next_id: int) -> None:
        #: the before-image log: item key -> (item, its state when the
        #: unit first changed it), for items that existed when the unit
        #: began; the items it created are the "create"-tagged entries
        #: of :attr:`touched`
        self.before: dict[ItemKey, tuple[Item, Any]] = {}
        #: the database's id counter when the unit began
        self.next_id = next_id
        #: state changes made so far (compared across one operation to
        #: tell whether it raised before or after changing anything)
        self.changes = 0
        #: set when an operation raised after changing state: the unit
        #: can then only roll back whole
        self.failed = False
        #: item key -> (item, the operations applied to it): an interned
        #: ``frozenset`` shared by every item with the same tags
        self.touched: dict[ItemKey, tuple[Item, frozenset[str]]] = {}
        #: keys of items that existed when the unit began and that it
        #: added to the dirty set; rollback drops these and the keys of
        #: the items it created ("create"-tagged in :attr:`touched`)
        self.dirty_added: set[ItemKey] = set()
        #: family root name -> association whose ACYCLIC condition needs
        #: a full re-check (edges appeared outside plain relationship
        #: creation: pattern inheritance or un-marking a pattern)
        self.force_acyclic: dict[str, Any] = {}
        #: keys whose touch changed *structure* visible to pattern
        #: inheritors even though the operation tag is only "update"
        #: (mark/unmark pattern, inherit links) — the completeness
        #: engine uses this to narrow its inheritor dirty fan-out
        self.structural: set[ItemKey] = set()

    def keep(self, item: Item) -> None:
        """Log *item*'s before-image the first time the unit changes it;
        call it just before the change. An item the unit created logs
        nothing: rollback drops it."""
        self.changes += 1
        key = _key_of(item)
        if key not in self.before:
            entry = self.touched.get(key)
            if entry is None or "create" not in entry[1]:
                self.before[key] = (item, item.freeze())

    def touch(self, item: Item, operation: str) -> ItemKey:
        """Queue *item* for validation at commit; tag ``"create"`` when
        the unit just created it. Returns the item's key — the object
        stored in :attr:`touched` when this call made the entry — for
        the caller to hand on to the dirty set."""
        key = _key_of(item)
        touched = self.touched
        entry = touched.get(key)
        if entry is None:
            touched[key] = (item, _TAGGED[_NO_TAGS, operation])
        elif operation not in entry[1]:
            touched[key] = (item, _TAGGED[entry[1], operation])
        if operation == "create":
            self.changes += 1
        return key


class _Operation:
    """The context of one primitive update (see
    ``SeedDatabase._operation``): a plain class, not a generator, since
    every mutator call enters one."""

    __slots__ = ("db", "what", "unit", "joined_at")

    def __init__(self, db: "SeedDatabase", what: str) -> None:
        self.db = db
        self.what = what

    def __enter__(self) -> _Transaction:
        db = self.db
        db._writes += 1
        unit = db._txn or db._bulk
        if unit is None:
            unit = db._txn = _Transaction(db._next_id)
            self.joined_at = None  # this operation owns the unit
        else:
            self.joined_at = unit.changes
        self.unit = unit
        return unit

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        unit, db = self.unit, self.db
        if self.joined_at is not None:
            if exc_type is not None and unit.changes != self.joined_at:
                unit.failed = True
        elif exc_type is not None:
            db._txn = None
            db._rollback(unit)
        else:
            db._commit(unit, self.what)
        return False


#: the operation names a unit tags a touched item with
_OPERATIONS = ("create", "update", "delete", "reclassify")
_NO_TAGS: frozenset[str] = frozenset()


def _tag_table() -> dict[tuple[frozenset[str], str], frozenset[str]]:
    """(tags, operation) -> the one frozenset holding both, for every
    combination of :data:`_OPERATIONS`."""
    tag_sets = [_NO_TAGS]
    for operation in _OPERATIONS:
        tag_sets += [tags | {operation} for tags in tag_sets]
    interned = {tags: tags for tags in tag_sets}
    return {
        (tags, operation): interned[tags | {operation}]
        for tags in tag_sets
        for operation in _OPERATIONS
    }


#: interned tag sets: a batch log holds a handful of shared frozensets,
#: not one set per item
_TAGGED = _tag_table()


def _key_of(item: Item) -> ItemKey:
    if isinstance(item, SeedObject):
        return ("o", item.oid)
    return ("r", item.rid)


#: the keys a ``bulk_load`` spec of each kind may carry
_SPEC_KEYS = {
    "object": {"class", "name", "value", "pattern", "sub_objects"},
    "sub-object": {"role", "value", "index", "sub_objects"},
    "relationship": {"association", "bindings", "attributes", "pattern"},
}


def _check_spec_keys(spec: dict, what: str) -> None:
    """Reject a ``bulk_load`` spec of kind *what* carrying unknown keys."""
    unknown = spec.keys() - _SPEC_KEYS[what]
    if unknown:
        raise SeedError(f"unknown {what} spec keys: {sorted(unknown)}")


def _consistency_error(headline: str, violations: list[Violation]) -> ConsistencyError:
    """*headline*, then one line per violation — the one such format."""
    return ConsistencyError(
        f"{headline}:\n  "
        + "\n  ".join(str(violation) for violation in violations),
        violations,
    )


class SeedDatabase:
    """A single-user SEED database over a fixed (but evolvable) schema."""

    def __init__(self, schema: Schema, name: str = "db") -> None:
        schema.check()
        self.schema = schema
        self.name = name
        self._objects: dict[int, SeedObject] = {}
        self._relationships: dict[int, SeedRelationship] = {}
        self._name_index: dict[str, int] = {}
        self._incidence: dict[int, list[int]] = {}
        self._next_id = 1
        self._dirty: set[ItemKey] = set()
        self._txn: Optional[_Transaction] = None
        self._bulk: Optional[_Transaction] = None
        #: the change-capture seam: a callable ``(kind, payload)`` fed
        #: every committed mutation, typed by kind —
        #:
        #: * ``"txn"`` — a committed transaction (payload: the
        #:   ``_Transaction``), fired after validation and completeness
        #:   bookkeeping succeed, before control returns to the caller;
        #:   rolled-back transactions never reach the sink;
        #: * ``"schema"`` — a completed :meth:`migrate_schema` (payload:
        #:   ``(new_schema, schema_version_index)``);
        #: * ``"restore"`` — a completed :meth:`select_version`
        #:   (payload: the base moved to; ``None`` only when replay
        #:   re-runs a raw restore an earlier build journaled);
        #: * ``"version"`` / ``"delete_version"`` — a completed
        #:   :meth:`create_version` / :meth:`delete_version` (payload:
        #:   the :class:`VersionId`);
        #: * ``"compact"`` — a :meth:`compact` pass that changed
        #:   something (payload: the resolved ``RetentionPolicy``).
        #:
        #: A journal-bound database (:class:`~repro.core.storage.engine.
        #: JournaledDatabase`) hooks this to append one write-ahead
        #: record per event, making *every* committed mutation —
        #: transactional or not — durable at O(change).
        self._change_sink: Optional[Any] = None
        #: called with the key of every item whose state may have been
        #: written: each key a unit of work touched, committed or rolled
        #: back (before the change sink hears of a commit), each item
        #: :func:`~repro.core.bulk.wire_item_states` thawed, and each
        #: item a restore dropped. None unless a journal's image
        #: fragments, a server's publication or a local copy's check-in
        #: package follow item states
        self._state_sink: Optional[Callable[[ItemKey], None]] = None
        #: goes up wherever live item state may change: on entry to every
        #: primitive update, in every rollback and record drop, in
        #: ``wire_item_states`` and every schema binding. Equal values mean
        #: an unchanged database (the process scan pool's snapshot key,
        #: and the guard of :attr:`_committed`)
        self._writes = 0
        #: ``(_writes, {key: state})``: the states the last commit's
        #: journal record froze (:meth:`keep_committed_states`), and the
        #: value of :attr:`_writes` they were frozen at. While it has not
        #: moved they are the live states, and the next
        #: :meth:`collect_dirty_states` takes them instead of freezing
        #: again. None without a journal, and after a version took them
        self._committed: Optional[tuple[int, dict[ItemKey, Any]]] = None
        self.indexes = IndexLayer(self)
        self.consistency = ConsistencyEngine(self)
        self.completeness = CompletenessEngine(self)
        self.patterns = PatternManager(self)
        self.versions = VersionManager(self)
        self.history = HistoryNavigator(self.versions)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while an explicit transaction is open."""
        return self._txn is not None

    @contextmanager
    def transaction(self) -> Iterator[_Transaction]:
        """Group updates; consistency is checked once, at commit.

        On any exception leaving the body, when an update inside it
        raised after changing state (even if the body swallowed the
        error: the commit then raises :class:`TransactionError`), or
        when the combined result violates consistency, *all* updates of
        the transaction are rolled back. The paper's refinement example
        needs this: re-classifying ``Alarms`` to ``OutputData`` and its
        ``Access`` relationship to ``Write`` is only consistent as a
        unit.

        Inside a :meth:`bulk` batch an explicit transaction adds no
        boundary of its own: its updates join the batch, and validation
        happens once at batch finalize.
        """
        if self._txn is not None:
            raise TransactionError("transactions cannot be nested")
        with self._operation("transaction") as txn:
            yield txn

    @contextmanager
    def bulk(self) -> Iterator[_Transaction]:
        """Open a deferred-maintenance batch (see "Bulk operations").

        Per-mutation index maintenance, incremental ACYCLIC checks, and
        completeness fan-out are suspended until the batch ends;
        finalize then rebuilds the indexes once, validates every
        touched item once (one full cycle check per touched ACYCLIC
        family), and merges the completeness dirty set in one union.
        Any failure — an exception leaving the body, a swallowed error
        of an update that had changed state, or a validation violation
        — rolls the whole batch back in place.

        While the batch is open, finalize and rollback included, the
        cyclic garbage collector is paused, process-wide, and a large
        committed batch's records are then aged, not walked (the
        collector rule, :func:`repro.core.bulk.long_lived`). On every
        exit the collector is left as the batch found it.
        """
        if self._txn is not None:
            raise TransactionError(
                "cannot open a bulk batch inside a transaction"
            )
        if self._bulk is not None:
            raise TransactionError("bulk batches cannot be nested")
        with long_lived():
            txn = self._bulk = _Transaction(self._next_id)
            self.indexes.suspend()
            try:
                yield txn
            except BaseException:
                self._bulk = None
                self.indexes.resume()
                self._rollback(txn)
                raise
            self._bulk = None
            self._finalize_bulk(txn)

    def _finalize_bulk(self, txn: _Transaction) -> None:
        """One-shot index rebuild, then the batch ends like any unit."""
        self.indexes.resume()
        self._commit(txn, "bulk batch", batched=True)

    def bulk_load(
        self,
        objects: Iterable[dict] = (),
        relationships: Iterable[dict] = (),
    ) -> dict[str, SeedObject]:
        """Create many items in one :meth:`bulk` batch.

        A walker over the operational interface: every spec becomes
        calls to :meth:`create_object` / :meth:`set_value` /
        :meth:`create_sub_object` / :meth:`relate`, in spec order (an
        object, its sub-tree depth-first, then the relationships), so
        ids, errors and the resulting state are those of entering the
        same data by hand inside ``bulk()``.

        *objects* are mappings with ``class`` and ``name`` keys and
        optional ``value``, ``pattern``, and ``sub_objects`` (a list of
        mappings with ``role`` and optional ``value``/``sub_objects``,
        nested recursively). *relationships* are mappings with
        ``association`` and ``bindings`` (role → object name or
        :class:`SeedObject`) and optional ``attributes``/``pattern``.
        Both may be lazy iterators — specs are consumed one at a time.

        Returns the created independent objects by name. The whole load
        is atomic: any error rolls everything back.
        """
        created: dict[str, SeedObject] = {}

        def load_subs(parent: SeedObject, specs: Iterable[dict]) -> None:
            for spec in specs:
                _check_spec_keys(spec, "sub-object")
                child = self.create_sub_object(
                    parent, spec["role"], spec.get("value"),
                    index=spec.get("index"),
                )
                load_subs(child, spec.get("sub_objects") or ())

        def resolve(target: Union[str, SeedObject]) -> SeedObject:
            if isinstance(target, SeedObject):
                return target
            return created.get(target) or self.get_object(
                target, include_patterns=True
            )

        with self.bulk():
            for spec in objects:
                _check_spec_keys(spec, "object")
                obj = created[spec["name"]] = self.create_object(
                    spec["class"], spec["name"],
                    pattern=spec.get("pattern", False),
                )
                if spec.get("value") is not None:
                    self.set_value(obj, spec["value"])
                load_subs(obj, spec.get("sub_objects") or ())
            for spec in relationships:
                _check_spec_keys(spec, "relationship")
                self.relate(
                    spec["association"],
                    {r: resolve(t) for r, t in spec["bindings"].items()},
                    attributes=spec.get("attributes"),
                    pattern=spec.get("pattern", False),
                )
        return created

    def _operation(self, what: str = "update") -> "_Operation":
        """One primitive update: immediate check unless inside a unit.

        An explicit :meth:`transaction` is the same unit under another
        name (*what* only words the violation message).

        Inside an open transaction or bulk batch that unit is handed
        out and nothing is validated here. An update that raises after
        changing state poisons the unit, which then rolls back whole at
        its end even if the caller swallows the error.
        """
        return _Operation(self, what)

    def _commit(
        self, txn: _Transaction, what: str, *, batched: bool = False
    ) -> None:
        """End *txn*: roll back and raise if it is poisoned or violates
        consistency, else publish it. A *batched* unit (a bulk batch)
        checks ACYCLIC families whole and merges completeness at once."""
        self._txn = None
        if txn.failed:
            self._rollback(txn)
            raise TransactionError(
                f"an update inside the {what} raised after changing state; "
                f"the whole {what} was rolled back"
            )
        violations = self._validate(txn, batched_acyclic=batched)
        if violations:
            self._rollback(txn)
            raise _consistency_error(f"{what} violates consistency", violations)
        if batched and len(txn.touched) * 2 >= len(self._objects) + len(
            self._relationships
        ):
            # the batch touched most of the database: re-priming at the
            # next check costs the same as re-deriving a near-total
            # dirty set, so skip the per-key merge entirely
            self.completeness.invalidate()
        else:
            self.completeness.note_commit(txn.touched, txn.structural)
        self._notify_commit(txn)

    def _notify_commit(self, txn: _Transaction) -> None:
        """Hand a committed transaction to the change sink (if bound).

        Runs after the commit is fully applied in memory; a no-op
        commit (nothing touched) emits nothing.
        """
        self._report_touched(txn)
        if txn.touched:
            self._emit_change("txn", txn)

    def _emit_change(self, kind: str, payload: Any) -> None:
        """Feed one committed mutation to the change-capture seam.

        Every event fires *after* its mutation is fully applied in
        memory; the sink's durability failure (e.g. a journal append
        error) propagates to the caller but does not unwind the
        in-memory change — the caller knows the change is live but not
        yet durable.
        """
        sink = self._change_sink
        if sink is not None:
            sink(kind, payload)

    def _report_touched(self, txn: _Transaction) -> None:
        """Hand every key *txn* touched to the state sink (if bound)."""
        sink = self._state_sink
        if sink is not None:
            for key in txn.touched:
                sink(key)

    def _rollback(self, txn: _Transaction) -> None:
        """Undo *txn* in place from its before-image log.

        Every item the unit created is dropped: its derived entries are
        withdrawn and its record unregistered. Every logged item has its
        entries withdrawn while it still holds its current state, its
        before-image thawed back onto the same record, and its entries
        re-entered. Relationships whose pattern context a restored flag
        decides are re-indexed as the forward path did. O(items the
        unit touched); the index layer must be live (not suspended).
        """
        self._writes += 1
        dirty = self._dirty
        for key, (item, operations) in txn.touched.items():
            if "create" in operations:
                self._drop_record(item)
                dirty.discard(key)
        restored = []
        for item, state in txn.before.values():
            self._withdraw(item)
            restored.append((item, state, item.is_pattern))
        for item, state, __ in restored:
            item.thaw(state)
        for item, __, was_pattern in restored:
            self._enter(item)
            if isinstance(item, SeedObject) and item.is_pattern != was_pattern:
                self._refresh_pattern_status(item)
        self._next_id = txn.next_id
        dirty -= txn.dirty_added
        self._report_touched(txn)

    def _enter(self, item: Item) -> None:
        """Enter a live item's derived entries: its index-layer entries
        and, for an object, its name (if independent) and its inherits
        links."""
        if item.deleted:
            return
        if isinstance(item, SeedRelationship):
            self.indexes.index_relationship(item)
            return
        self.indexes.add_object(item)
        if item.parent is None:
            self._name_index[item.simple_name] = item.oid
            self.indexes.add_name(item.simple_name)
        for pattern_oid in item.inherited_patterns:
            self.patterns.register_inheritance(pattern_oid, item.oid)

    def _withdraw(self, item: Item) -> None:
        """The inverse of :meth:`_enter`, from the item's current state."""
        if item.deleted:
            return
        if isinstance(item, SeedRelationship):
            self.indexes.unindex_relationship(item)
            return
        self.indexes.remove_object(item)
        if item.parent is None:
            del self._name_index[item.simple_name]
            self.indexes.remove_name(item.simple_name)
        for pattern_oid in item.inherited_patterns:
            self.patterns.unregister_inheritance(pattern_oid, item.oid)

    def _drop_record(self, item: Item) -> None:
        """Withdraw an item's entries and drop its record: a created
        item on rollback, a dead one in tombstone collection."""
        self._writes += 1
        self._withdraw(item)
        if isinstance(item, SeedObject):
            del self._objects[item.oid]
            if item.parent is not None:
                item.parent._detach_child(item)
            return
        del self._relationships[item.rid]
        for obj in item.bound_objects():
            incident = self._incidence[obj.oid]
            incident.remove(item.rid)
            if not incident:
                del self._incidence[obj.oid]

    def _mark_dirty(self, txn: _Transaction, key: ItemKey) -> None:
        """Add *key* — as :meth:`_Transaction.touch` returned it — to
        the dirty set, logging it for rollback unless the unit created
        the item (rollback drops created keys by their tag)."""
        dirty = self._dirty
        if key not in dirty:
            dirty.add(key)
            if "create" not in txn.touched[key][1]:
                txn.dirty_added.add(key)

    # ------------------------------------------------------------------
    # validation at commit
    # ------------------------------------------------------------------

    def _validate(
        self, txn: _Transaction, *, batched_acyclic: bool = False
    ) -> list[Violation]:
        violations: list[Violation] = []
        checked_objects: set[int] = set()
        # ACYCLIC families needing a full graph check (virtual edges may
        # have appeared: pattern inheritance, un-marking a pattern, or a
        # pattern relationship was touched)
        acyclic_roots: dict[str, Any] = dict(txn.force_acyclic)
        # newly created plain edges: checked incrementally by
        # reachability from the edge's target instead of a full DFS.
        # Bulk batches (``batched_acyclic``) skip the per-edge probes:
        # with many edges per family one DFS over the whole family
        # graph is cheaper than one reachability walk per edge
        new_edges: dict[str, tuple[Any, list[tuple[int, int]]]] = {}
        # attached procedures fire per (item, operation); a bulk batch
        # amortizes one schema walk to skip the dispatch entirely when
        # no element declares any (per-item commits touch too few items
        # for the walk to pay for itself, so they always dispatch)
        run_procedures = not batched_acyclic or self._schema_has_procedures()
        for key, (item, operations) in txn.touched.items():
            if isinstance(item, SeedObject):
                self._validate_objects((item,), checked_objects, violations)
            else:
                violations.extend(self.consistency.validate_relationship(item))
                self._validate_objects(item.endpoints(), checked_objects, violations)
                association = item.association
                if (
                    not item.deleted
                    and "create" in operations
                    and association.effective_acyclic()
                ):
                    # deletions only remove edges; attribute updates and
                    # re-classification keep the edge graph unchanged
                    # (endpoints are positional and families are closed
                    # under re-classification), so only creations can
                    # introduce a cycle through plain relationships
                    root = association.family_root()
                    if (
                        batched_acyclic
                        or item.in_pattern_context
                        or not getattr(root, "acyclic", False)
                    ):
                        # pattern expansion, or ACYCLIC declared below
                        # the family root: edges of unconstrained family
                        # members may predate this transaction unchecked,
                        # so the incremental premise (graph acyclic
                        # before the transaction) does not hold — run
                        # the full graph check
                        acyclic_roots[root.name] = association
                    else:
                        entry = new_edges.setdefault(root.name, (association, []))
                        entry[1].append(
                            (item.bound_at(0).oid, item.bound_at(1).oid)
                        )
            if run_procedures:
                for operation in operations:
                    violations.extend(
                        self.consistency.run_attached_procedures(item, operation)
                    )
        for association in acyclic_roots.values():
            violations.extend(self.consistency.validate_acyclic(association))
        for root_name, (association, edges) in new_edges.items():
            if root_name in acyclic_roots:
                continue  # the full check above already covered the family
            violations.extend(
                self.consistency.validate_new_edges(association, edges)
            )
        return violations

    def _validate_objects(
        self, objects: Iterable[SeedObject], checked: set[int], violations: list
    ) -> None:
        """Validate each of *objects* not yet in *checked*; pattern
        content is validated in the context of each inheritor."""
        for obj in objects:
            if obj.oid in checked:
                continue
            checked.add(obj.oid)
            if not obj.in_pattern_context:
                violations.extend(self.consistency.validate_object(obj))
            elif not obj.deleted:
                inheritors = self.patterns.inheritors_of(pattern_root(obj))
                self._validate_objects(inheritors, checked, violations)

    def _schema_has_procedures(self) -> bool:
        """True when any schema element carries an attached procedure.

        Computed fresh per bulk finalize (never cached across time, so
        procedures attached after schema construction are honoured).
        """
        stack: list[Any] = list(self.schema.classes)
        while stack:
            element = stack.pop()
            if element.attached_procedures:
                return True
            stack.extend(getattr(element, "dependents", ()))
        return any(
            association.attached_procedures
            for association in self.schema.associations
        )

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def create_object(
        self, class_name: str, name: str, *, pattern: bool = False
    ) -> SeedObject:
        """Create an independent object of *class_name* named *name*.

        Names of independent objects are unique among live objects.
        ``pattern=True`` creates the object as a pattern (invisible to
        retrieval, exempt from consistency checks until inherited).
        """
        with self._operation() as txn:
            entity_class = self.schema.entity_class(class_name)
            if entity_class.is_dependent:
                raise SchemaError(
                    f"class {class_name!r} is dependent; use "
                    "create_sub_object on a parent object"
                )
            check_simple_name(name, "object name")
            if name in self._name_index:
                raise ConsistencyError(
                    f"an object named {name!r} already exists",
                    [Violation("structure", name, "duplicate independent name")],
                )
            obj = SeedObject(self, self._allocate_id(), entity_class, name)
            obj.is_pattern = pattern
            self._objects[obj.oid] = obj
            self._enter(obj)
            self._mark_dirty(txn, txn.touch(obj, "create"))
            return obj

    def create_sub_object(
        self,
        parent: SeedObject,
        role: str,
        value: Any = None,
        *,
        index: Optional[int] = None,
    ) -> SeedObject:
        """Create a sub-object of *parent* in dependent-class *role*.

        For dependent classes admitting several instances per parent, an
        *index* may be given explicitly; by default indices are assigned
        consecutively (``Keywords[0]``, ``Keywords[1]``...). A *value*
        may be supplied directly for value-typed leaf classes.
        """
        with self._operation() as txn:
            self._require_live(parent)
            dependent_class = parent.entity_class.resolve_dependent(role)
            if dependent_class is None:
                raise SchemaError(
                    f"class {parent.entity_class.name!r} declares no "
                    f"dependent class {role!r}"
                )
            multi = (
                dependent_class.cardinality is None
                or dependent_class.cardinality.maximum != 1
            )
            if multi:
                index = self._assign_index(parent, role, index)
            elif index is not None:
                raise SchemaError(
                    f"dependent class {dependent_class.full_name!r} admits "
                    "a single instance; indices are not used"
                )
            if value is not None:
                value = dependent_class.accepts_value(value)
            obj = SeedObject(
                self,
                self._allocate_id(),
                dependent_class,
                role,
                parent=parent,
                index=index,
            )
            obj.value = value
            self._objects[obj.oid] = obj
            parent._attach_child(obj)
            self._enter(obj)
            self._mark_dirty(txn, txn.touch(obj, "create"))
            self._mark_dirty(txn, txn.touch(parent, "update"))
            return obj

    def _assign_index(
        self, parent: SeedObject, role: str, index: Optional[int]
    ) -> int:
        existing = parent._children_of_role(role)
        if index is None:
            return max((c.index for c in existing if c.index is not None), default=-1) + 1
        if any(c.index == index and not c.deleted for c in existing):
            raise ConsistencyError(
                f"object {parent.name} already has a live sub-object "
                f"{role}[{index}]",
                [Violation("structure", str(parent.name), "duplicate index")],
            )
        return index

    def relate(
        self,
        association_name: str,
        bindings: Optional[dict[str, SeedObject]] = None,
        *,
        attributes: Optional[dict[str, Any]] = None,
        pattern: bool = False,
        **binding_kwargs: SeedObject,
    ) -> SeedRelationship:
        """Create a relationship of *association_name*.

        Bindings map role names to objects; they may be passed as a dict
        (needed for roles named like Python keywords, e.g. ``from``) or
        as keyword arguments::

            db.relate("Read", {"from": alarms, "by": handler})
            db.relate("Contained", contained=alert, container=handler)
        """
        with self._operation() as txn:
            association = self.schema.association(association_name)
            all_bindings = dict(bindings or {})
            all_bindings.update(binding_kwargs)
            expected = set(association.role_names())
            if set(all_bindings) != expected:
                raise SchemaError(
                    f"association {association_name!r} requires bindings "
                    f"for roles {sorted(expected)}, got {sorted(all_bindings)}"
                )
            for role_name, obj in all_bindings.items():
                self._require_live(obj)
            rel = SeedRelationship(
                self, self._allocate_id(), association, all_bindings
            )
            rel.is_pattern = pattern
            self._relationships[rel.rid] = rel
            for obj in rel.bound_objects():
                self._incidence.setdefault(obj.oid, []).append(rel.rid)
            self._enter(rel)
            self._mark_dirty(txn, txn.touch(rel, "create"))
            if attributes:
                for attr_name, attr_value in attributes.items():
                    self._set_attribute_inner(txn, rel, attr_name, attr_value)
            return rel

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------

    def set_value(self, obj: SeedObject, value: Any) -> None:
        """Set the value of a value-typed object (None clears it)."""
        with self._operation() as txn:
            self._require_live(obj)
            if value is not None:
                value = obj.entity_class.accepts_value(value)
            txn.keep(obj)
            old_value = obj.value
            obj.value = value
            self.indexes.update_value(obj, old_value, value)
            self._mark_dirty(txn, txn.touch(obj, "update"))

    def set_attribute(self, rel: SeedRelationship, name: str, value: Any) -> None:
        """Set a relationship attribute declared on its association chain."""
        with self._operation() as txn:
            self._require_live(rel)
            self._set_attribute_inner(txn, rel, name, value)

    def _set_attribute_inner(
        self, txn: _Transaction, rel: SeedRelationship, name: str, value: Any
    ) -> None:
        attribute = rel.association.attribute(name)  # raises for unknown names
        if value is not None:
            value = attribute.sort.coerce(value)
        txn.keep(rel)
        if value is None:
            rel._attributes.pop(name, None)
        else:
            rel._attributes[name] = value
        self._mark_dirty(txn, txn.touch(rel, "update"))

    def rename(self, obj: SeedObject, new_name: str) -> None:
        """Rename an independent object (names stay unique)."""
        with self._operation() as txn:
            self._require_live(obj)
            if obj.parent is not None:
                raise SeedError(
                    "dependent objects are named by their role; only "
                    "independent objects can be renamed"
                )
            check_simple_name(new_name, "object name")
            if new_name == obj.simple_name:
                return
            if new_name in self._name_index:
                raise ConsistencyError(
                    f"an object named {new_name!r} already exists",
                    [Violation("structure", new_name, "duplicate independent name")],
                )
            txn.keep(obj)
            old_name = obj.simple_name
            del self._name_index[old_name]
            self._name_index[new_name] = obj.oid
            self.indexes.remove_name(old_name)
            self.indexes.add_name(new_name)
            obj._rename(new_name)
            self._mark_dirty(txn, txn.touch(obj, "update"))

    def delete(self, item: Item) -> None:
        """Tombstone an item.

        Deleting an object deletes its sub-tree and every relationship
        bound to a deleted object (items are marked, never physically
        removed — the version store needs the tombstones). Patterns with
        live inheritors refuse deletion.
        """
        with self._operation() as txn:
            self._require_live(item)
            if isinstance(item, SeedObject):
                for node in item.walk():
                    if node.is_pattern and self.patterns.has_inheritors(node):
                        inheritors = ", ".join(
                            str(inh.name)
                            for inh in self.patterns.inheritors_of(node)
                        )
                        raise PatternError(
                            f"pattern {node.name} is inherited by "
                            f"{inheritors}; remove the inherits links first"
                        )
                for node in list(item.walk()):
                    self._tombstone_object(txn, node)
            else:
                self._tombstone_relationship(txn, item)

    def _tombstone_object(self, txn: _Transaction, obj: SeedObject) -> None:
        for rid in list(self._incidence.get(obj.oid, ())):
            rel = self._relationships[rid]
            if not rel.deleted:
                self._tombstone_relationship(txn, rel)
        txn.keep(obj)
        self._withdraw(obj)
        # the patterns it inherited lose an inheritor, shrinking the
        # virtual participations of objects bound to them (completeness
        # fan-out): an inherits-link change, structural like uninherit
        for pattern_oid in obj.inherited_patterns:
            txn.structural.add(txn.touch(self._objects[pattern_oid], "update"))
        obj.inherited_patterns = ()
        obj.deleted = True
        self._mark_dirty(txn, txn.touch(obj, "delete"))

    def _tombstone_relationship(self, txn: _Transaction, rel: SeedRelationship) -> None:
        txn.keep(rel)
        self._withdraw(rel)
        rel.deleted = True
        self._mark_dirty(txn, txn.touch(rel, "delete"))
        for endpoint in rel.bound_objects():
            if not endpoint.deleted:
                txn.touch(endpoint, "update")

    def reclassify(
        self, item: Item, new_name: str, *, allow_generalize: bool = False
    ) -> None:
        """Move an item within its generalization hierarchy.

        This is the paper's vague-to-precise refinement operation:
        ``Thing`` → ``Data`` → ``OutputData`` for objects, ``Access`` →
        ``Write`` for relationships. Downward moves are always legal;
        upward/sideways moves require ``allow_generalize=True``.
        """
        with self._operation() as txn:
            self._require_live(item)
            if isinstance(item, SeedObject):
                new_class = self.schema.entity_class(new_name)
                check_reclassification(
                    item.entity_class, new_class, allow_generalize=allow_generalize
                )
                txn.keep(item)
                old_class = item.entity_class
                item.entity_class = new_class
                self.indexes.move_object(item, old_class, new_class)
                self._mark_dirty(txn, txn.touch(item, "reclassify"))
                for rid in self._incidence.get(item.oid, ()):
                    rel = self._relationships[rid]
                    if not rel.deleted:
                        txn.touch(rel, "update")
            else:
                new_association = self.schema.association(new_name)
                check_reclassification(
                    item.association,
                    new_association,
                    allow_generalize=allow_generalize,
                )
                txn.keep(item)
                # roles correspond positionally; rebind under the new names
                new_bindings = {
                    new_association.role_at(position).name: item.bound_at(position)
                    for position in (0, 1)
                }
                self.indexes.unindex_relationship(item)
                item.association = new_association
                item._bindings = new_bindings
                # attributes not declared on the new chain are dropped —
                # validation reports them if this loses information
                item._attributes = {
                    attr_name: attr_value
                    for attr_name, attr_value in item._attributes.items()
                    if new_association.has_attribute(attr_name)
                }
                self.indexes.index_relationship(item)
                self._mark_dirty(txn, txn.touch(item, "reclassify"))

    # ------------------------------------------------------------------
    # patterns
    # ------------------------------------------------------------------

    def mark_pattern(self, item: Item) -> None:
        """Mark a data item as a pattern (paper: any item can be one)."""
        with self._operation() as txn:
            self._require_live(item)
            if item.is_pattern:
                raise PatternError("item is already a pattern")
            if isinstance(item, SeedObject) and item.inherited_patterns:
                raise PatternError(
                    "an object inheriting patterns cannot itself become a "
                    "pattern"
                )
            txn.keep(item)
            item.is_pattern = True
            self._refresh_pattern_status(item)
            key = txn.touch(item, "update")
            # flipping the flag changes a whole context's visibility —
            # structural for completeness despite the "update" tag
            txn.structural.add(key)
            self._mark_dirty(txn, key)

    def unmark_pattern(self, item: Item) -> None:
        """Turn a pattern back into a normal item (no inheritors allowed)."""
        with self._operation() as txn:
            self._require_live(item)
            if not item.is_pattern:
                raise PatternError("item is not a pattern")
            if isinstance(item, SeedObject) and self.patterns.has_inheritors(item):
                raise PatternError(
                    "the pattern is inherited; remove the inherits links first"
                )
            txn.keep(item)
            item.is_pattern = False
            self._refresh_pattern_status(item, txn.force_acyclic)
            key = txn.touch(item, "update")
            txn.structural.add(key)
            self._mark_dirty(txn, key)

    def _refresh_pattern_status(
        self, item: Item, force_acyclic: Optional[dict[str, Any]] = None
    ) -> None:
        """Re-index relationships whose pattern context the flag flip changed.

        Marking an object affects every relationship bound to it or to
        any of its descendants (so does a rollback restoring the flag).
        Un-marking (given the unit's *force_acyclic* map) can add
        effective edges to a family graph even for relationships that
        *stay* in pattern context — a formerly suppressed endpoint now
        substitutes for itself while the other endpoint still expands
        to its inheritors — so every incident ACYCLIC family is queued
        there for a full re-check at commit, not just the ones whose
        indexed status flipped. Marking only ever removes or preserves
        effective edges and needs no re-check.
        """
        if isinstance(item, SeedObject):
            rids = sorted(
                {
                    rid
                    for node in item.walk()
                    for rid in self._incidence.get(node.oid, ())
                }
            )
        else:
            rids = [item.rid]
        for rid in rids:
            rel = self._relationships[rid]
            if rel.deleted:
                continue
            if force_acyclic is not None and rel.association.effective_acyclic():
                root = rel.association.family_root()
                force_acyclic[root.name] = rel.association
            self.indexes.refresh_relationship(rel)

    def inherit(self, pattern: SeedObject, inheritor: SeedObject) -> None:
        """Establish the inherits-relationship pattern → inheritor.

        Afterwards all retrieval views the pattern's content as if it
        were inserted in the inheritor's context, and the inheritor's
        consistency is checked including that content.
        """
        with self._operation() as txn:
            self._require_live(pattern)
            self._require_live(inheritor)
            self.patterns.check_inheritance_allowed(pattern, inheritor)
            txn.keep(inheritor)
            inheritor.inherited_patterns += (pattern.oid,)
            self.patterns.register_inheritance(pattern.oid, inheritor.oid)
            # the new inheritor materialises virtual edges out of every
            # relationship bound to the pattern: ACYCLIC families among
            # them need a full graph check at commit
            for rel in self.relationships_of_object(pattern, include_patterns=True):
                if rel.association.effective_acyclic():
                    root = rel.association.family_root()
                    txn.force_acyclic[root.name] = rel.association
            key = txn.touch(inheritor, "update")
            # the pattern's effective neighbourhood changed too: objects
            # bound to it by pattern relationships gain one virtual
            # participation per inheritor (completeness fan-out); the
            # link change is structural despite the "update" tags
            txn.structural.add(txn.touch(pattern, "update"))
            txn.structural.add(key)
            self._mark_dirty(txn, key)

    def uninherit(self, pattern: SeedObject, inheritor: SeedObject) -> None:
        """Remove an inherits-relationship."""
        with self._operation() as txn:
            self._require_live(inheritor)
            if pattern.oid not in inheritor.inherited_patterns:
                raise PatternError(
                    f"object {inheritor.name} does not inherit "
                    f"pattern {pattern.name}"
                )
            txn.keep(inheritor)
            inherited = inheritor.inherited_patterns
            at = inherited.index(pattern.oid)
            inheritor.inherited_patterns = inherited[:at] + inherited[at + 1:]
            self.patterns.unregister_inheritance(pattern.oid, inheritor.oid)
            key = txn.touch(inheritor, "update")
            # virtual participations shrink
            txn.structural.add(txn.touch(pattern, "update"))
            txn.structural.add(key)
            self._mark_dirty(txn, key)

    # ------------------------------------------------------------------
    # retrieval by name (the prototype's level)
    # ------------------------------------------------------------------

    def find_object(
        self, name: str | DottedName, *, include_patterns: bool = False
    ) -> Optional[SeedObject]:
        """Resolve a dotted name to a live object, or None.

        Patterns are invisible unless ``include_patterns=True``.
        """
        # only validated simple names are indexed, so a hit on the text as
        # given is the parser's answer; a miss falls back to the parser
        oid = self._name_index.get(name) if isinstance(name, str) else None
        path = ()
        if oid is None:
            dotted = DottedName.parse(name) if isinstance(name, str) else name
            oid = self._name_index.get(str(dotted.root))
            if oid is None:
                return None
            path = dotted.parts[1:]
        obj = self._objects[oid]
        if obj.is_pattern and not include_patterns:
            return None
        for part in path:
            child = obj.find_sub_object(part.name, part.index)
            if child is None:
                return None
            obj = child
        return obj

    def objects_by_name_prefix(self, prefix: str) -> list[SeedObject]:
        """Live independent objects (patterns excluded) whose name
        starts with *prefix*.

        Bisects the sorted name index: O(log n + |matches|), results in
        name order.
        """
        results = []
        for name in self.indexes.names_with_prefix(prefix):
            obj = self._objects[self._name_index[name]]
            if not obj.is_pattern:
                results.append(obj)
        return results

    def get_object(
        self, name: str | DottedName, *, include_patterns: bool = False
    ) -> SeedObject:
        """Like :meth:`find_object` but raises :class:`SeedError`."""
        obj = self.find_object(name, include_patterns=include_patterns)
        if obj is None:
            raise SeedError(f"no object named {name!s}")
        return obj

    def iter_objects(
        self,
        class_name: Optional[str] = None,
        *,
        include_specials: bool = True,
        include_patterns: bool = False,
        independent_only: bool = False,
    ) -> Iterator[SeedObject]:
        """Lazily yield live objects, optionally filtered by class.

        With a class filter the extent index is consulted, so the cost
        is O(|extent|) instead of O(|database|); results come in oid
        (creation) order. Without a filter every live object is scanned.
        """
        if class_name is None:
            for obj in self._objects.values():
                if obj.deleted:
                    continue
                if obj.in_pattern_context and not include_patterns:
                    continue
                if independent_only and obj.parent is not None:
                    continue
                yield obj
            return
        wanted = self.schema.entity_class(class_name)
        for oid in self.indexes.extent_oids(wanted, include_specials):
            obj = self._objects[oid]
            if obj.deleted:  # pragma: no cover - extent holds live oids
                continue
            if obj.in_pattern_context and not include_patterns:
                continue
            if independent_only and obj.parent is not None:
                continue
            yield obj

    def objects(
        self,
        class_name: Optional[str] = None,
        *,
        include_specials: bool = True,
        include_patterns: bool = False,
        independent_only: bool = False,
    ) -> list[SeedObject]:
        """Live objects, optionally filtered by class.

        ``include_specials=True`` (default) treats instances of
        specializations as instances of the given class, matching the
        'is-a' semantics of generalization.
        """
        return list(
            self.iter_objects(
                class_name,
                include_specials=include_specials,
                include_patterns=include_patterns,
                independent_only=independent_only,
            )
        )

    def iter_relationships(
        self,
        association: Optional[str] = None,
        *,
        include_specials: bool = True,
        include_patterns: bool = False,
    ) -> Iterator[SeedRelationship]:
        """Lazily yield live relationships, optionally filtered.

        With an association filter only the association family's indexed
        relationships are visited (rid order) instead of every
        relationship in the database.
        """
        if association is None:
            for rel in self._relationships.values():
                if rel.deleted:
                    continue
                if rel.in_pattern_context and not include_patterns:
                    continue
                yield rel
            return
        wanted = self.schema.association(association)
        root_name = wanted.family_root().name
        for rid in self.indexes.family_relationship_ids(root_name):
            rel = self._relationships[rid]
            if rel.deleted:  # pragma: no cover - index holds live rids
                continue
            if rel.in_pattern_context and not include_patterns:
                continue
            if include_specials:
                if not rel.association.is_kind_of(wanted):
                    continue
            elif rel.association is not wanted:
                continue
            yield rel

    def relationships(
        self,
        association: Optional[str] = None,
        *,
        include_specials: bool = True,
        include_patterns: bool = False,
    ) -> list[SeedRelationship]:
        """Live relationships, optionally filtered by association."""
        return list(
            self.iter_relationships(
                association,
                include_specials=include_specials,
                include_patterns=include_patterns,
            )
        )

    def relationships_of_object(
        self,
        obj: SeedObject,
        association: Optional[str] = None,
        role: Optional[str] = None,
        *,
        include_patterns: bool = False,
    ) -> list[SeedRelationship]:
        """Live relationships binding *obj*, with optional filters."""
        wanted = self.schema.association(association) if association else None
        results = []
        for rid in self._incidence.get(obj.oid, ()):
            rel = self._relationships[rid]
            if rel.deleted:
                continue
            if wanted is not None and not rel.association.is_kind_of(wanted):
                continue
            if not include_patterns and rel.in_pattern_context:
                continue
            if role is not None and rel.role_of(obj) != role:
                continue
            results.append(rel)
        return results

    def navigate(
        self, obj: SeedObject, association: str, role: str
    ) -> list[SeedObject]:
        """Objects bound at *role* in *obj*'s effective relationships.

        Navigation works on the effective (pattern-expanded) structure,
        so inherited relationships are traversed transparently.
        """
        wanted = self.schema.association(association)
        results: list[SeedObject] = []
        for rel in self.patterns.effective_relationships(obj, wanted):
            bound = rel.bound(role)  # type: ignore[union-attr]
            if bound is not obj:
                results.append(bound)
        return results

    def object_by_oid(self, oid: int) -> SeedObject:
        """Internal/diagnostic access by surrogate id."""
        return self._objects[oid]

    def all_objects_raw(self) -> Iterator[SeedObject]:
        """Every object record including tombstones and patterns."""
        return iter(self._objects.values())

    def all_relationships_raw(self) -> Iterator[SeedRelationship]:
        """Every relationship record including tombstones and patterns."""
        return iter(self._relationships.values())

    # ------------------------------------------------------------------
    # consistency & completeness entry points
    # ------------------------------------------------------------------

    def check_consistency(self) -> list[Violation]:
        """Full re-validation of the whole database (diagnostic).

        The incremental checks keep this empty at all times; property
        tests and the ablation benchmark call it to verify exactly that.
        """
        violations: list[Violation] = []
        self._validate_objects(self.objects(), set(), violations)
        for rel in self.relationships():
            violations.extend(self.consistency.validate_relationship(rel))
        seen_roots: set[str] = set()
        for association in self.schema.associations:
            if association.effective_acyclic():
                root = association.family_root()
                if root.name not in seen_roots:
                    seen_roots.add(root.name)
                    violations.extend(self.consistency.validate_acyclic(association))
        return violations

    def check_completeness(self) -> CompletenessReport:
        """On-demand completeness analysis of the whole database.

        Incremental: assembled from the engine's maintained per-object
        gap map, re-deriving only items dirtied since the last check
        (see :mod:`repro.core.completeness`).
        """
        return self.completeness.check_database()

    def check_completeness_scan(self) -> CompletenessReport:
        """The seed's full-scan analysis — the equivalence reference."""
        return self.completeness.check_database_scan()

    def require_complete(self) -> None:
        """Raise :class:`CompletenessError` unless the database is complete.

        "Eventually, the result must be sufficiently formal, complete,
        and precise to serve as a basis for implementation" — call this
        at that point.
        """
        report = self.check_completeness()
        if not report.is_complete:
            raise CompletenessError(
                f"database {self.name!r} is incomplete: {report.summary()}",
                report,
            )

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------

    def create_version(self, version: Optional[str | VersionId] = None) -> VersionId:
        """Snapshot the current state (see :class:`VersionManager`)."""
        if self._txn is not None:
            raise TransactionError("cannot create a version inside a transaction")
        if self._bulk is not None:
            raise TransactionError("cannot create a version inside a bulk batch")
        vid = self.versions.create_version(version)
        self._emit_change("version", vid)
        return vid

    def select_version(
        self, version: str | VersionId, *, discard_changes: bool = False
    ) -> VersionId:
        """Rebase the current state on a saved version (alternatives)."""
        if self._txn is not None:
            raise TransactionError("cannot select a version inside a transaction")
        if self._bulk is not None:
            raise TransactionError("cannot select a version inside a bulk batch")
        return self.versions.select_version(version, discard_changes=discard_changes)

    def version_view(self, version: str | VersionId) -> VersionView:
        """Read-only view of a saved version, built cold (deriving one
        from its parent's view is :meth:`VersionManager.view` with
        ``base``)."""
        return self.versions.view(version)

    def delete_version(self, version: str | VersionId) -> None:
        """Delete a leaf version."""
        vid = VersionId.parse(version)
        self.versions.delete_version(vid)
        self._emit_change("delete_version", vid)

    def compact(self, policy: RetentionPolicy) -> CompactionStats:
        """Compact the version store (chain squashing + snapshots).

        *policy* says what to keep; see
        :mod:`repro.core.versions.compaction` for the knobs (the product
        passes :data:`~repro.core.versions.compaction.DEFAULT_MAINTENANCE`,
        ``repro compact`` with its pins added). Views
        of every surviving version are unchanged. Returns the pass's
        :class:`~repro.core.versions.compaction.CompactionStats`; a
        pass that changed something is a ``"compact"`` change event.
        """
        if self._txn is not None:
            raise TransactionError("cannot compact inside a transaction")
        if self._bulk is not None:
            raise TransactionError("cannot compact inside a bulk batch")
        policy = policy or RetentionPolicy()
        stats = self.versions.compact(policy)
        if stats.changed:
            self._emit_change("compact", policy)
        return stats

    def saved_versions(self) -> list[VersionId]:
        """All saved versions in creation order."""
        return self.versions.versions()

    def has_unsaved_changes(self) -> bool:
        """True when items changed since the last snapshot."""
        return bool(self._dirty)

    def keep_committed_states(self, states: dict[ItemKey, Any]) -> None:
        """Keep the states a commit's journal record has just frozen, by
        item key, for the next :meth:`collect_dirty_states` (journal
        hook). They replace any kept before: at most the last unit's
        touched items are held."""
        self._committed = (self._writes, states)

    def collect_dirty_states(self) -> list[tuple[ItemKey, object]]:
        """The states of all changed items, in key order (version-manager
        hook).

        A dirty item the last commit's journal record froze is taken
        from :meth:`keep_committed_states` when nothing has been written
        since — :attr:`_writes` has not moved, so that state is the live
        one; the rest are frozen here. The kept states are released
        either way.
        """
        kept, self._committed = self._committed, None
        committed = kept[1] if kept is not None and kept[0] == self._writes else {}
        tables = {"o": self._objects, "r": self._relationships}
        states: list[tuple[ItemKey, object]] = []
        for key in sorted(self._dirty):
            state = committed.get(key)
            if state is None:
                item = tables[key[0]].get(key[1])
                if item is None:
                    continue  # rolled-back creation
                state = item.freeze()
            states.append((key, state))
        return states

    def clear_dirty(self) -> None:
        """Reset dirty tracking (version-manager hook)."""
        self._dirty.clear()

    def _restore(
        self,
        object_states: Iterable[tuple[int, Any]],
        relationship_states: Iterable[tuple[int, Any]],
        base: Optional[VersionId] = None,
        next_id_floor: int = 0,
    ) -> None:
        """The one restore: replace every item from frozen states, and
        move the version base to *base* unless it is None. Serves
        ``select_version`` and the replay of a ``restore`` record (whose
        ``"version"`` is null when an earlier build's raw restore wrote
        it: the base stays). One-shot: the state materializer of
        :mod:`repro.core.bulk` wires everything and rebuilds the
        pattern/index layers exactly once.
        """
        self._dirty.clear()
        load_item_states(
            self, object_states, relationship_states,
            next_id_floor=max(next_id_floor, self._next_id),
        )
        self.completeness.invalidate()
        if base is not None:
            self.versions.current_base = base
        self._emit_change("restore", base)

    # ------------------------------------------------------------------
    # schema evolution
    # ------------------------------------------------------------------

    def migrate_schema(self, new_schema: Schema) -> int:
        """Replace the schema, generating a schema version.

        All live items are re-bound to the new schema's elements by
        name; missing classes/associations or consistency violations
        under the new schema abort the migration (the database is left
        unchanged). Returns the new schema version index.
        """
        if self._txn is not None:
            raise TransactionError("cannot migrate the schema inside a transaction")
        if self._bulk is not None:
            raise TransactionError("cannot migrate the schema inside a bulk batch")
        new_schema.check()
        old_schema = self.schema
        try:
            self._bind_schema(new_schema)
            violations = self.check_consistency()
            if violations:
                raise _consistency_error(
                    "existing data violates the new schema", violations
                )
        except (SchemaError, ConsistencyError):
            self._bind_schema(old_schema)
            raise
        index = self._schema_adopted(new_schema)
        self._emit_change("schema", (new_schema, index))
        return index

    def _bind_schema(self, schema: Schema) -> None:
        """Re-bind every item to *schema*'s element of the same name and
        rebuild the index layer (hierarchy shapes, and with them extent
        keys and family roots, may differ). Serves a migration, its
        revert (items bound by a failed migration are re-bound too) and
        the replay of a ``schema`` record."""
        self._writes += 1
        for obj in self._objects.values():
            obj.entity_class = schema.entity_class(obj.entity_class.full_name)
        for rel in self._relationships.values():
            rel.association = schema.association(rel.association.name)
        self.schema = schema
        self.indexes.rebuild()

    def _schema_adopted(self, schema: Schema) -> int:
        """Make the bound *schema* the current schema version; returns
        its index. Every item now depends on it, the completeness rules
        changed wholesale (the gap map re-primes on the next check), and
        cached query plans were optimized against the old schema's
        elements and statistics."""
        self._dirty.update(("o", oid) for oid in self._objects)
        self._dirty.update(("r", rid) for rid in self._relationships)
        self.completeness.invalidate()
        plan_cache = getattr(self, "_plan_cache", None)
        if plan_cache is not None:
            plan_cache.clear()
        return self.versions.register_schema_version(schema)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _allocate_id(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def _require_live(self, item: Item) -> None:
        if getattr(item, "_database", None) is not self:
            raise SeedError("item belongs to a different database")
        if item.deleted:
            raise SeedError("item is deleted")

    def statistics(self) -> dict[str, int]:
        """Counters for reports and benchmarks."""
        live_objects = sum(
            1 for obj in self._objects.values() if not obj.deleted
        )
        live_relationships = sum(
            1 for rel in self._relationships.values() if not rel.deleted
        )
        return {
            "objects": live_objects,
            "relationships": live_relationships,
            "tombstoned_objects": len(self._objects) - live_objects,
            "tombstoned_relationships": len(self._relationships) - live_relationships,
            "saved_versions": len(self.versions.tree),
            "stored_states": self.versions.total_stored_states(),
            "snapshot_versions": self.versions.snapshot_count(),
            "dirty_items": len(self._dirty),
            "completeness_dirty": self.completeness.dirty_count(),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        stats = self.statistics()
        return (
            f"<SeedDatabase {self.name!r}: {stats['objects']} objects, "
            f"{stats['relationships']} relationships, "
            f"{stats['saved_versions']} versions>"
        )
