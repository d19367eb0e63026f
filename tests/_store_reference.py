"""Test-side references for the slot version store and the candidate
tombstone collector.

:class:`PerKeyStore` is the version store keyed by version (one dict
entry per (key, version)), whose ``fold_version`` moves every entry of
the folded version key by key and decides a reorder per key from the
cell's other entries. :func:`collect_tombstones_full_walk` is the
tombstone collector that walks every tombstoned live record and every
store key. ``tests/test_store_slots.py`` runs seeded histories against
both and compares the results after every pass.
:func:`keys_in_version_scan` is the cell scan the slot store's
per-version index (``VersionStore.keys_in_version``) is tested against.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, KeysView, Optional

from repro.core.errors import VersionError
from repro.core.versions.compaction import CompactionStats, Compactor
from repro.core.versions.store import ItemKey, ItemState, VersionStore
from repro.core.versions.version_id import VersionId


class PerKeyStore:
    """The version store as it was before delta slots: cells keyed by
    version, and a fold that moves every entry of the folded version
    key by key."""

    def __init__(self) -> None:
        self._cells: dict[ItemKey, dict[VersionId, ItemState]] = {}
        #: versions holding a complete resolved state of their chain
        self._snapshots: set[VersionId] = set()
        #: version -> {key: materialized?} for every state stored exactly
        #: there, in record order. A *materialized* state was put there
        #: by snapshot consolidation rather than recorded as a change;
        #: history operations filter these so "find all versions of X"
        #: keeps listing real changes only
        self._by_version: dict[VersionId, dict[ItemKey, bool]] = {}
        #: told of every cell a writer changes — ``cell_changed(key,
        #: at_end=False)`` per key; None unless a journal keeps encoded
        #: cells (its ImageFragments)
        self._cell_sink: Optional[Any] = None

    # -- writing -------------------------------------------------------------

    def record(self, version: VersionId, key: ItemKey, state: ItemState) -> None:
        """Store *state* as the state of *key* at *version*.

        Versions are immutable: recording twice for the same (key,
        version) is a programming error. A version's whole delta goes
        through :meth:`record_many`.
        """
        self.record_many(version, ((key, state),))

    def record_many(
        self, version: VersionId, states: Iterable[tuple[ItemKey, ItemState]]
    ) -> int:
        """Record a batch of states at *version* (called once per
        created version with its changed items); returns the number
        recorded. A state recorded before a duplicate raises stays
        recorded.

        One pass: *version*'s index entry is fetched once, and each
        state hashes *version* once (a new cell is made with its entry;
        an existing one takes it through ``setdefault``, which also
        finds a duplicate).
        """
        cells = self._cells
        at_version = self._by_version.setdefault(version, {})
        sink = self._cell_sink
        count = 0
        try:
            for key, state in states:
                cell = cells.get(key)
                if cell is None:
                    cells[key] = {version: state}
                    at_end = False  # a cell this entry opened has no fragment
                else:
                    size = len(cell)
                    cell.setdefault(version, state)
                    if len(cell) == size:
                        raise VersionError(
                            f"item {key} already has a state for version "
                            f"{version}; versions cannot be modified"
                        )
                    at_end = _at_end(cell, version)
                at_version[key] = False
                if sink is not None:
                    sink.cell_changed(key, at_end)
                count += 1
        finally:
            if not at_version:
                del self._by_version[version]
        return count

    def drop_version(self, version: VersionId) -> int:
        """Erase all states recorded at *version* (version deletion).

        Views then fall through to the closest earlier state on the
        chain. Cells left without any state are pruned so ``keys()``
        and ``cell_count()`` stay accurate after heavy version
        deletion. Returns the number of states erased.
        """
        keys = self._by_version.pop(version, {})
        for key in keys:
            cell = self._cells[key]
            del cell[version]
            if not cell:
                del self._cells[key]
        if self._cell_sink is not None:
            for key in keys:
                self._cell_sink.cell_changed(key)
        self._snapshots.discard(version)
        return len(keys)

    # -- snapshots (compaction support) --------------------------------------

    def mark_snapshot(self, version: VersionId) -> None:
        """Declare *version* complete: its states cover its whole chain."""
        self._snapshots.add(version)

    def is_snapshot(self, version: VersionId) -> bool:
        """True when *version* holds a complete resolved state."""
        return version in self._snapshots

    def snapshot_versions(self) -> list[VersionId]:
        """All snapshot-marked versions, sorted."""
        return sorted(self._snapshots)

    def materialize_snapshot(self, version: VersionId, chain: list[VersionId]) -> int:
        """Record the full resolved state of every item at *version*.

        *chain* must be the ancestry chain ending in *version*.
        Tombstones are materialized too — history operations must keep
        distinguishing "deleted here" from "never existed". Returns the
        number of states added (items already recorded at *version*
        keep their delta state).
        """
        if chain and chain[-1] != version:
            raise VersionError(
                f"chain {chain} does not end in snapshot version {version}"
            )
        added = 0
        # one-pass chain resolution: O(states) instead of one chain
        # walk per cell (items recorded at *version* keep their delta
        # state — resolve_chain returns exactly that state for them)
        resolved = self.resolve_chain(chain)
        at_version = self._by_version.setdefault(version, {})
        for key, state in resolved.items():
            if key in at_version:
                continue
            cell = self._cells[key]
            cell[version] = state
            at_version[key] = True
            added += 1
            if self._cell_sink is not None:
                self._cell_sink.cell_changed(key, _at_end(cell, version))
        if not at_version:
            del self._by_version[version]
        self._snapshots.add(version)
        return added

    def distance_to_snapshot(self, chain: list[VersionId]) -> int:
        """Versions a walk from the chain tip visits before terminating.

        The walk stops at the first snapshot version (inclusive) or, in
        its absence, at the chain root — this is exactly the worst-case
        cost of :meth:`state_on_chain` over *chain*.
        """
        distance = 0
        for version in reversed(chain):
            distance += 1
            if version in self._snapshots:
                break
        return distance

    def fold_version(self, version: VersionId, into: VersionId) -> tuple[int, int]:
        """Move the states of *version* into its surviving descendant.

        Used by chain squashing: every surviving chain that contained
        *version* also contains *into* (its sole child), so a state at
        *version* is visible exactly where the same state at *into*
        would be — unless *into* already recorded a newer state, in
        which case the older one is shadowed everywhere and discarded.
        Returns ``(moved, discarded)``. A snapshot mark on *version*
        transfers to *into* (the fold makes *into* cover the chain).

        The cell sink hears of a discarded entry (which may flip the
        surviving entry's flag) and of a move that reorders the cell as
        a change. A moved entry that keeps its place in its cell's
        version order — always so in a one-entry cell — is not reported:
        its state and flag are what they were, and a kept fragment
        holds no version label.
        """
        moved = 0
        discarded = 0
        folded = self._by_version.pop(version, {})
        at_into = self._by_version.setdefault(into, {}) if folded else {}
        changed: list[ItemKey] = []
        low, high = sorted((version.parts, into.parts))
        for key, materialized in folded.items():
            cell = self._cells[key]
            state = cell.pop(version)
            if key in at_into:
                discarded += 1
                if not materialized:
                    # a real change was folded away; if the surviving
                    # entry was merely materialized, it now records that
                    # change (same state: nothing sat between the two)
                    at_into[key] = False
                changed.append(key)
            else:
                # an entry strictly between the two labels: the move
                # reorders the cell
                if cell and any(low < other.parts < high for other in cell):
                    changed.append(key)
                cell[into] = state
                at_into[key] = materialized
                moved += 1
        if self._cell_sink is not None:
            for key in changed:
                self._cell_sink.cell_changed(key)
        if version in self._snapshots:
            self._snapshots.discard(version)
            self._snapshots.add(into)
        return moved, discarded

    # -- reading ----------------------------------------------------------------

    def state_on_chain(
        self, key: ItemKey, chain: list[VersionId]
    ) -> Optional[ItemState]:
        """The item's state at the *end* of an ancestry chain.

        Walks the chain from its tip backwards and returns the first
        stored state — the paper's "greatest version number less than or
        equal to n", restricted to the history line of n. The walk stops
        early at a snapshot version: snapshots are complete, so an item
        without a state there did not exist anywhere below. Returns None
        when the item did not exist anywhere on the chain.
        """
        cell = self._cells.get(key)
        if not cell:
            return None
        for version in reversed(chain):
            state = cell.get(version)
            if state is not None:
                return state
            if version in self._snapshots:
                return None
        return None

    def resolve_chain(self, chain: list[VersionId]) -> dict[ItemKey, ItemState]:
        """Resolved state of **every** item at the end of *chain*.

        One overlay of the chain's per-version deltas instead of one
        :meth:`state_on_chain` walk per cell: the states indexed at
        each chain version are laid over each other oldest to newest,
        starting at the nearest snapshot (snapshots are complete, so
        nothing below one can be visible). Cost is O(states stored on
        the walked part of the chain) — cells of other branches are
        never visited — which is what makes cold version checkout and
        snapshot materialization run at index-rebuild speed.
        Tombstoned states are included,
        matching ``state_on_chain``; returns exactly the keys whose
        per-key walk would return a state.
        """
        start = 0
        for position in range(len(chain) - 1, -1, -1):
            if chain[position] in self._snapshots:
                start = position
                break
        cells = self._cells
        resolved: dict[ItemKey, ItemState] = {}
        for version in chain[start:]:
            for key in self._by_version.get(version, ()):
                resolved[key] = cells[key][version]
        return resolved

    def resolve_chain_scan(self, chain: list[VersionId]) -> dict[ItemKey, ItemState]:
        """Per-key reference for :meth:`resolve_chain` (the seed path).

        One chain walk per cell — O(cells × chain length) without
        snapshots. Retained as the equivalence oracle and the
        ``checkout_cold`` benchmark baseline.
        """
        resolved: dict[ItemKey, ItemState] = {}
        for key in self._cells:
            state = self.state_on_chain(key, chain)
            if state is not None:
                resolved[key] = state
        return resolved

    def states_of(self, key: ItemKey) -> dict[VersionId, ItemState]:
        """The item's (version → state) *change* entries (a copy).

        States materialized by snapshot consolidation are filtered out:
        they duplicate an earlier change for walk-termination purposes
        and must not surface as history events.
        """
        by_version = self._by_version
        return {
            version: state
            for version, state in self._cells.get(key, {}).items()
            if not by_version[version][key]
        }

    def entries_of(self, key: ItemKey) -> list[tuple[VersionId, ItemState, bool]]:
        """All raw entries of one item as (version, state, materialized).

        Sorted by version; the serializer uses this to round-trip
        consolidated stores faithfully.
        """
        cells = self._cells.get(key, {})
        by_version = self._by_version
        return [
            (version, cells[version], by_version[version][key])
            for version in sorted(cells)
        ]

    def keys(self) -> KeysView[ItemKey]:
        """All item keys with at least one stored state, in insertion
        order (a live view)."""
        return self._cells.keys()

    def states_at(
        self, version: VersionId
    ) -> Iterator[tuple[ItemKey, ItemState, bool]]:
        """The states stored exactly at *version*, in record order, as
        (key, state, materialized) — the version's delta (for a
        snapshot version: its complete state). O(states at *version*).
        """
        cells = self._cells
        for key, materialized in self._by_version.get(version, {}).items():
            yield key, cells[key][version], materialized

    def keys_in_version(self, version: VersionId) -> Iterator[ItemKey]:
        """Item keys with a state stored exactly at *version*.

        Raw storage view: materialized snapshot states count too.
        """
        return iter(self._by_version.get(version, ()))

    def mark_materialized(self, version: VersionId, key: ItemKey) -> None:
        """Flag a stored state as snapshot-materialized (image load)."""
        at_version = self._by_version.get(version, {})
        if key not in at_version:
            raise VersionError(
                f"item {key} has no state at version {version} to mark "
                "as materialized"
            )
        at_version[key] = True
        if self._cell_sink is not None:
            self._cell_sink.cell_changed(key)

    # -- tombstone garbage collection (compaction support) --------------------

    def cell_states_all_deleted(self, key: ItemKey) -> bool:
        """True when every stored state of *key* is a tombstone.

        Then — and only then — the item is invisible in every saved
        version (a state recorded at version V is the item's resolved
        state *at* V, so a live stored state implies a version where
        the item is visible). An absent cell counts as all-deleted.
        """
        cell = self._cells.get(key)
        if not cell:
            return True
        return all(state.deleted for state in cell.values())

    def drop_cell(self, key: ItemKey) -> int:
        """Erase every stored state of one item (tombstone GC).

        Scrubs the per-version index too. Returns the number of states
        erased.
        """
        cell = self._cells.pop(key, None)
        if cell is None:
            return 0
        for version in cell:
            at_version = self._by_version[version]
            del at_version[key]
            if not at_version:
                del self._by_version[version]
        if self._cell_sink is not None:
            self._cell_sink.cell_changed(key)
        return len(cell)

    def stored_state_count(self) -> int:
        """Total number of stored states — the delta-storage cost metric.

        Benchmarks compare this against the full-copy baseline's
        ``versions × live items``. Snapshot consolidation deliberately
        trades this metric up for O(K) chain walks.
        """
        return sum(len(keys) for keys in self._by_version.values())

    def cell_count(self) -> int:
        """Number of items with at least one stored state."""
        return len(self._cells)


def keys_in_version_scan(store: VersionStore, version: VersionId) -> Iterator[ItemKey]:
    """Cell-scan reference for ``VersionStore.keys_in_version`` (the
    pre-index path): one pass over every cell of *store*."""
    slot = store._slot_of.get(version)  # noqa: SLF001
    for key, cell in store._cells.items():  # noqa: SLF001
        if slot in cell:
            yield key


def _at_end(cell: dict[VersionId, ItemState], version: VersionId) -> bool:
    """True when the entry at *version*, just added to *cell*, sorts
    after every other (:meth:`VersionStore.entries_of` lists it last)."""
    parts = version.parts
    return all(other.parts <= parts for other in cell)


def collect_tombstones_full_walk(self: Compactor, stats: CompactionStats) -> None:
    """Drop items dead in every surviving version.

    An item qualifies when every stored state in its cell is a
    tombstone (then no surviving version shows it), its live record
    is tombstoned too, and its deletion is already versioned (not
    in the dirty set — an unsaved deletion still has to reach the
    next snapshot). Relationships go first so object incidence
    lists empty out; objects are visited children-before-parents
    (descending oid — sub-objects always allocate after their
    parent) so a collected leaf unblocks its parent in the same
    pass. An object with a remaining incident relationship, an
    un-collected child, or live inheritors (impossible for dead
    patterns, but checked) is left in place — the history that
    still references it needs the record.
    """
    db = self._manager._db  # noqa: SLF001
    store = self._manager.store
    dirty = db._dirty  # noqa: SLF001
    # only tombstoned records are sorted: nothing live is collected
    for rid in _deleted_ids_descending(db._relationships):  # noqa: SLF001
        rel = db._relationships[rid]  # noqa: SLF001
        key = ("r", rid)
        if key in dirty:
            continue
        if not store.cell_states_all_deleted(key):
            continue
        stats.tombstone_states_dropped += store.drop_cell(key)
        db._drop_record(rel)  # noqa: SLF001
        stats.collected_relationships += 1
    for oid in _deleted_ids_descending(db._objects):  # noqa: SLF001
        obj = db._objects[oid]  # noqa: SLF001
        key = ("o", oid)
        if key in dirty:
            continue
        if not store.cell_states_all_deleted(key):
            continue
        if db._incidence.get(oid):  # noqa: SLF001
            continue  # a versioned relationship still binds it
        if any(True for __ in obj._all_children()):  # noqa: SLF001
            continue  # an un-collected child still hangs below
        if db.patterns._inheritors.get(oid):  # noqa: SLF001
            continue  # pragma: no cover - dead patterns have none
        stats.tombstone_states_dropped += store.drop_cell(key)
        db._drop_record(obj)  # noqa: SLF001
        stats.collected_objects += 1
    # cells of items with no live record at all (the record was
    # replaced by a checkout/restore): same rule, store side only
    for key in list(store.keys()):
        kind, item_id = key
        live = (
            db._objects.get(item_id)  # noqa: SLF001
            if kind == "o"
            else db._relationships.get(item_id)  # noqa: SLF001
        )
        if live is not None or key in dirty:
            continue
        if not store.cell_states_all_deleted(key):
            continue
        stats.tombstone_states_dropped += store.drop_cell(key)
        if kind == "o":
            stats.collected_objects += 1
        else:
            stats.collected_relationships += 1


def _deleted_ids_descending(records: dict) -> list[int]:
    """The ids of the tombstoned records of an id → record table,
    highest first."""
    return sorted(
        [item_id for item_id, record in records.items() if record.deleted],
        reverse=True,
    )
