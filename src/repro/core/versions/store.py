"""The delta version store.

"When creating a version we do not save the complete database. We only
store those objects and relationships that have been changed after the
creation of the previous version. Items that have been deleted in this
interval must also be recorded. This is made easy by marking items as
deleted instead of removing them physically." (paper, "Versions")

The store keeps, per item, a *cell*: the frozen item state at every
version that recorded one. Unchanged items have no entry for a
version; a view walks the ancestry chain to find the closest stored
state. Tombstones are ordinary states with ``deleted=True``.

Item keys are ``("o", oid)`` for objects and ``("r", rid)`` for
relationships.

**Delta slots.** A version's delta lives in a *slot*, an internal int;
the store maps each version holding states to its slot and back. Cells
are keyed by slot, and so is the **per-version index**: for every slot,
the keys holding a state there, each flagged *materialized* when
snapshot consolidation put the state there rather than a change. The
index is maintained by every writer (``record_many``,
``materialize_snapshot``, ``mark_materialized``, ``fold_version``,
``drop_version``, ``drop_cell``), so a version's delta is addressable
at O(states at that version): :meth:`states_at` hands it to the journal
record and to successor views, :meth:`resolve_chain` overlays the
chain's deltas without visiting cells of other branches, and
``drop_version`` costs O(states of the version dropped).

**The renaming fold.** Chain squashing folds a version into its
surviving child (:meth:`fold_version`). The store moves the entries of
the *smaller* of the two deltas: when the folded version holds more
states than the child, the child takes over the folded version's slot
(the slot is renamed) and only the child's own states move into it. A
fold therefore costs O(the smaller delta + versions), so a baseline
that every maintenance pass folds into the next surviving version is
renamed each time, not copied.

**The cell sink.** The writers report every key whose cell they change
to ``_cell_sink`` — ``None`` unless a journal keeps the cells' encoded
image fragments (:class:`~repro.core.storage.serialize.ImageFragments`).
A key is *changed* (``cell_changed``): its fragment must be encoded
again. A writer that only adds an entry which sorts after every other
entry of its cell (``record_many``, nearly always) says the cell *grew
at its end*: its fragment can be extended by the ``version`` record
rather than encoded again. Snapshot consolidation reports the entries
it adds at a cell's end in one call (``cells_materialized``). A kept
fragment holds no version label: the image join writes each entry's
label from :attr:`_version_of`, in :meth:`entries_of` order. So a fold
that renames a slot, or moves entries without changing their place in
their cells' version order, reports nothing: no entry's state, flag or
place changed, only its label.

Compaction support (see :mod:`repro.core.versions.compaction`): a
compaction pass may mark a version as a **snapshot** (a replay restores
the mark; ``create_version`` records the delta only) — it then holds
the *complete* resolved state of every item existing on its chain
(tombstones included), so :meth:`state_on_chain` stops walking as soon
as it passes a snapshot version instead of descending to the chain
root. With a
snapshot every ``K`` versions, chain walks cost O(K) instead of
O(chain length). Tombstone collection visits only the store's
:meth:`tombstone_candidates`: keys that ever received a tombstone
entry, and keys whose cell ``drop_version`` emptied.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, KeysView, Optional, Union

from repro.core.errors import VersionError
from repro.core.objects import ObjectState
from repro.core.relationships import RelationshipState
from repro.core.versions.version_id import VersionId

__all__ = ["ItemKey", "ItemState", "VersionStore"]

ItemKey = tuple[str, int]
ItemState = Union[ObjectState, RelationshipState]


class VersionStore:
    """Per-item state cells, keyed by the delta slot of the version of
    change."""

    def __init__(self) -> None:
        #: key -> {slot: state}
        self._cells: dict[ItemKey, dict[int, ItemState]] = {}
        #: version -> the slot holding its delta, and back (only
        #: versions that hold states have a slot)
        self._slot_of: dict[VersionId, int] = {}
        self._version_of: dict[int, VersionId] = {}
        self._next_slot = 0
        #: slot -> {key: materialized?} for every state stored there.
        #: A *materialized* state was put there by snapshot
        #: consolidation rather than recorded as a change; history
        #: operations filter these so "find all versions of X" keeps
        #: listing real changes only
        self._by_slot: dict[int, dict[ItemKey, bool]] = {}
        #: versions holding a complete resolved state of their chain
        self._snapshots: set[VersionId] = set()
        #: keys tombstone collection visits (see tombstone_candidates)
        self._tombstoned: set[ItemKey] = set()
        #: told of every cell a writer changes; None unless a journal
        #: keeps encoded cells (its ImageFragments)
        self._cell_sink: Optional[Any] = None

    # -- slots ---------------------------------------------------------------

    def _slot(self, version: VersionId) -> tuple[int, dict[ItemKey, bool]]:
        """*version*'s slot and index entry, made empty if it has none."""
        slot = self._slot_of.get(version)
        if slot is None:
            slot = self._slot_of[version] = self._next_slot
            self._next_slot += 1
            self._version_of[slot] = version
            self._by_slot[slot] = {}
        return slot, self._by_slot[slot]

    def _release(self, slot: int) -> dict[ItemKey, bool]:
        """Free *slot*; returns its index entry."""
        del self._slot_of[self._version_of.pop(slot)]
        return self._by_slot.pop(slot)

    def _at_end(self, cell: dict[int, ItemState], version: VersionId) -> bool:
        """True when the entry at *version*, just added to *cell*, sorts
        after every other (:meth:`entries_of` lists it last)."""
        parts = version.parts
        labels = self._version_of
        return all(labels[slot].parts <= parts for slot in cell)

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

        One pass: *version*'s slot is fetched once, and each state
        hashes it once (a new cell is made with its entry; an existing
        one takes it through ``setdefault``, which also finds a
        duplicate).
        """
        cells = self._cells
        slot, at_version = self._slot(version)
        tombstoned = self._tombstoned
        sink = self._cell_sink
        count = 0
        try:
            for key, state in states:
                cell = cells.get(key)
                if cell is None:
                    cells[key] = {slot: state}
                    at_end = False  # a cell this entry opened has no fragment
                else:
                    size = len(cell)
                    cell.setdefault(slot, state)
                    if len(cell) == size:
                        raise VersionError(
                            f"item {key} already has a state for version "
                            f"{version}; versions cannot be modified"
                        )
                    at_end = self._at_end(cell, version)
                at_version[key] = False
                if state.deleted:
                    tombstoned.add(key)
                if sink is not None:
                    sink.cell_changed(key, at_end)
                count += 1
        finally:
            if not at_version:
                self._release(slot)
        return count

    def drop_version(self, version: VersionId) -> int:
        """Erase all states recorded at *version* (version deletion).

        Views then fall through to the closest earlier state on the
        chain. Cells left without any state are pruned so ``keys()``
        and ``cell_count()`` stay accurate after heavy version
        deletion; their keys become tombstone candidates. Returns the
        number of states erased.
        """
        slot = self._slot_of.get(version)
        keys = {} if slot is None else self._release(slot)
        for key in keys:
            cell = self._cells[key]
            del cell[slot]
            if not cell:
                del self._cells[key]
                self._tombstoned.add(key)
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
        keep their delta state). The cell sink hears of the entries
        that sort at their cell's end in one ``cells_materialized``
        call (a materialized state is a state some entry of the cell
        already holds), and of the others as changes.
        """
        if chain and chain[-1] != version:
            raise VersionError(
                f"chain {chain} does not end in snapshot version {version}"
            )
        # one-pass chain resolution: O(states) instead of one chain
        # walk per cell (items recorded at *version* keep their delta
        # state — resolve_chain returns exactly that state for them)
        resolved = self.resolve_chain(chain)
        slot, at_version = self._slot(version)
        cells = self._cells
        sink = self._cell_sink
        grown: list[tuple[ItemKey, ItemState]] = []
        added = 0
        for key, state in resolved.items():
            if key in at_version:
                continue
            cell = cells[key]
            cell[slot] = state
            at_version[key] = True
            added += 1
            if sink is not None:
                if self._at_end(cell, version):
                    grown.append((key, state))
                else:
                    sink.cell_changed(key)
        if grown:
            sink.cells_materialized(grown)
        if not at_version:
            self._release(slot)
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

        The entries of the smaller delta move: when *version* holds
        more states than *into*, *into* takes over *version*'s slot and
        only *into*'s own states move into it. A moved entry changes
        its place in its cell's version order only if the cell holds an
        entry at a version whose label lies strictly between the two;
        those few versions are found first, and only their keys are
        checked. The cell sink hears of a discarded entry (which may
        flip the surviving entry's flag) and of a reordering move as a
        change, and of nothing else: every other moved entry keeps its
        state, flag and place, and a kept fragment holds no label.
        """
        if version in self._snapshots:
            self._snapshots.discard(version)
            self._snapshots.add(into)
        source = self._slot_of.get(version)
        if source is None:
            return 0, 0
        folded = self._release(source)
        target = self._slot_of.get(into)
        at_into = {} if target is None else self._by_slot[target]
        low, high = sorted((version.parts, into.parts))
        between = [
            slot for other, slot in self._slot_of.items() if low < other.parts < high
        ]
        if len(folded) > len(at_into):
            return self._rename(source, folded, target, at_into, between, into)
        cells = self._cells
        sink = self._cell_sink
        discarded = 0
        for key, materialized in folded.items():
            cell = cells[key]
            state = cell.pop(source)
            if key in at_into:
                discarded += 1
                if not materialized:
                    # a real change was folded away; if the surviving
                    # entry was merely materialized, it now records that
                    # change (same state: nothing sat between the two)
                    at_into[key] = False
            else:
                cell[target] = state
                at_into[key] = materialized
                if not (between and any(slot in cell for slot in between)):
                    continue
            if sink is not None:
                sink.cell_changed(key)
        return len(folded) - discarded, discarded

    def _rename(
        self,
        source: int,
        folded: dict[ItemKey, bool],
        target: Optional[int],
        at_into: dict[ItemKey, bool],
        between: list[int],
        into: VersionId,
    ) -> tuple[int, int]:
        """The fold of a larger delta: *into* takes the folded version's
        slot *source* (whose index *folded* was released), and *into*'s
        own states, at *target*, move into it. Only the keys of
        discarded and reordered entries are reported to the cell sink:
        the rename itself changes no kept byte."""
        cells = self._cells
        # a moved entry reorders its cell when an entry between the two
        # labels shares it (*into*'s own states stay where they are)
        changed = {
            key: None
            for slot in between
            for key in self._by_slot[slot]
            if key in folded and key not in at_into
        }
        discarded = 0
        for key, materialized in at_into.items():
            cell = cells[key]
            cell[source] = cell.pop(target)
            if key in folded:
                # *version*'s state is shadowed by *into*'s, which stays
                # flagged materialized only if the folded one was too
                discarded += 1
                changed[key] = None
                materialized = materialized and folded[key]
            folded[key] = materialized
        moved = len(folded) - len(at_into)
        if target is not None:
            self._release(target)
        self._slot_of[into] = source
        self._version_of[source] = into
        self._by_slot[source] = folded
        sink = self._cell_sink
        if sink is not None:
            for key in changed:
                sink.cell_changed(key)
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
        slot_of = self._slot_of
        for version in reversed(chain):
            state = cell.get(slot_of.get(version))
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
            slot = self._slot_of.get(version)
            if slot is not None:
                for key in self._by_slot[slot]:
                    resolved[key] = cells[key][slot]
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
        by_slot = self._by_slot
        labels = self._version_of
        return {
            labels[slot]: state
            for slot, state in self._cells.get(key, {}).items()
            if not by_slot[slot][key]
        }

    def entries_of(self, key: ItemKey) -> list[tuple[VersionId, ItemState, bool]]:
        """All raw entries of one item as (version, state, materialized).

        Sorted by version; the serializer uses this to round-trip
        consolidated stores faithfully.
        """
        cell = self._cells.get(key, {})
        by_slot = self._by_slot
        labels = self._version_of
        return [
            (version, cell[slot], by_slot[slot][key])
            for version, slot in sorted((labels[slot], slot) for slot in cell)
        ]

    def keys(self) -> KeysView[ItemKey]:
        """All item keys with at least one stored state, in insertion
        order (a live view)."""
        return self._cells.keys()

    def states_at(
        self, version: VersionId
    ) -> Iterator[tuple[ItemKey, ItemState, bool]]:
        """The states stored exactly at *version*, as (key, state,
        materialized) — the version's delta (for a snapshot version:
        its complete state), in record order until a fold renames the
        version's slot. O(states at *version*).
        """
        slot = self._slot_of.get(version)
        if slot is None:
            return
        cells = self._cells
        for key, materialized in self._by_slot[slot].items():
            yield key, cells[key][slot], materialized

    def keys_in_version(self, version: VersionId) -> Iterator[ItemKey]:
        """Item keys with a state stored exactly at *version*.

        Raw storage view: materialized snapshot states count too.
        """
        slot = self._slot_of.get(version)
        return iter(() if slot is None else self._by_slot[slot])

    def mark_materialized(self, version: VersionId, key: ItemKey) -> None:
        """Flag a stored state as snapshot-materialized (image load)."""
        slot = self._slot_of.get(version)
        at_version = {} if slot is None else self._by_slot[slot]
        if key not in at_version:
            raise VersionError(
                f"item {key} has no state at version {version} to mark "
                "as materialized"
            )
        at_version[key] = True
        if self._cell_sink is not None:
            self._cell_sink.cell_changed(key)

    # -- tombstone garbage collection (compaction support) --------------------

    def tombstone_candidates(self) -> list[ItemKey]:
        """The keys tombstone collection visits: every key that ever
        received a tombstone entry (an image load records its cells'
        entries again) and every key whose cell ``drop_version``
        emptied, until the collection drops it. An item dead in every
        saved version has a cell of tombstones or none left, so its key
        is among them."""
        return list(self._tombstoned)

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
        self._tombstoned.discard(key)
        cell = self._cells.pop(key, None)
        if cell is None:
            return 0
        for slot in cell:
            at_version = self._by_slot[slot]
            del at_version[key]
            if not at_version:
                self._release(slot)
        if self._cell_sink is not None:
            self._cell_sink.cell_changed(key)
        return len(cell)

    def stored_state_count(self) -> int:
        """Total number of stored states — the delta-storage cost metric.

        Benchmarks compare this against the full-copy baseline's
        ``versions × live items``. Snapshot consolidation deliberately
        trades this metric up for O(K) chain walks.
        """
        return sum(len(keys) for keys in self._by_slot.values())

    def cell_count(self) -> int:
        """Number of items with at least one stored state."""
        return len(self._cells)
