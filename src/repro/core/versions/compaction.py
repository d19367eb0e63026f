"""Version-store compaction: chain squashing and snapshot consolidation.

Long-lived databases accumulate one delta per saved version forever (the
paper's store never forgets), so two costs grow linearly with history
length: storage for version chains that nobody will ever select again,
and :meth:`~repro.core.versions.store.VersionStore.state_on_chain`
walks, which descend the whole ancestry chain in the worst case. This
module bounds both, under an explicit, conservative
:class:`RetentionPolicy`:

**Chain squashing**
    Interior versions that the policy deems unreferenced (not a leaf,
    not a branch point, not the base of the current state, not pinned,
    not the newest ``keep_last`` versions, not a schema boundary) are
    folded into their sole surviving descendant: their states move into
    the child's delta (unless shadowed by a newer state there, in which
    case they are discarded — they were invisible from every surviving
    version anyway) and the version is spliced out of the tree. Every
    surviving version's view is bit-identical before and after — the
    equivalence suite in ``tests/test_compaction.py`` checks exactly
    that over randomized version trees.

**Snapshot consolidation**
    Every ``snapshot_interval`` versions along a chain, the complete
    resolved state (tombstones included) is materialized at that
    version and the version is marked as a snapshot. Chain walks then
    stop at the nearest snapshot, making ``state_on_chain`` O(K)
    instead of O(chain length). Storage is traded up deliberately; the
    policy knob controls the trade.

Policy knobs:

``squash_chains``
    enable/disable squashing (default on);
``snapshot_interval``
    materialize a snapshot every K versions along each chain
    (0 = disabled, the default). Consolidation runs only inside a
    compaction pass: ``create_version`` stores the delta and nothing
    else;
``keep_last``
    never squash the newest N versions (they are what users select);
``pins``
    explicitly protected version ids;
``gc_tombstones``
    after squashing, physically drop items that are dead in **every**
    surviving version (all their stored states are tombstones) and
    tombstoned (and already versioned) in the live state too: their
    store cells are erased and, where no history entry still references
    them, their live tombstone records are removed. Views of every
    surviving version are unchanged — a dead-everywhere item is
    invisible in all of them either way; only per-item history
    operations stop listing it (that is the point of the collection).

The product runs one policy, :data:`DEFAULT_MAINTENANCE`:
``SeedServer.maintain()`` when an operator asks for it, and ``repro
compact`` (which adds the user's ``--pin`` versions). Every compaction
names its policy.

Entry points: :meth:`repro.core.database.SeedDatabase.compact` /
:meth:`repro.core.versions.manager.VersionManager.compact`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import VersionError
from repro.core.versions.store import ItemKey
from repro.core.versions.version_id import VersionId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.versions.manager import VersionManager

__all__ = ["RetentionPolicy", "DEFAULT_MAINTENANCE", "CompactionStats", "Compactor"]


@dataclass(frozen=True)
class RetentionPolicy:
    """What compaction may touch and how aggressively it consolidates."""

    #: fold unreferenced interior versions into their sole descendant
    squash_chains: bool = True
    #: materialize a full snapshot every K versions on a chain (0 = off)
    snapshot_interval: int = 0
    #: the newest N versions (creation order) are never squashed
    keep_last: int = 2
    #: version ids that must survive squashing verbatim
    pins: frozenset[VersionId] = field(default_factory=frozenset)
    #: drop items dead in every surviving version (and live tombstones)
    gc_tombstones: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_interval < 0:
            raise VersionError(
                f"snapshot_interval must be >= 0, got {self.snapshot_interval}"
            )
        if self.keep_last < 0:
            raise VersionError(f"keep_last must be >= 0, got {self.keep_last}")
        object.__setattr__(
            self,
            "pins",
            frozenset(VersionId.parse(pin) for pin in self.pins),
        )


#: the policy the product compacts with: ``SeedServer.maintain()`` on
#: demand, and ``repro compact`` with the user's pins added
DEFAULT_MAINTENANCE = RetentionPolicy(
    squash_chains=True, snapshot_interval=16, keep_last=2, gc_tombstones=True
)


@dataclass
class CompactionStats:
    """What one :meth:`Compactor.run` actually did."""

    versions_before: int = 0
    versions_after: int = 0
    squashed_versions: list[VersionId] = field(default_factory=list)
    folded_states: int = 0
    discarded_states: int = 0
    snapshots_created: list[VersionId] = field(default_factory=list)
    snapshot_states_added: int = 0
    stored_states_before: int = 0
    stored_states_after: int = 0
    collected_objects: int = 0
    collected_relationships: int = 0
    tombstone_states_dropped: int = 0

    @property
    def changed(self) -> bool:
        """True when the pass changed the history or dropped an item."""
        return bool(
            self.squashed_versions or self.snapshots_created
            or self.collected_objects or self.collected_relationships
        )

    def summary(self) -> str:
        """One line for CLI output and logs."""
        line = (
            f"versions {self.versions_before} -> {self.versions_after} "
            f"(squashed {len(self.squashed_versions)}), states "
            f"{self.stored_states_before} -> {self.stored_states_after} "
            f"(folded {self.folded_states}, discarded "
            f"{self.discarded_states}, snapshot +{self.snapshot_states_added} "
            f"across {len(self.snapshots_created)} new snapshots)"
        )
        if self.collected_objects or self.collected_relationships:
            line += (
                f", collected {self.collected_objects} dead objects and "
                f"{self.collected_relationships} dead relationships "
                f"({self.tombstone_states_dropped} tombstone states)"
            )
        return line

class Compactor:
    """One compaction pass over a version manager's store and tree."""

    def __init__(self, manager: "VersionManager", policy: RetentionPolicy) -> None:
        self._manager = manager
        self._policy = policy

    # -- protection ----------------------------------------------------------

    def protected_versions(self) -> set[VersionId]:
        """Versions squashing must leave in place.

        Leaves and branch points structure the tree (and only interior
        single-child versions can be spliced at all); the current base
        anchors the live state; pins and the newest ``keep_last``
        versions are what users keep; schema boundaries are kept
        because folding a state across one would re-interpret it under
        the successor's schema version.
        """
        manager = self._manager
        tree = manager.tree
        protected: set[VersionId] = set(self._policy.pins)
        if manager.current_base is not None:
            protected.add(manager.current_base)
        order = tree.in_creation_order()
        if self._policy.keep_last:
            protected.update(order[-self._policy.keep_last:])
        for version in order:
            children = tree.children(version)
            if len(children) != 1:
                protected.add(version)  # leaf or branch point
                continue
            own_schema = manager.schema_version_of.get(version)
            child_schema = manager.schema_version_of.get(children[0])
            if own_schema != child_schema:
                protected.add(version)  # schema boundary
        return protected

    # -- passes --------------------------------------------------------------

    def squash_chains(self, stats: CompactionStats) -> None:
        """Fold every unprotected single-child version into its child.

        Versions are processed newest-first, so by the time a version is
        folded its sole child is already the run's terminal survivor:
        within a pass, every state is folded once. Across passes it is
        not — a survivor that a later pass no longer protects (the
        baseline carrier of a server, whose pinned views move on) is
        folded again by every pass. The store moves the smaller of the
        two deltas of a fold and renames the larger one, so a pass
        costs O(versions squashed × versions + states of the smaller
        side of each fold): what changed since the last pass, not the
        size of the baseline it folds again.
        """
        manager = self._manager
        protected = self.protected_versions()
        for version in reversed(manager.tree.in_creation_order()):
            if version in protected:
                continue
            if len(manager.tree.children(version)) != 1:
                continue  # pragma: no cover - protected covers this
            child = manager.tree.splice(version)
            moved, discarded = manager.store.fold_version(version, child)
            manager.schema_version_of.pop(version, None)
            stats.squashed_versions.append(version)
            stats.folded_states += moved
            stats.discarded_states += discarded

    def consolidate_snapshots(self, stats: CompactionStats) -> None:
        """Materialize a snapshot every ``snapshot_interval`` versions.

        Walks every root-to-leaf path, counting versions since the last
        snapshot; on reaching the interval the resolved state is
        materialized there and the counter resets. Branches inherit the
        counter of their fork point.
        """
        interval = self._policy.snapshot_interval
        if interval <= 0:
            return
        manager = self._manager
        tree = manager.tree
        store = manager.store
        stack: list[tuple[VersionId, int]] = [
            (root, 1) for root in reversed(tree.roots())
        ]
        while stack:
            version, since = stack.pop()
            if store.is_snapshot(version):
                since = 0
            elif since >= interval:
                stats.snapshot_states_added += store.materialize_snapshot(
                    version, tree.chain(version)
                )
                stats.snapshots_created.append(version)
                since = 0
            for child in reversed(tree.children(version)):
                stack.append((child, since + 1))

    def collect_tombstones(self, stats: CompactionStats) -> None:
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

        Only the store's tombstone candidates are visited: a key that
        never received a tombstone entry and kept a non-empty cell
        cannot qualify. So a pass costs O(candidates), not O(master).
        """
        db = self._manager._db  # noqa: SLF001
        store = self._manager.store
        dirty = db._dirty  # noqa: SLF001
        objects = db._objects  # noqa: SLF001
        relationships = db._relationships  # noqa: SLF001
        dead: dict[str, list[int]] = {"o": [], "r": []}
        orphans: set[ItemKey] = set()
        for key in store.tombstone_candidates():
            if key in dirty:
                continue
            kind, item_id = key
            record = (objects if kind == "o" else relationships).get(item_id)
            if record is None:
                orphans.add(key)
            elif record.deleted:
                dead[kind].append(item_id)
        for rid in sorted(dead["r"], reverse=True):
            key = ("r", rid)
            if not store.cell_states_all_deleted(key):
                continue
            stats.tombstone_states_dropped += store.drop_cell(key)
            db._drop_record(relationships[rid])  # noqa: SLF001
            stats.collected_relationships += 1
        for oid in sorted(dead["o"], reverse=True):
            obj = objects[oid]
            key = ("o", oid)
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
        # replaced by a checkout/restore): same rule, store side only,
        # dropped in store order
        cells = store.keys()
        orphans = {
            key for key in orphans
            if key in cells and store.cell_states_all_deleted(key)
        }
        if not orphans:
            return
        for key in list(filter(orphans.__contains__, cells)):
            stats.tombstone_states_dropped += store.drop_cell(key)
            if key[0] == "o":
                stats.collected_objects += 1
            else:
                stats.collected_relationships += 1

    # -- entry point ---------------------------------------------------------

    def run(self) -> CompactionStats:
        """Squash, collect tombstones, then consolidate."""
        manager = self._manager
        stats = CompactionStats(
            versions_before=len(manager.tree),
            stored_states_before=manager.store.stored_state_count(),
        )
        if self._policy.squash_chains:
            self.squash_chains(stats)
        if self._policy.gc_tombstones:
            # after squashing (folds may leave cells all-deleted) and
            # before consolidation (snapshots must not re-materialize
            # states of items being collected)
            self.collect_tombstones(stats)
        self.consolidate_snapshots(stats)
        stats.versions_after = len(manager.tree)
        stats.stored_states_after = manager.store.stored_state_count()
        return stats

