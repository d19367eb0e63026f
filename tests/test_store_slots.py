"""The slot store and the candidate tombstone collector against their
per-key references, and what a maintenance pass costs.

``tests/_store_reference.py`` keeps the version store keyed by version
(:class:`PerKeyStore`, whose fold moves every entry key by key) and the
tombstone collector that walks every tombstoned record and every store
key. A seeded history runs on two databases: a journaled one with the
product's store and collector, and one with the references. After
every pass the two must hold the same cells (``entries_of`` of every
key), the same ``states_at`` sets and snapshots, and report the same
``CompactionStats``; tombstone collection must drop the same cells in
the same order; and the journal's fragment join must equal a full
encode of the image.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from unittest import mock

import pytest

from _store_reference import PerKeyStore, collect_tombstones_full_walk
from repro.core import SeedDatabase, figure3_schema
from repro.core.storage import JournaledDatabase, RecordFile, database_to_dict, load_database
from repro.core.objects import ObjectState
from repro.core.versions.compaction import Compactor, RetentionPolicy
from repro.core.versions.store import VersionStore
from repro.core.versions.version_id import VersionId
from repro.multiuser import SeedServer


def full_image(db) -> bytes:
    return RecordFile.encode({"kind": "image", "image": database_to_dict(db)})


def spy_drops(store, drops: list) -> None:
    """Log every cell tombstone collection drops, in order."""
    real = store.drop_cell

    def drop_cell(key):
        drops.append(key)
        return real(key)

    store.drop_cell = drop_cell


class Twins:
    """One seeded history applied to the product database and to the
    reference database, step by step."""

    def __init__(self, seed: int, tmp_path) -> None:
        self.rng = random.Random(seed)
        self.journal = JournaledDatabase.open(
            tmp_path / "slots.seed", schema=figure3_schema(), name="twins"
        )
        self.live = self.journal.db
        self.ref = SeedDatabase(figure3_schema(), "twins")
        self.ref.versions.store = PerKeyStore()
        self.drops: tuple[list, list] = ([], [])
        spy_drops(self.live.versions.store, self.drops[0])
        spy_drops(self.ref.versions.store, self.drops[1])
        self.squashed: list[VersionId] = []
        self.stats: list = []
        #: K > 0: every version is followed by a snapshot consolidation
        #: at interval K (squashing off); states it materialized
        self.interval = 0
        self.materialized = 0
        self.both(self._populate)

    @property
    def dbs(self):
        return self.live, self.ref

    def both(self, step) -> list:
        """Run *step(db, rng)* on both databases with equal choices."""
        seed = self.rng.random()
        return [step(db, random.Random(seed)) for db in self.dbs]

    # -- steps ----------------------------------------------------------------

    def _populate(self, db, rng) -> None:
        with db.transaction():
            for index in range(12):
                action = db.create_object("Action", f"A{index}")
                action.add_sub_object("Description", f"does {index}")
                data = db.create_object("Data", f"D{index}")
                db.relate("Access", {"data": data, "by": action})

    def _edit(self, db, rng) -> None:
        actions = [obj for obj in db.objects("Action") if obj.parent is None]
        data = [obj for obj in db.objects("Data") if obj.parent is None]
        with db.transaction():
            for index in range(rng.randint(1, 4)):
                roll = rng.random()
                if roll < 0.35:
                    described = rng.choice(actions).sub_objects("Description")
                    db.set_value(described[0], f"{rng.random():.6f}")
                elif roll < 0.5:
                    db.rename(rng.choice(data), f"R{rng.randrange(10**6)}")
                elif roll < 0.65:
                    db.relate("Access", {"data": rng.choice(data), "by": rng.choice(actions)})
                elif roll < 0.85:
                    db.create_object("Data", f"N{rng.randrange(10**6)}")
                elif len(data) > 3:
                    doomed = rng.choice(data)
                    data.remove(doomed)
                    db.delete(doomed)

    def _version(self, db, rng) -> VersionId:
        explicit = None
        if rng.random() < 0.3:
            # an explicit id, often one a squash freed (its label is
            # used again), sometimes sorting before its parent's
            pool = [v for v in self.squashed if not db.versions.exists(v)]
            if pool and rng.random() < 0.6:
                explicit = rng.choice(pool)
            else:
                explicit = VersionId.parse(f"{rng.randint(1, 60)}.{rng.randint(0, 3)}")
                if db.versions.exists(explicit):
                    explicit = None
        version = db.create_version(explicit)
        if self.interval:
            stats = db.compact(
                RetentionPolicy(squash_chains=False, snapshot_interval=self.interval)
            )
            if db is self.live:
                self.materialized += stats.snapshot_states_added
        return version

    def _branch(self, db, rng) -> None:
        if db.saved_versions():
            db.select_version(rng.choice(db.saved_versions()), discard_changes=True)

    def _delete(self, db, rng) -> None:
        tree = db.versions.tree
        leaves = [
            v for v in db.saved_versions()
            if not tree.children(v) and v != db.versions.current_base
        ]
        if leaves:
            db.delete_version(rng.choice(leaves))

    def _consolidating(self, db, rng) -> None:
        self.interval = rng.choice((0, 0, 3, 4))

    def _compact(self, db, rng):
        saved = db.saved_versions()
        policy = RetentionPolicy(
            squash_chains=True,
            snapshot_interval=rng.choice((0, 0, 2, 3, 5)),
            keep_last=rng.randint(0, 3),
            pins=frozenset(rng.sample(saved, min(len(saved), rng.randint(0, 2)))),
            gc_tombstones=rng.random() < 0.8,
        )
        if db is self.ref:
            with mock.patch.object(
                Compactor, "collect_tombstones", collect_tombstones_full_walk
            ):
                return db.compact(policy)
        return db.compact(policy)

    # -- the history ------------------------------------------------------------

    def step(self) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            self.both(self._edit)
            return "edit"
        if roll < 0.6:
            self.both(self._version)
            return "version"
        if roll < 0.68:
            self.both(self._branch)
            return "branch"
        if roll < 0.74:
            self.both(self._delete)
            return "delete"
        if roll < 0.78:
            self.both(self._consolidating)
            return "consolidating"
        if roll < 0.93:
            live, ref = self.both(self._compact)
            assert live == ref, "the passes report different CompactionStats"
            self.squashed += live.squashed_versions
            self.stats.append(live)
            return "compact"
        if roll < 0.97:
            self.journal.checkpoint(streamed=self.rng.random() < 0.5)
            return "checkpoint"
        self.reopen()
        return "reopen"

    def reopen(self) -> None:
        """Close the journal and open it again: the live database is now
        the one its image and records load to."""
        self.journal.close()
        self.journal = JournaledDatabase.open(self.journal.path)
        self.live = self.journal.db
        # a load allocates ids after the highest it read
        self.ref._next_id = self.live._next_id  # noqa: SLF001
        spy_drops(self.live.versions.store, self.drops[0])

    def check(self, where: str) -> None:
        live, ref = self.live.versions.store, self.ref.versions.store
        assert self.live.saved_versions() == self.ref.saved_versions(), where
        assert list(live.keys()) == list(ref.keys()), where
        for key in ref.keys():
            assert live.entries_of(key) == ref.entries_of(key), f"{where}: {key}"
        for version in self.ref.saved_versions():
            assert sorted(live.states_at(version), key=str) == sorted(
                ref.states_at(version), key=str
            ), f"{where}: states at {version}"
        assert live.snapshot_versions() == ref.snapshot_versions(), where
        assert live.stored_state_count() == ref.stored_state_count(), where
        assert self.drops[0] == self.drops[1], f"{where}: tombstone drops"
        # the join on a copy: a real join would fill the missing fragments
        fragments = copy.deepcopy(self.journal._fragments)  # noqa: SLF001
        assert fragments.encode(self.live) == full_image(self.live), where


def _same_store(store, reference, where: str) -> None:
    assert list(store.keys()) == list(reference.keys()), where
    for key in reference.keys():
        assert store.entries_of(key) == reference.entries_of(key), f"{where}: {key}"
        assert store.states_of(key) == reference.states_of(key), f"{where}: {key}"
    versions = {v for key in reference.keys() for v, *__ in reference.entries_of(key)}
    for version in versions:
        assert sorted(store.states_at(version), key=str) == sorted(
            reference.states_at(version), key=str
        ), f"{where}: {version}"
    assert store.snapshot_versions() == reference.snapshot_versions(), where
    assert store.stored_state_count() == reference.stored_state_count(), where


@pytest.mark.parametrize("seed", range(12))
def test_store_operations_equal_the_per_key_store(seed):
    """Random writes straight on the two stores: deltas of every size
    (so folds rename and move), materialized entries on either side of
    a fold, folds past entries between the two labels, version and
    cell drops."""
    rng = random.Random(seed)
    store, reference = VersionStore(), PerKeyStore()
    labels = [
        VersionId.parse(f"{major}.{minor}") for major in range(1, 9) for minor in range(3)
    ]
    live: list[VersionId] = []

    def state(text: str) -> ObjectState:
        return ObjectState(
            class_name="Data", name=text, index=None, parent_oid=None, value=None,
            deleted=rng.random() < 0.15, is_pattern=False, inherited_pattern_oids=(),
        )

    for step in range(160):
        roll = rng.random()
        where = f"seed {seed} step {step}"
        fresh = [label for label in labels if label not in live]
        if roll < 0.35 and fresh:
            version = rng.choice(fresh)
            batch = [
                (("o", item), state(f"{version}/{item}"))
                for item in rng.sample(range(30), rng.choice((1, 2, 5, 12, 25)))
            ]
            for target in (store, reference):
                target.record_many(version, batch)
            live.append(version)
        elif roll < 0.45 and live:
            version = rng.choice(live)
            chain = sorted(rng.sample(live, rng.randint(1, len(live))))
            chain = [v for v in chain if v < version] + [version]
            assert store.materialize_snapshot(version, chain) == (
                reference.materialize_snapshot(version, chain)
            ), where
        elif roll < 0.5 and live:
            version = rng.choice(live)
            keys = list(reference.keys_in_version(version))
            if keys:
                key = rng.choice(keys)
                for target in (store, reference):
                    target.mark_materialized(version, key)
        elif roll < 0.8 and len(live) > 1:
            version, into = rng.sample(live, 2)
            assert store.fold_version(version, into) == (
                reference.fold_version(version, into)
            ), where
            live.remove(version)
        elif roll < 0.9 and live:
            version = rng.choice(live)
            assert store.drop_version(version) == reference.drop_version(version), where
            live.remove(version)
        elif list(reference.keys()):
            key = rng.choice(list(reference.keys()))
            assert store.drop_cell(key) == reference.drop_cell(key), where
        live = [v for v in live if any(True for __ in reference.keys_in_version(v))]
        _same_store(store, reference, where)


def test_the_slot_store_equals_the_per_key_reference(tmp_path):
    """Eight seeded histories, checked after every step. Between them,
    folds rename a larger delta and move a smaller one past an entry
    between the two labels, a squashed label is used again, compaction
    consolidates snapshots and tombstone collection drops cells."""
    seen = Counter()
    real_rename, real_fold = VersionStore._rename, PerKeyStore.fold_version  # noqa: SLF001

    def rename(self, *args):
        seen["renamed"] += 1
        return real_rename(self, *args)

    def fold(self, version, into):
        low, high = sorted((version.parts, into.parts))
        for key in self._by_version.get(version, {}):  # noqa: SLF001
            if any(low < other.parts < high for other in self._cells[key]):  # noqa: SLF001
                seen["reordered"] += 1
        return real_fold(self, version, into)

    with mock.patch.object(VersionStore, "_rename", rename), mock.patch.object(
        PerKeyStore, "fold_version", fold
    ):
        for seed in range(8):
            (tmp_path / str(seed)).mkdir()
            twins = Twins(seed, tmp_path / str(seed))
            for index in range(90):
                before = set(twins.live.saved_versions())
                name = twins.step()
                twins.check(f"seed {seed} step {index} ({name})")
                seen[name] += 1
                seen["reused"] += len(
                    set(twins.squashed) & (set(twins.live.saved_versions()) - before)
                )
            assert full_image(load_database(twins.journal.path)) == full_image(twins.live)
            twins.journal.close()
            seen["drops"] += len(twins.drops[0])
            seen["snapshots"] += sum(len(stats.snapshots_created) for stats in twins.stats)
            seen["materialized after a version"] += twins.materialized
    for what in (
        "renamed", "reordered", "reused", "snapshots", "drops", "reopen",
        "materialized after a version",
    ):
        assert seen[what], seen


def _server(tmp_path, items: int) -> SeedServer:
    """A journaled figure-3 master with *items* baseline actions (each
    with a description, a data object and a flow), saved as a global
    version."""
    server = SeedServer.open(tmp_path / f"master-{items}.seed", schema=figure3_schema())
    master = server.master
    with master.bulk():
        for index in range(items // 4):
            action = master.create_object("Action", f"A{index}")
            action.add_sub_object("Description", f"does {index}")
            data = master.create_object("Data", f"D{index}")
            master.relate("Access", {"data": data, "by": action})
    server.create_global_version()
    return server


class CountingSink:
    """Counts what the store reports, and passes it to the journal's
    fragments."""

    def __init__(self, fragments) -> None:
        self.fragments = fragments
        self.keys = 0

    def cell_changed(self, key, at_end=False):
        self.keys += 1
        self.fragments.cell_changed(key, at_end)

    def cells_materialized(self, grown):
        self.keys += len(grown)
        self.fragments.cells_materialized(grown)


def _entries(store) -> set:
    """Every stored entry as (key, the cell's key for it, state identity):
    an entry the pass wrote anew is not in the set from before it."""
    return {
        (key, where, id(state))
        for key, cell in store._cells.items()  # noqa: SLF001
        for where, state in cell.items()
    }


def _maintenance_costs(tmp_path, items: int) -> list[tuple]:
    """Per ``maintain()`` of a fixed check-in stream: (entries written,
    keys reported, states folded)."""
    server = _server(tmp_path, items)
    store = server.master.versions.store
    sink = store._cell_sink = CountingSink(store._cell_sink)  # noqa: SLF001
    client = server.connect("writer")
    rng = random.Random(7)
    costs = []
    for number in range(48):
        action = f"A{rng.randrange(40)}"
        local = client.check_out(action)
        local.set_value(local.get_object(f"{action}.Description"), f"check-in {number}")
        if rng.random() < 0.5:
            local.create_object("Data", f"N{number}")
        client.check_in()
        server.create_global_version()
        if number % 8 == 7:
            before, sink.keys = _entries(store), 0
            stats = server.maintain()
            costs.append((len(_entries(store) - before), sink.keys, stats.folded_states))
    server.journal.close()
    return costs


def test_a_maintenance_pass_does_not_grow_with_the_master(tmp_path):
    """The same check-in stream on a 200-item and a 2 000-item master:
    every pass folds the baseline again (the folded counts grow with the
    master), yet writes the same number of store entries and reports
    the same number of keys to the sink."""
    small = _maintenance_costs(tmp_path, 200)
    large = _maintenance_costs(tmp_path, 2000)
    assert [cost[:2] for cost in small] == [cost[:2] for cost in large]
    assert all(s[2] + 1500 <= l[2] for s, l in zip(small, large)), (small, large)
    assert max(cost[0] for cost in large) < 200


def test_a_maintenance_pass_rewrites_no_kept_cell_fragment(tmp_path):
    """A pass that renames a baseline delta of 2 000 keys reports none
    of them, and the next join writes their labels without touching a
    kept fragment: every fragment the pass kept is the same object after
    the join as before the pass."""
    server = _server(tmp_path, 2000)
    db = server.master
    fragments = server.journal._fragments  # noqa: SLF001
    client = server.connect("writer")
    for number in range(8):
        local = client.check_out(f"A{number}")
        local.set_value(local.get_object(f"A{number}.Description"), f"check-in {number}")
        client.check_in()
        server.create_global_version()
    server.journal.checkpoint()
    before = dict(fragments._cells)  # noqa: SLF001
    renamed = []
    real = VersionStore._rename  # noqa: SLF001

    def rename(self, source, folded, *args):
        renamed.append(len(folded))
        return real(self, source, folded, *args)

    with mock.patch.object(VersionStore, "_rename", rename):
        server.maintain()
    assert renamed and max(renamed) >= 2000, renamed
    kept = {key: before[key] for key in fragments._cells}  # noqa: SLF001
    assert len(kept) >= 1990
    server.journal.checkpoint(streamed=True)
    rewritten = [
        key for key, fragment in kept.items()
        if fragments._cells[key] is not fragment  # noqa: SLF001
    ]
    assert rewritten == []
    assert fragments.encode(db) == full_image(db)
    server.journal.close()
