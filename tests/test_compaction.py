"""Compaction equivalence: squashed/consolidated stores answer identically.

The contract of :mod:`repro.core.versions.compaction` is that compaction
is *invisible* to every surviving version: views, chain walks, checkout
(``select_version``) and image round-trips produce byte-identical
results before and after a pass. These tests check that contract over
randomized version trees, plus the unit behaviour of the new store and
tree primitives.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from _store_reference import keys_in_version_scan
from repro.core import SeedDatabase, figure2_schema
from repro.core.errors import VersionError
from repro.core.storage.serialize import (
    database_from_dict,
    database_from_records,
    database_to_dict,
    iter_image_records,
)
from repro.core.versions.compaction import RetentionPolicy
from repro.core.versions.store import VersionStore
from repro.core.versions.tree import VersionTree
from repro.core.versions.version_id import VersionId
from repro.core.objects import ObjectState


def make_state(value=None, deleted=False, name="x"):
    return ObjectState(
        class_name="Data",
        name=name,
        index=None,
        parent_oid=None,
        value=value,
        deleted=deleted,
        is_pattern=False,
        inherited_pattern_oids=(),
    )


V = VersionId.parse


# ---------------------------------------------------------------------------
# store primitives
# ---------------------------------------------------------------------------


class TestStorePrimitives:
    def test_drop_version_prunes_empty_cells(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state("a"))
        store.record(V("1.0"), ("o", 2), make_state("b"))
        store.record(V("2.0"), ("o", 2), make_state("c"))
        assert store.cell_count() == 2
        assert store.drop_version(V("1.0")) == 2
        # the cell of ("o", 1) lost its only state and must be gone
        assert store.cell_count() == 1
        assert list(store.keys()) == [("o", 2)]
        assert store.stored_state_count() == 1

    def test_tombstone_candidates_are_tombstoned_and_pruned_keys(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state("a"))
        store.record(V("1.0"), ("o", 2), make_state("b"))
        store.record(V("2.0"), ("o", 3), make_state("c", deleted=True))
        assert store.tombstone_candidates() == [("o", 3)]
        store.drop_version(V("1.0"))
        assert sorted(store.tombstone_candidates()) == [("o", 1), ("o", 2), ("o", 3)]
        store.drop_cell(("o", 3))
        assert sorted(store.tombstone_candidates()) == [("o", 1), ("o", 2)]

    def test_fold_moves_unshadowed_states(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state("old"))
        store.record(V("1.0"), ("o", 2), make_state("only"))
        store.record(V("2.0"), ("o", 1), make_state("new"))
        moved, discarded = store.fold_version(V("1.0"), V("2.0"))
        assert (moved, discarded) == (1, 1)
        assert store.state_on_chain(("o", 1), [V("2.0")]).value == "new"
        assert store.state_on_chain(("o", 2), [V("2.0")]).value == "only"
        assert sorted(store.states_of(("o", 2))) == [V("2.0")]

    def test_snapshot_terminates_chain_walk(self):
        store = VersionStore()
        chain = [V("1.0"), V("2.0"), V("3.0")]
        store.record(V("1.0"), ("o", 1), make_state("root"))
        store.record(V("2.0"), ("o", 2), make_state("mid"))
        added = store.materialize_snapshot(V("2.0"), chain[:2])
        assert added == 1  # ("o", 1) resolved and copied to 2.0
        assert store.is_snapshot(V("2.0"))
        # a walk over the full chain finds the copy at 2.0 and never
        # visits 1.0; an item absent from the snapshot did not exist
        assert store.state_on_chain(("o", 1), chain).value == "root"
        assert store.state_on_chain(("o", 99), chain) is None
        assert store.distance_to_snapshot(chain) == 2

    def test_materialized_states_hidden_from_history(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state("root"))
        store.materialize_snapshot(V("2.0"), [V("1.0"), V("2.0")])
        assert sorted(store.states_of(("o", 1))) == [V("1.0")]
        assert list(store.states_of(("o", 1))) == [V("1.0")]
        # ... but they are raw storage, visible to the cost metric
        assert store.stored_state_count() == 2
        entries = store.entries_of(("o", 1))
        assert [(str(v), m) for v, __, m in entries] == [
            ("1.0", False),
            ("2.0", True),
        ]

    def test_fold_unmasks_materialized_copy_of_real_change(self):
        # 1.0 changes the item, 2.0 holds only the snapshot copy; after
        # squashing 1.0 into 2.0 the copy *is* the change record
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state("root"))
        store.materialize_snapshot(V("2.0"), [V("1.0"), V("2.0")])
        store.fold_version(V("1.0"), V("2.0"))
        assert sorted(store.states_of(("o", 1))) == [V("2.0")]

    def test_materialize_requires_matching_chain(self):
        store = VersionStore()
        with pytest.raises(VersionError):
            store.materialize_snapshot(V("2.0"), [V("1.0")])

    def test_a_fold_reports_only_discards_and_reorders(self):
        """A discarded entry or a move past another entry of the cell is
        a change, reported per key; a moved entry that keeps its place
        in its cell and a renamed slot are not reported at all (the sink
        below has no other call to take them)."""
        store = VersionStore()
        heard = []

        class Sink:
            def cell_changed(self, key, at_end=False):
                heard.append(("changed", key))

        store.record(V("1.0"), ("o", 1), make_state("alone"))
        store.record(V("1.0"), ("o", 2), make_state("shadowed"))
        store.record(V("5.0"), ("o", 2), make_state("newer"))
        store.record(V("1.0"), ("o", 3), make_state("passes 3.0"))
        store.record(V("3.0"), ("o", 3), make_state("other branch"))
        store.record(V("0.5"), ("o", 4), make_state("earlier"))
        store.record(V("1.0"), ("o", 4), make_state("keeps its place"))
        store._cell_sink = Sink()  # noqa: SLF001
        # 1.0 holds more than 5.0: 5.0 takes over 1.0's slot
        assert store.fold_version(V("1.0"), V("5.0")) == (3, 1)
        assert heard == [("changed", ("o", 3)), ("changed", ("o", 2))]
        assert [(v, s.value) for v, s, __ in store.entries_of(("o", 2))] == [
            (V("5.0"), "newer")
        ]
        heard.clear()
        # 0.5 holds fewer states than 5.0: its entries move, one of
        # them past 3.0
        store.record(V("0.5"), ("o", 6), make_state("keeps its place"))
        store.record(V("0.5"), ("o", 7), make_state("passes 3.0"))
        store.record(V("3.0"), ("o", 7), make_state("other branch"))
        heard.clear()
        assert store.fold_version(V("0.5"), V("5.0")) == (2, 1)
        assert heard == [("changed", ("o", 4)), ("changed", ("o", 7))]
        assert_index_matches_cells(store)
        heard.clear()
        assert store.fold_version(V("9.0"), V("10.0")) == (0, 0)
        assert heard == []

    def test_record_still_refuses_duplicates(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state())
        with pytest.raises(VersionError):
            store.record(V("1.0"), ("o", 1), make_state())


class TestTreeSplice:
    def build(self):
        tree = VersionTree()
        tree.add(V("1.0"), None)
        tree.add(V("2.0"), V("1.0"))
        tree.add(V("3.0"), V("2.0"))
        tree.add(V("2.0.1"), V("2.0"))
        return tree

    def test_splice_interior(self):
        tree = self.build()
        tree.add(V("4.0"), V("3.0"))
        assert tree.splice(V("3.0")) == V("4.0")
        assert tree.parent(V("4.0")) == V("2.0")
        assert tree.chain(V("4.0")) == [V("1.0"), V("2.0"), V("4.0")]
        assert V("3.0") not in tree

    def test_splice_root(self):
        tree = self.build()
        tree.remove(V("2.0.1"))
        tree.remove(V("3.0"))
        assert tree.splice(V("1.0")) == V("2.0")
        assert tree.roots() == [V("2.0")]
        assert tree.chain(V("2.0")) == [V("2.0")]

    def test_splice_refuses_branch_points_and_leaves(self):
        tree = self.build()
        with pytest.raises(VersionError):
            tree.splice(V("2.0"))  # two children
        with pytest.raises(VersionError):
            tree.splice(V("3.0"))  # leaf
        with pytest.raises(VersionError):
            tree.splice(V("9.0"))  # unknown


# ---------------------------------------------------------------------------
# randomized whole-database equivalence
# ---------------------------------------------------------------------------


def build_random_versioned_db(seed: int, versions: int = 14) -> SeedDatabase:
    """A database with a randomized version tree (branches included)."""
    rng = random.Random(seed)
    db = SeedDatabase(figure2_schema(), f"rand-{seed}")
    counter = 0

    def mutate() -> None:
        nonlocal counter
        roll = rng.random()
        data = [o for o in db.objects("Data") if o.parent is None]
        actions = [o for o in db.objects("Action") if o.parent is None]
        if roll < 0.35 or not data:
            counter += 1
            db.create_object(rng.choice(["Data", "Action"]), f"Item{counter}")
        elif roll < 0.55:
            target = rng.choice(data)
            if len(target.sub_objects("Text")) < 16:
                target.add_sub_object("Text")
        elif roll < 0.7 and actions:
            db.relate("Read", {"from": rng.choice(data), "by": rng.choice(actions)})
        elif roll < 0.85:
            victims = [o for o in data + actions if not o.relationships()]
            if victims:
                db.delete(rng.choice(victims))
            else:
                counter += 1
                db.create_object("Data", f"Item{counter}")
        else:
            texts = [t for o in data for t in o.sub_objects("Text")]
            if texts:
                db.delete(rng.choice(texts))
            else:
                counter += 1
                db.create_object("Data", f"Item{counter}")

    for __ in range(versions):
        for __ in range(rng.randint(1, 4)):
            mutate()
        db.create_version()
        if rng.random() < 0.25 and len(db.saved_versions()) > 2:
            db.select_version(
                rng.choice(db.saved_versions()), discard_changes=True
            )
    return db


def clone(db: SeedDatabase) -> SeedDatabase:
    return database_from_dict(database_to_dict(db))


def random_policy(rng: random.Random) -> RetentionPolicy:
    return RetentionPolicy(
        squash_chains=rng.random() < 0.8,
        snapshot_interval=rng.choice([0, 1, 2, 3, 5]),
        keep_last=rng.randint(0, 4),
    )


@pytest.mark.parametrize("seed", range(12))
def test_compaction_preserves_every_surviving_view(seed):
    db = build_random_versioned_db(seed)
    reference = clone(db)
    rng = random.Random(seed * 31 + 7)
    stats = db.compact(random_policy(rng))
    assert stats.versions_after == len(db.saved_versions())
    surviving = db.saved_versions()
    assert set(surviving) <= set(reference.saved_versions())
    for version in surviving:
        compacted_view = dict(db.version_view(version).item_states())
        reference_view = dict(reference.version_view(version).item_states())
        assert compacted_view == reference_view, (
            f"view of {version} diverged after compaction (seed {seed})"
        )
        # the raw chain-walk primitive agrees too, key by key
        chain = db.versions.tree.chain(version)
        ref_chain = reference.versions.tree.chain(version)
        for key in set(db.versions.store.keys()) | set(reference.versions.store.keys()):
            assert db.versions.store.state_on_chain(
                key, chain
            ) == reference.versions.store.state_on_chain(key, ref_chain)


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_checkout_identical_after_compaction(seed):
    db = build_random_versioned_db(seed)
    reference = clone(db)
    db.compact(RetentionPolicy(snapshot_interval=2, keep_last=1))
    for version in db.saved_versions():
        db.select_version(version, discard_changes=True)
        reference.select_version(version, discard_changes=True)
        assert {o.oid: o.freeze() for o in db.all_objects_raw()} == {
            o.oid: o.freeze() for o in reference.all_objects_raw()
        }
        assert {r.rid: r.freeze() for r in db.all_relationships_raw()} == {
            r.rid: r.freeze() for r in reference.all_relationships_raw()
        }


@pytest.mark.parametrize("seed", [1, 9])
def test_image_roundtrip_preserves_compacted_store(seed):
    db = build_random_versioned_db(seed)
    db.compact(RetentionPolicy(snapshot_interval=2, keep_last=1))
    loaded = clone(db)
    assert loaded.saved_versions() == db.saved_versions()
    assert (
        loaded.versions.store.snapshot_versions()
        == db.versions.store.snapshot_versions()
    )
    assert (
        loaded.versions.store.stored_state_count()
        == db.versions.store.stored_state_count()
    )
    for version in db.saved_versions():
        assert dict(loaded.version_view(version).item_states()) == dict(
            db.version_view(version).item_states()
        )
        # materialized markers round-trip: history answers stay equal
        for key in db.versions.store.keys():
            assert sorted(loaded.versions.store.states_of(key)) == sorted(
                db.versions.store.states_of(key)
            )


# ---------------------------------------------------------------------------
# what squashing protects, and cooperation with version operations
# ---------------------------------------------------------------------------


class TestRetention:
    def linear_db(self, versions=10):
        db = SeedDatabase(figure2_schema(), "lin")
        obj = db.create_object("Data", "D")
        db.create_version()
        for i in range(versions - 1):
            db.set_value(obj.add_sub_object("Text").add_sub_object(
                "Body").add_sub_object("Contents", f"v{i}"), f"v{i}")
            db.create_version()
        return db

    def test_current_base_and_keep_last_survive(self):
        db = self.linear_db()
        base = db.versions.current_base
        newest = db.saved_versions()[-2:]
        db.compact(RetentionPolicy(keep_last=2))
        assert base in db.saved_versions()
        for version in newest:
            assert version in db.saved_versions()

    def test_pins_survive(self):
        db = self.linear_db()
        pinned = db.saved_versions()[3]
        db.compact(RetentionPolicy(keep_last=0, pins=frozenset(["4.0"])))
        assert pinned in db.saved_versions()
        assert V("4.0") in db.saved_versions()

    def test_branch_points_survive(self):
        db = self.linear_db(6)
        fork = db.saved_versions()[2]
        db.select_version(fork, discard_changes=True)
        db.create_object("Data", "Branch")
        db.create_version()
        db.compact(RetentionPolicy(keep_last=0))
        assert fork in db.saved_versions()
        assert len(db.versions.tree.children(fork)) == 2

    def test_schema_boundaries_survive(self):
        from repro.core import figure3_schema

        db = SeedDatabase(figure2_schema(), "mig")
        obj = db.create_object("Data", "D")
        db.create_version()
        db.set_value(
            obj.add_sub_object("Text").add_sub_object("Body").add_sub_object(
                "Contents", "x"), "x")
        boundary = db.create_version()  # last version under the old schema
        db.migrate_schema(figure3_schema())
        db.create_version()
        db.create_object("Data", "After")
        db.create_version()
        db.create_object("Data", "After2")
        db.create_version()
        db.compact(RetentionPolicy(keep_last=0))
        assert boundary in db.saved_versions()

    def test_delete_version_after_squash(self):
        db = self.linear_db()
        db.compact(RetentionPolicy(keep_last=2))
        leaf = db.saved_versions()[-1]
        db.select_version(db.saved_versions()[0], discard_changes=True)
        db.delete_version(leaf)
        assert leaf not in db.saved_versions()
        # remaining views still resolve
        for version in db.saved_versions():
            db.version_view(version)

    def test_snapshot_consolidation_bounds_walks(self):
        db = SeedDatabase(figure2_schema(), "spaced")
        db.create_object("Data", "D")
        db.create_version()
        for i in range(20):
            db.create_object("Data", f"D{i}")
            db.create_version()
        reference = clone(db)
        db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=4))
        store = db.versions.store
        # every 4th version along the chain, counted from the root
        assert [str(v) for v in store.snapshot_versions()] == [
            "4.0", "8.0", "12.0", "16.0", "20.0",
        ]
        tip = db.saved_versions()[-1]
        assert store.distance_to_snapshot(db.versions.tree.chain(tip)) <= 4
        # and the tip view equals a walk of the chain without snapshots
        assert dict(db.version_view(tip).item_states()) == dict(
            reference.version_view(tip).item_states()
        )

    def test_compact_refused_inside_transaction(self):
        from repro.core.errors import TransactionError

        db = self.linear_db(3)
        with pytest.raises(TransactionError):
            with db.transaction():
                db.compact(RetentionPolicy())

    def test_every_compaction_names_its_policy(self):
        db = self.linear_db(3)
        versions_before = [str(v) for v in db.saved_versions()]
        with pytest.raises(TypeError, match="policy"):
            db.compact()  # type: ignore[call-arg]
        with pytest.raises(TypeError, match="policy"):
            db.versions.compact()  # type: ignore[call-arg]
        assert [str(v) for v in db.saved_versions()] == versions_before

    def test_policy_validation(self):
        with pytest.raises(VersionError):
            RetentionPolicy(snapshot_interval=-1)
        with pytest.raises(VersionError):
            RetentionPolicy(keep_last=-2)

    def test_default_compact_is_conservative(self):
        # default policy: squash only, keep the newest two versions
        db = self.linear_db(5)
        reference = clone(db)
        stats = db.compact(RetentionPolicy())
        assert stats.snapshots_created == []
        for version in db.saved_versions():
            assert dict(db.version_view(version).item_states()) == dict(
                reference.version_view(version).item_states()
            )


# ---------------------------------------------------------------------------
# tombstone garbage collection (PR 4)
# ---------------------------------------------------------------------------


class TestTombstoneGC:
    def _db_with_dead_item(self):
        db = SeedDatabase(figure2_schema(), "gc")
        keeper = db.create_object("Data", "Keeper")
        victim = db.create_object("Data", "Victim")
        db.create_version()  # victim alive at 1.0!
        db.delete(victim)
        db.create_version()
        return db, keeper, victim

    def test_item_live_in_history_is_kept(self):
        db, keeper, victim = self._db_with_dead_item()
        stats = db.compact(
            RetentionPolicy(squash_chains=False, gc_tombstones=True)
        )
        assert stats.collected_objects == 0
        assert db.version_view("1.0").find("Victim") is not None

    def test_dead_everywhere_item_is_collected(self):
        db = SeedDatabase(figure2_schema(), "gc2")
        db.create_object("Data", "Keeper")
        db.create_version()
        victim = db.create_object("Data", "Victim")
        text = victim.add_sub_object("Text")
        action = db.create_object("Action", "A")
        action.add_sub_object("Description", "d")
        rel = db.relate("Read", {"from": victim, "by": action})
        db.delete(victim)  # cascades to the sub-object and relationship
        db.create_version()  # only tombstones ever recorded for them
        states_before = db.versions.store.stored_state_count()
        stats = db.compact(
            RetentionPolicy(squash_chains=False, gc_tombstones=True)
        )
        assert stats.collected_objects == 2  # victim + its Text
        assert stats.collected_relationships == 1
        assert stats.tombstone_states_dropped == 3
        assert db.versions.store.stored_state_count() == states_before - 3
        # physically gone from the records and history
        assert victim.oid not in db._objects  # noqa: SLF001
        assert rel.rid not in db._relationships  # noqa: SLF001
        assert not db.history.versions_of_item(victim)
        db.indexes.verify()
        # every surviving view is unchanged (victim was visible nowhere)
        for version in db.saved_versions():
            assert db.version_view(version).find("Victim") is None
            assert db.version_view(version).find("Keeper") is not None
        # and the image still round-trips
        clone(db)

    def test_unsaved_deletion_is_protected(self):
        db = SeedDatabase(figure2_schema(), "gc3")
        db.create_object("Data", "Keeper")
        victim = db.create_object("Data", "Victim")
        db.create_version()
        db.select_version("1.0", discard_changes=True)
        victim = db.get_object("Victim")
        db.delete(victim)  # dirty: deletion not versioned yet
        stats = db.compact(
            RetentionPolicy(squash_chains=False, gc_tombstones=True)
        )
        assert stats.collected_objects == 0
        version = db.create_version()  # must still record the tombstone
        assert ("o", victim.oid) in set(
            db.versions.store.keys_in_version(version)
        )

    def test_a_collected_leaf_unblocks_its_parent_and_a_binding_holds_an_object(self):
        """Objects are visited highest id first: the Body leaf goes, so
        its Text goes, so its Data goes, all in one pass. An object
        still bound by a relationship the pass keeps stays, with its
        relationship."""
        db = SeedDatabase(figure2_schema(), "gc4")
        db.create_object("Data", "Keeper")
        db.create_version()
        parent = db.create_object("Data", "Parent")
        text = parent.add_sub_object("Text")
        body = text.add_sub_object("Body")
        contents = body.add_sub_object("Contents", "c")
        action = db.create_object("Action", "A")
        action.add_sub_object("Description", "d")
        held = db.create_object("Data", "Held")
        binding = db.relate("Read", {"from": held, "by": action})
        db.delete(parent)  # cascades to Text, Body and Contents
        db.delete(held)  # cascades to the binding
        db.create_version()  # only tombstones ever recorded for them
        # no public operation leaves a dead relationship's deletion
        # unsaved on its own: mark it so, and the pass must keep it
        db._dirty.add(("r", binding.rid))  # noqa: SLF001
        visited = []
        real_drop = db._drop_record  # noqa: SLF001

        def drop(record):
            visited.append(record)
            real_drop(record)

        db._drop_record = drop  # noqa: SLF001
        stats = db.compact(RetentionPolicy(squash_chains=False, gc_tombstones=True))
        assert visited == [contents, body, text, parent]
        assert (
            stats.collected_objects,
            stats.collected_relationships,
            stats.tombstone_states_dropped,
        ) == (4, 0, 4)
        assert held.oid in db._objects  # noqa: SLF001
        assert binding.rid in db._relationships  # noqa: SLF001
        db.indexes.verify()
        clone(db)

    def test_gc_off_by_default(self):
        db, keeper, victim = self._db_with_dead_item()
        db.delete(keeper)
        db.create_version()
        stats = db.compact(RetentionPolicy(squash_chains=False))
        assert stats.collected_objects == 0
        assert stats.collected_relationships == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_gc_preserves_every_view(self, seed):
        db = build_random_versioned_db(seed)
        # tombstone churn: delete a few more items, then version
        rng = random.Random(seed * 13 + 5)
        victims = [
            o
            for o in db.objects("Data")
            if o.parent is None and not o.relationships()
        ]
        for victim in victims[:3]:
            db.delete(victim)
        db.create_version()
        reference = clone(db)
        policy = RetentionPolicy(
            squash_chains=rng.random() < 0.7,
            snapshot_interval=rng.choice([0, 2, 4]),
            keep_last=rng.randint(0, 3),
            gc_tombstones=True,
        )
        db.compact(policy)
        for version in db.saved_versions():
            compacted = {
                key: state
                for key, state in db.version_view(version).item_states()
            }
            original = {
                key: state
                for key, state in reference.version_view(version).item_states()
            }
            assert compacted == original, (
                f"view of {version} changed after tombstone GC (seed {seed})"
            )
        db.indexes.verify()
        # collected items must not resurface through an image round-trip
        rebuilt = clone(db)
        assert database_to_dict(rebuilt) == database_to_dict(db)


# ---------------------------------------------------------------------------
# the per-version index is the store
# ---------------------------------------------------------------------------


def assert_index_matches_cells(store: VersionStore) -> None:
    """The per-version index against the retained cell scan: same keys
    per version, no phantom or empty version, flags and states agree
    with the per-cell entries, and the state count adds up."""
    by_cell = {key: store.entries_of(key) for key in store.keys()}
    versions = {version for entries in by_cell.values() for version, *__ in entries}
    # every version holding a state has one slot, and back
    slots = store._slot_of  # noqa: SLF001
    assert set(slots) == versions
    assert store._version_of == {slot: v for v, slot in slots.items()}  # noqa: SLF001
    assert set(store._by_slot) == set(slots.values())  # noqa: SLF001
    for version in versions:
        indexed = list(store.keys_in_version(version))
        assert len(indexed) == len(set(indexed))
        assert sorted(indexed) == sorted(keys_in_version_scan(store, version))
        for key, state, materialized in store.states_at(version):
            assert (version, state, materialized) in by_cell[key]
    assert store.stored_state_count() == sum(map(len, by_cell.values()))
    absent = V("99.0")
    assert list(store.keys_in_version(absent)) == list(store.states_at(absent)) == []


class TestPerVersionIndex:
    def test_states_at_lists_the_delta_in_record_order(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 3), make_state("c"))
        store.record(V("1.0"), ("o", 1), make_state("a"))
        store.record(V("2.0"), ("o", 2), make_state("b"))
        store.materialize_snapshot(V("2.0"), [V("1.0"), V("2.0")])
        assert [(key, state.value, flag) for key, state, flag in store.states_at(V("2.0"))] == [
            (("o", 2), "b", False),
            (("o", 3), "c", True),
            (("o", 1), "a", True),
        ]
        assert list(store.keys_in_version(V("1.0"))) == [("o", 3), ("o", 1)]
        assert_index_matches_cells(store)

    def test_mark_materialized_needs_a_recorded_state(self):
        store = VersionStore()
        store.record(V("1.0"), ("o", 1), make_state())
        with pytest.raises(VersionError):
            store.mark_materialized(V("1.0"), ("o", 2))
        with pytest.raises(VersionError):
            store.mark_materialized(V("2.0"), ("o", 1))
        store.mark_materialized(V("1.0"), ("o", 1))
        assert store.states_of(("o", 1)) == {}
        assert_index_matches_cells(store)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_store_operations(self, seed):
        """record / materialize_snapshot / fold_version / drop_version /
        drop_cell in random order over one linear chain."""
        rng = random.Random(seed)
        store = VersionStore()
        chain: list[VersionId] = []
        serial = 0
        for step in range(60):
            roll = rng.random()
            if roll < 0.45 or len(chain) < 3:
                serial += 1
                version = V(f"{serial}.0")
                chain.append(version)
                for item in rng.sample(range(1, 25), rng.randint(1, 6)):
                    store.record(
                        version,
                        (rng.choice("or"), item),
                        make_state(f"{serial}/{item}", deleted=rng.random() < 0.2),
                    )
            elif roll < 0.6:
                position = rng.randrange(len(chain))
                store.materialize_snapshot(chain[position], chain[: position + 1])
            elif roll < 0.8:
                position = rng.randrange(len(chain) - 1)
                store.fold_version(chain[position], chain[position + 1])
                del chain[position]
            elif roll < 0.9:
                store.drop_version(chain.pop())
            else:
                keys = list(store.keys())
                if keys:
                    store.drop_cell(rng.choice(keys))
            assert_index_matches_cells(store)
            for version in chain:
                upto = chain[: chain.index(version) + 1]
                assert store.resolve_chain(upto) == store.resolve_chain_scan(upto)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_database_operations_and_image_round_trips(self, seed):
        rng = random.Random(seed + 77)
        db = build_random_versioned_db(seed)
        for __ in range(4):
            roll = rng.random()
            if roll < 0.5:
                db.compact(
                    replace(random_policy(rng), gc_tombstones=rng.random() < 0.5)
                )
            elif roll < 0.7:
                leaves = [
                    version
                    for version in db.saved_versions()
                    if db.versions.tree.is_leaf(version)
                    and version != db.versions.current_base
                ]
                if leaves:
                    db.delete_version(rng.choice(leaves))
            else:
                db.create_object("Data", f"Late{rng.randrange(10**9)}")
                db.create_version()
                db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=3))
            assert_index_matches_cells(db.versions.store)
        store = db.versions.store
        assert any(
            flag for key in store.keys() for __, __, flag in store.entries_of(key)
        ), "no materialized entry reaches the round trips"
        for loaded in (clone(db), database_from_records(iter_image_records(db))):
            assert_index_matches_cells(loaded.versions.store)
            for version in db.saved_versions():
                assert sorted(loaded.versions.store.keys_in_version(version)) == sorted(
                    db.versions.store.keys_in_version(version)
                )
                assert loaded.versions.delta_size(version) == db.versions.delta_size(
                    version
                )
