"""The index layer: rollback identity, equivalence with brute force.

Two invariants from ``repro.core.indexes`` are exercised here:

* **Rollback invariant** — a failed transaction (consistency violation
  at commit or an exception mid-multi-op) leaves every index structure
  byte-identical to its pre-transaction state.
* **Mirror / fallback invariant** — on randomized workloads the indexed
  answers (class extents, name prefixes, participation counts,
  effective edges, family relationship queries, incremental ACYCLIC
  verdicts) equal the brute-force scans the seed used, and a fresh
  rebuild reproduces the maintained structures exactly.

The index oracle (:class:`TestIndexOracle`) compares every accessor —
participations, distinct participants, normal edges, successors and
each relationship's indexed status — with a full scan over seeded
histories, bulk batches read mid-batch included; ``verify()`` must
still catch a corrupted index under ``python -O``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import brute_participation_distinct
from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import ConsistencyError, SeedError
from repro.core.indexes import brute_objects, brute_relationships
from repro.core.query.retrieval import Retrieval
from repro.core.schema.builder import SchemaBuilder
from repro.spades import spades_schema

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_indexes_equal(before: dict, after: dict) -> None:
    for field in before:
        assert after[field] == before[field], f"index {field!r} changed"


# ----------------------------------------------------------------------
# rollback restores the indexes exactly
# ----------------------------------------------------------------------


class TestRollbackRestoresIndexes:
    def test_consistency_violation_at_commit(self, fig2_db):
        db = fig2_db
        a = db.create_object("Action", "A")
        a.add_sub_object("Description", "x")
        b = db.create_object("Action", "B")
        b.add_sub_object("Description", "x")
        db.relate("Contained", contained=a, container=b)
        before = db.indexes.snapshot()
        with pytest.raises(ConsistencyError):
            with db.transaction():
                data = db.create_object("Data", "D")
                db.relate("Read", {"from": data, "by": a})
                # closing the cycle dooms the whole transaction
                db.relate("Contained", contained=b, container=a)
        assert_indexes_equal(before, db.indexes.snapshot())
        db.indexes.verify()

    def test_exception_mid_transaction(self, fig2_db):
        db = fig2_db
        anchor = db.create_object("Data", "Anchor")
        before = db.indexes.snapshot()
        with pytest.raises(SeedError):
            with db.transaction():
                created = db.create_object("Data", "Doomed")
                db.rename(created, "Renamed")
                db.create_sub_object(created, "Text")
                db.delete(anchor)
                db.get_object("NoSuchObject")  # raises, rolls everything back
        assert_indexes_equal(before, db.indexes.snapshot())
        db.indexes.verify()
        assert db.find_object("Anchor") is not None

    def test_failed_single_operation(self, fig2_db):
        db = fig2_db
        db.create_object("Data", "Taken")
        before = db.indexes.snapshot()
        with pytest.raises(ConsistencyError):
            db.create_object("Data", "Taken")  # duplicate name
        assert_indexes_equal(before, db.indexes.snapshot())

    def test_rolled_back_delete_restores_relationship_indexes(self, fig1_db):
        db = fig1_db
        alarms = db.get_object("Alarms")
        before = db.indexes.snapshot()
        with pytest.raises(SeedError):
            with db.transaction():
                db.delete(alarms)  # tombstones the Read relationship too
                db.get_object("NoSuchObject")
        assert_indexes_equal(before, db.indexes.snapshot())
        db.indexes.verify()

    def test_rolled_back_pattern_marking(self, spades_db):
        db = spades_db
        action = db.create_object("Action", "A")
        action.add_sub_object("Description", "x")
        other = db.create_object("Action", "B")
        other.add_sub_object("Description", "x")
        db.relate("Contained", contained=action, container=other)
        before = db.indexes.snapshot()
        with pytest.raises(SeedError):
            with db.transaction():
                # flips the Contained relationship to pattern status...
                db.mark_pattern(action)
                db.get_object("NoSuchObject")  # ...then aborts
        assert_indexes_equal(before, db.indexes.snapshot())
        db.indexes.verify()

    def test_rolled_back_reclassification(self, fig3_db):
        db = fig3_db
        data = db.create_object("Data", "Vague")
        handler = db.create_object("Action", "Handler")
        rel = db.relate("Access", data=data, by=handler)
        before = db.indexes.snapshot()
        with pytest.raises(SeedError):
            with db.transaction():
                db.reclassify(data, "OutputData")
                db.reclassify(rel, "Write")
                db.get_object("NoSuchObject")
        assert_indexes_equal(before, db.indexes.snapshot())
        db.indexes.verify()


# ----------------------------------------------------------------------
# randomized workload: indexed answers == brute-force answers
# ----------------------------------------------------------------------


def _random_workload(db: SeedDatabase, rng: random.Random, steps: int) -> None:
    """Apply *steps* random operations; consistency rejections are fine."""
    counter = [0]

    def fresh_name() -> str:
        counter[0] += 1
        return f"N{rng.randrange(10**6)}_{counter[0]}"

    class_names = ["Thing", "Data", "OutputData", "Action"]
    for __ in range(steps):
        op = rng.randrange(10)
        objects = [
            obj
            for obj in db.all_objects_raw()
            if not obj.deleted and obj.parent is None
        ]
        try:
            if op <= 2 or not objects:
                db.create_object(
                    rng.choice(class_names),
                    fresh_name(),
                    pattern=rng.random() < 0.2,
                )
            elif op <= 4 and len(objects) >= 2:
                first, second = rng.sample(objects, 2)
                association = rng.choice(["Access", "Read", "Write"])
                bindings = dict(
                    zip(
                        db.schema.association(association).role_names(),
                        (first, second),
                    )
                )
                db.relate(
                    association, bindings, pattern=rng.random() < 0.15
                )
            elif op == 5:
                db.delete(rng.choice(objects))
            elif op == 6:
                rels = [r for r in db.all_relationships_raw() if not r.deleted]
                if rels:
                    db.delete(rng.choice(rels))
            elif op == 7:
                obj = rng.choice(objects)
                if obj.entity_class.name == "Thing":
                    db.reclassify(obj, rng.choice(["Data", "Action"]))
                elif obj.entity_class.name == "Data":
                    db.reclassify(obj, "OutputData")
            elif op == 8:
                db.rename(rng.choice(objects), fresh_name())
            else:
                patterns = [o for o in objects if o.is_pattern]
                normals = [
                    o
                    for o in objects
                    if not o.in_pattern_context and not o.inherited_patterns
                ]
                if patterns and normals:
                    db.inherit(rng.choice(patterns), rng.choice(normals))
        except (ConsistencyError, SeedError):
            continue


class TestIndexedEqualsBruteForce:
    @pytest.mark.parametrize("seed", [1, 7, 23, 101])
    def test_random_workload_equivalence(self, seed):
        db = SeedDatabase(figure3_schema(), f"prop-index-{seed}")
        rng = random.Random(seed)
        retrieval = Retrieval(db)
        for batch in range(4):
            _random_workload(db, rng, 40)
            db.indexes.verify()
            for class_name in ("Thing", "Data", "OutputData", "Action"):
                for include_specials in (True, False):
                    for include_patterns in (True, False):
                        indexed = db.objects(
                            class_name,
                            include_specials=include_specials,
                            include_patterns=include_patterns,
                        )
                        brute = brute_objects(
                            db,
                            class_name,
                            include_specials=include_specials,
                            include_patterns=include_patterns,
                        )
                        assert {o.oid for o in indexed} == {
                            o.oid for o in brute
                        }
            for association in ("Access", "Read", "Write"):
                indexed_rels = db.relationships(association)
                brute_rels = brute_relationships(db, association)
                assert {r.rid for r in indexed_rels} == {
                    r.rid for r in brute_rels
                }
                wanted = db.schema.association(association)
                edges_indexed = sorted(db.patterns.effective_edges(wanted))
                edges_brute = sorted(db.patterns.effective_edges_scan(wanted))
                if wanted.family_root() is wanted:
                    assert edges_indexed == edges_brute
                for obj in db.objects("Thing")[:10]:
                    for position in (0, 1):
                        assert db.patterns.count_participations(
                            obj, wanted, position
                        ) == db.patterns.count_participations_scan(
                            obj, wanted, position
                        )
            prefix = "N"
            by_index = {o.oid for o in retrieval.by_name_prefix(prefix)}
            by_scan = {
                o.oid
                for o in brute_objects(db, independent_only=True)
                if o.simple_name.startswith(prefix)
            }
            assert by_index == by_scan

    def test_version_cycle_keeps_indexes_fresh(self, fig3_db):
        db = fig3_db
        data = db.create_object("InputData", "D1")
        action = db.create_object("Action", "A1")
        db.relate("Read", {"from": data, "by": action})
        first = db.create_version()
        db.create_object("OutputData", "D2")
        db.create_version()
        db.select_version(first)
        db.indexes.verify()
        assert [o.simple_name for o in db.objects("InputData")] == ["D1"]
        assert db.objects("OutputData") == []
        db.create_object("OutputData", "D3")
        db.indexes.verify()
        assert [o.simple_name for o in db.objects("OutputData")] == ["D3"]

    def test_migration_rebuilds_indexes(self, fig2_db):
        db = fig2_db
        db.create_object("Data", "D")
        action = db.create_object("Action", "A")
        action.add_sub_object("Description", "x")
        new_schema = db.schema.copy("evolved")
        new_schema.add_class(
            __import__(
                "repro.core.schema.entity_class", fromlist=["EntityClass"]
            ).EntityClass("Extra")
        )
        db.migrate_schema(new_schema)
        db.indexes.verify()
        db.create_object("Extra", "E")
        assert [o.simple_name for o in db.objects("Extra")] == ["E"]


# ----------------------------------------------------------------------
# incremental ACYCLIC == full ACYCLIC
# ----------------------------------------------------------------------


class TestIncrementalAcyclic:
    @pytest.mark.parametrize("seed", [3, 17, 59])
    def test_random_graphs_match_full_check(self, seed):
        db = SeedDatabase(spades_schema(), f"acyclic-{seed}")
        rng = random.Random(seed)
        nodes = [db.create_object("Action", f"A{i}") for i in range(12)]
        association = db.schema.association("Contained")
        placed: set[int] = set()
        for __ in range(80):
            contained, container = rng.sample(nodes, 2)
            if contained.oid in placed:
                continue  # Contained.contained is 0..1
            try:
                db.relate("Contained", contained=contained, container=container)
                accepted = True
                placed.add(contained.oid)
            except ConsistencyError:
                accepted = False
            # committed state must satisfy the full (unindexed) check
            assert db.consistency.validate_acyclic(
                association, use_index=False
            ) == []
            if not accepted:
                # the rejected edge really would have closed a cycle
                closure = {
                    (source, target)
                    for source, target in db.patterns.effective_edges_scan(
                        association
                    )
                }
                reachable = {container.oid}
                frontier = [container.oid]
                while frontier:
                    node = frontier.pop()
                    for source, target in closure:
                        if source == node and target not in reachable:
                            reachable.add(target)
                            frontier.append(target)
                assert contained.oid in reachable
        db.indexes.verify()

    def test_cycle_message_is_deterministic(self, spades_db):
        db = spades_db
        names = ["X", "Y", "Z"]
        nodes = {}
        for name in names:
            nodes[name] = db.create_object("Action", name)
            nodes[name].add_sub_object("Description", "d")
        db.relate("Contained", contained=nodes["X"], container=nodes["Y"])
        db.relate("Contained", contained=nodes["Y"], container=nodes["Z"])
        with pytest.raises(ConsistencyError) as excinfo:
            db.relate("Contained", contained=nodes["Z"], container=nodes["X"])
        assert "creates the cycle X -> Y -> Z" in str(excinfo.value)

    def test_unmark_pattern_cycle_via_remaining_pattern_endpoint(self, spades_db):
        """Unmark must re-check even relationships that stay in pattern
        context: here both relationships keep pattern status through the
        still-marked endpoint, yet un-marking the other endpoint
        materialises the virtual edges inheritor -> P -> inheritor."""
        db = spades_db
        p = db.create_object("Action", "P", pattern=True)
        q = db.create_object("Action", "Q", pattern=True)
        inheritor = db.create_object("Action", "I")
        inheritor.add_sub_object("Description", "x")
        db.inherit(q, inheritor)
        db.relate("Contained", contained=p, container=q)
        db.relate("Contained", contained=q, container=p)
        # while P is an uninherited pattern both edges expand to nothing
        assert db.check_consistency() == []
        with pytest.raises(ConsistencyError) as excinfo:
            db.unmark_pattern(p)
        assert any(v.kind == "acyclic" for v in excinfo.value.violations)
        assert p.is_pattern  # rolled back
        db.indexes.verify()
        assert db.check_consistency() == []

    def test_acyclic_below_family_root_uses_full_check(self):
        """ACYCLIC on a specialization: edges of the unconstrained
        general may predate the transaction, so the incremental
        shortcut must not be trusted — the full family check runs."""
        builder = SchemaBuilder("subacyclic")
        builder.entity_class("Node")
        builder.association(
            "Link", ("src", "Node", "0..*"), ("dst", "Node", "0..*")
        )
        builder.association(
            "Tight",
            ("tsrc", "Node", "0..*"),
            ("tdst", "Node", "0..*"),
            acyclic=True,
            specializes="Link",
        )
        db = SeedDatabase(builder.build(), "subacyclic")
        a = db.create_object("Node", "A")
        b = db.create_object("Node", "B")
        c = db.create_object("Node", "C")
        d = db.create_object("Node", "D")
        # Link is not ACYCLIC, so this cycle commits unchecked
        db.relate("Link", src=a, dst=b)
        db.relate("Link", src=b, dst=a)
        tight = db.schema.association("Tight")
        # any Tight creation must notice the family cycle (as the seed's
        # full DFS did), even though the new edge itself is harmless
        with pytest.raises(ConsistencyError) as excinfo:
            db.relate("Tight", tsrc=c, tdst=d)
        assert any(v.kind == "acyclic" for v in excinfo.value.violations)
        assert db.consistency.validate_acyclic(tight) != []  # pre-existing
        db.indexes.verify()

    def test_unmark_pattern_recovers_suppressed_cycle(self, spades_db):
        db = spades_db
        top = db.create_object("Action", "Top")
        top.add_sub_object("Description", "x")
        hidden = db.create_object("Action", "Hidden", pattern=True)
        # the relationships are in pattern context only through the
        # pattern endpoint, so un-marking it turns them into real edges
        db.relate("Contained", contained=top, container=hidden)
        db.relate("Contained", contained=hidden, container=top)
        # pattern edges are invisible: the database stays consistent
        assert db.check_consistency() == []
        with pytest.raises(ConsistencyError) as excinfo:
            db.unmark_pattern(hidden)
        assert any(v.kind == "acyclic" for v in excinfo.value.violations)
        db.indexes.verify()
        assert hidden.is_pattern  # the rollback restored the flag


# ----------------------------------------------------------------------
# lazy retrieval variants
# ----------------------------------------------------------------------


class TestLazyRetrieval:
    @pytest.fixture
    def populated(self):
        builder = SchemaBuilder("lazy")
        builder.entity_class("Item", sort=None)
        schema = builder.build()
        db = SeedDatabase(schema, "lazy")
        for i in range(25):
            db.create_object("Item", f"Item{i}")
        return db

    def test_iter_instances_is_lazy_and_complete(self, populated):
        retrieval = Retrieval(populated)
        iterator = retrieval.iter_instances("Item")
        assert next(iterator).simple_name == "Item0"  # no full materialisation
        remaining = list(iterator)
        assert len(remaining) == 24

    def test_by_name_prefix_sorted_and_bisected(self, populated):
        retrieval = Retrieval(populated)
        names = [o.simple_name for o in retrieval.by_name_prefix("Item1")]
        assert names == sorted(names)
        assert len(names) == 11  # Item1 and Item10..Item19

    def test_name_prefix_count_matches_retrieval(self, populated):
        retrieval = Retrieval(populated)
        for prefix in ("Item1", "Item", "Nope", ""):
            assert populated.indexes.name_prefix_count(prefix) == len(
                retrieval.by_name_prefix(prefix)
            )


class TestMaxCodePointPrefixes:
    """Prefixes ending in U+10FFFF have no same-length successor: the
    naive ``prefix[:-1] + chr(ord(last) + 1)`` upper bound raised
    ``ValueError``. The successor now strips trailing maxima (and a
    prefix of only maxima scans to the end of the list)."""

    @pytest.fixture
    def populated(self):
        builder = SchemaBuilder("maxchar")
        builder.entity_class("Item")
        db = SeedDatabase(builder.build(), "maxchar")
        for i in range(8):
            db.create_object("Item", f"Item{i}")
        return db

    @pytest.mark.parametrize(
        "prefix",
        [
            "Item" + chr(0x10FFFF),
            "Item" + chr(0x10FFFF) * 2,
            chr(0x10FFFF),
            chr(0x10FFFF) * 3,
            "Item3" + chr(0x10FFFF),
        ],
    )
    def test_round_trip_through_every_prefix_path(self, populated, prefix):
        retrieval = Retrieval(populated)
        expected = [
            name
            for name in populated.indexes.names
            if name.startswith(prefix)
        ]
        assert populated.indexes.names_with_prefix(prefix) == expected
        assert populated.indexes.name_prefix_count(prefix) == len(expected)
        assert retrieval.by_name_prefix(prefix) == []

    def test_max_code_point_names_in_the_index(self, populated):
        # the index layer itself accepts arbitrary strings (it mirrors
        # whatever the name index holds); bounds must stay exact when
        # indexed names themselves contain the maximum code point
        top = chr(0x10FFFF)
        for synthetic in ("Item" + top, "Item" + top + "x", top, top * 2):
            populated.indexes.add_name(synthetic)
        names = populated.indexes.names
        assert names == sorted(names)
        for prefix in ("Item", "Item" + top, top, top * 2, top * 3, ""):
            expected = [n for n in names if n.startswith(prefix)]
            assert populated.indexes.names_with_prefix(prefix) == expected
            assert populated.indexes.name_prefix_count(prefix) == len(expected)


# ----------------------------------------------------------------------
# index oracle: every accessor against a full scan, over seeded histories
# ----------------------------------------------------------------------


def assert_accessors_match_scans(db: SeedDatabase) -> None:
    """Every index accessor equals the brute-force answer from the records."""
    indexes = db.indexes
    live = [obj for obj in db.all_objects_raw() if not obj.deleted]
    normal = brute_relationships(db)
    distinct = brute_participation_distinct(db)
    for association in db.schema.associations:
        name = association.name
        members = [rel for rel in normal if rel.association.is_kind_of(association)]
        for position in (0, 1):
            counts: dict[int, int] = {}
            for rel in members:
                oid = rel.bound_at(position).oid
                counts[oid] = counts.get(oid, 0) + 1
            for obj in live:
                assert indexes.participations(name, obj.oid, position) == counts.get(
                    obj.oid, 0
                ), (name, obj.oid, position)
            assert indexes.distinct_participants(name, position) == distinct.get(
                (name, position), 0
            )
        assert indexes.association_size(name) == len(members)
    for element_name, position in distinct:  # the recount's keys, the other way
        assert indexes.distinct_participants(element_name, position) == distinct[
            (element_name, position)
        ]
    roots = {association.family_root() for association in db.schema.associations}
    for root in roots:
        family = [rel for rel in normal if rel.association.is_kind_of(root)]
        edges = sorted((rel.bound_at(0).oid, rel.bound_at(1).oid) for rel in family)
        assert sorted(indexes.normal_edges(root.name)) == edges
        for obj in live:
            assert set(indexes.successors(root.name, obj.oid)) == {
                target for source, target in edges if source == obj.oid
            }
    for rel in db.all_relationships_raw():
        root_name = rel.association.family_root().name
        as_pattern = rel.rid in indexes.pattern_rids.get(root_name, ())
        as_normal = rel.rid in indexes.family_rids.get(root_name, ())
        if rel.deleted:
            assert not (as_pattern or as_normal), rel
        else:
            assert (as_pattern, as_normal) == (
                rel.in_pattern_context,
                not rel.in_pattern_context,
            ), rel


def _oracle_step(
    db: SeedDatabase, rng: random.Random, counter: list[int], batched: bool = False
) -> None:
    """One random update of the figure-3 database; rejections are fine.

    A *batched* step (inside ``bulk()``, where consistency is checked
    once at the end and a failed update dooms the batch) only makes
    updates that cannot be rejected: no containment, no pattern
    inheritance or un-marking, no nested unit of work.
    """

    def live(*class_names: str) -> list:
        return [
            obj
            for obj in db.all_objects_raw()
            if not obj.deleted
            and obj.parent is None
            and (not class_names or obj.entity_class.name in class_names)
        ]

    counter[0] += 1
    op = rng.randrange(12)
    if op <= 2 or not live():
        name = f"O{counter[0]}"
        obj = db.create_object(
            rng.choice(["Data", "InputData", "OutputData", "Action", "Thing"]),
            name,
            pattern=rng.random() < 0.15,
        )
        if obj.entity_class.name == "Action":
            obj.add_sub_object("Description", name)
        return
    if op <= 5:
        actions = live("Action")
        if not actions:
            return
        choice = rng.randrange(1 if batched else 0, 4)
        if choice == 0 and len(actions) >= 2:
            contained, container = rng.sample(actions, 2)
            db.relate("Contained", contained=contained, container=container)
        elif choice == 1 and live("InputData"):
            inputs = live("InputData")
            db.relate("Read", {"from": rng.choice(inputs), "by": rng.choice(actions)})
        elif choice == 2 and live("OutputData"):
            db.relate(
                "Write",
                to=rng.choice(live("OutputData")),
                by=rng.choice(actions),
                attributes={"NumberOfWrites": 1},
            )
        elif live("Data", "InputData", "OutputData"):
            db.relate(
                "Access",
                data=rng.choice(live("Data", "InputData", "OutputData")),
                by=rng.choice(actions),
                pattern=rng.random() < 0.1,
            )
        return
    rels = [rel for rel in db.all_relationships_raw() if not rel.deleted]
    if op == 6:
        db.delete(rng.choice(rels) if rels and rng.random() < 0.5 else rng.choice(live()))
    elif op == 7:
        obj = rng.choice(live())
        refinement = {"Thing": ["Data", "Action"], "Data": ["InputData", "OutputData"]}
        if obj.entity_class.name in refinement:
            db.reclassify(obj, rng.choice(refinement[obj.entity_class.name]))
        accesses = [rel for rel in rels if rel.association.name == "Access"]
        if accesses:
            rel = rng.choice(accesses)
            target = {"InputData": "Read", "OutputData": "Write"}.get(
                rel.bound_at(0).entity_class.name
            )
            if target is not None:
                db.reclassify(rel, target)
    elif op == 8:
        obj = rng.choice(live())
        if obj.is_pattern and not batched:
            db.unmark_pattern(obj)
        elif not obj.is_pattern:
            db.mark_pattern(obj)
    elif op == 9 and not batched:
        patterns = [obj for obj in live() if obj.is_pattern]
        normals = [obj for obj in live() if not obj.in_pattern_context]
        if patterns and normals:
            pattern, inheritor = rng.choice(patterns), rng.choice(normals)
            if pattern.oid in inheritor.inherited_patterns:
                db.uninherit(pattern, inheritor)
            else:
                db.inherit(pattern, inheritor)
    elif op == 10 and not batched:
        # a unit of work that is rolled back after a few updates
        with pytest.raises(SeedError):
            with db.transaction():
                for __ in range(rng.randrange(1, 4)):
                    try:
                        _oracle_step(db, rng, counter)
                    except (ConsistencyError, SeedError):
                        pass
                raise SeedError("roll the unit back")
    elif rels and rng.random() < 0.5:
        db.delete(rng.choice(rels))


class TestIndexOracle:
    """Over seeded histories every accessor equals a full scan."""

    @pytest.mark.parametrize("seed", [5, 29, 71])
    def test_seeded_history(self, seed):
        db = SeedDatabase(figure3_schema(), f"oracle-{seed}")
        rng = random.Random(seed)
        counter = [0]
        for step in range(160):
            try:
                _oracle_step(db, rng, counter)
            except (ConsistencyError, SeedError):
                pass
            if step % 20 == 19:
                assert_accessors_match_scans(db)
                db.indexes.verify()
        assert_accessors_match_scans(db)

    @pytest.mark.parametrize("seed", [3, 44])
    def test_bulk_batches_with_a_mid_batch_read(self, seed):
        db = SeedDatabase(figure3_schema(), f"oracle-bulk-{seed}")
        rng = random.Random(seed)
        counter = [0]
        for __ in range(80):
            try:
                _oracle_step(db, rng, counter)
            except (ConsistencyError, SeedError):
                pass
        with db.bulk():
            for step in range(60):
                try:
                    _oracle_step(db, rng, counter, batched=True)
                except (ConsistencyError, SeedError):
                    pass
                if step == 30:
                    # a read of the suspended, stale layer rebuilds it
                    assert_accessors_match_scans(db)
        assert_accessors_match_scans(db)
        db.indexes.verify()


class TestSnapshotCoverage:
    def test_snapshot_covers_every_stored_structure(self, fig1_db):
        layer = fig1_db.indexes
        state = {
            name
            for name in vars(layer)
            if name not in ("_db", "_suspended", "_stale")
        }
        assert set(layer.snapshot()) == set(layer.STORED) == state

    def test_verify_catches_a_corrupted_counter_under_optimization(self, tmp_path):
        """``verify()`` raises, not asserts, so ``python -O`` keeps the check."""
        script = tmp_path / "corrupt.py"
        script.write_text(
            "from repro.core import SeedDatabase, figure2_schema\n"
            "db = SeedDatabase(figure2_schema(), 'corrupt')\n"
            "data = db.create_object('Data', 'D')\n"
            "action = db.create_object('Action', 'A')\n"
            "db.relate('Read', {'from': data, 'by': action})\n"
            "db.indexes.verify()\n"
            "db.indexes.assoc_counts['Read'] += 1\n"
            "try:\n"
            "    db.indexes.verify()\n"
            "except AssertionError as exc:\n"
            "    print('caught', exc)\n"
            "    raise SystemExit(3)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-O", str(script)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 3, result.stdout + result.stderr
        assert "index 'assoc_counts' diverged" in result.stdout
