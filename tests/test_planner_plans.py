"""Optimizer soundness and plan determinism.

Property tests: selection pushdown, indexed-scan rewrites, and join
reordering never change result multisets (optimized vs. unoptimized
execution of the same plan); ``explain()`` is deterministic across
plan objects, runs, and identically-built databases (golden snapshots).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from _planner_gen import build_population, random_query, row_multiset
from repro.core.database import SeedDatabase
from repro.core.errors import QueryError
from repro.core.indexes import brute_objects, brute_relationships
from repro.core.query import planner
from repro.core.query.planner import (
    ExtentScan,
    IndexJoin,
    Join,
    PlanNode,
    RelScan,
    Reorder,
    Select,
    on,
    plan,
)
from repro.core.query.predicates import both, name_prefix, participates_in
from repro.core.query.retrieval import Retrieval
from repro.spades.model import spades_schema


def make_db() -> SeedDatabase:
    """A small deterministic figure-1-style database."""
    db = SeedDatabase(spades_schema(), "plans")
    alarms = db.create_object("OutputData", "Alarms")
    status = db.create_object("InputData", "Status")
    db.create_object("Data", "Config")
    handler = db.create_object("Action", "Handler")
    handler.add_sub_object("Description", "handles")
    monitor = db.create_object("Action", "Monitor")
    monitor.add_sub_object("Description", "monitors")
    db.relate("Write", {"to": alarms, "by": handler}, attributes={"NumberOfWrites": 2})
    db.relate("Read", {"from": status, "by": handler})
    db.relate("Read", {"from": status, "by": monitor})
    db.relate("Triggers", trigger=handler, triggered=monitor)
    text = alarms.add_sub_object("Text")
    text.add_sub_object("Body").add_sub_object("Contents", "alarm matrix")
    text.add_sub_object("Selector", "Representation")
    return db


@pytest.fixture(scope="module")
def db():
    return make_db()


class TestGoldenPlans:
    def test_conjunction_absorbed_into_indexed_scan(self, db):
        # the longer of two compatible prefixes drives the scan; what is
        # not a prefix stays a filter over the scanned rows
        absorbed = (
            plan(db)
            .extent("Data", column="d")
            .select(on("d", both(name_prefix("Al"), name_prefix("Alarm"))))
        )
        assert absorbed.explain() == "ExtentScan Data as d prefix='Alarm'  est~1"
        query = (
            plan(db)
            .extent("Data", column="d")
            .select(
                on("d", both(name_prefix("Al"), participates_in("Write", "to")))
            )
        )
        assert query.explain() == "\n".join(
            [
                "Select d: participates_in(Write, to)  est~1",
                "└─ ExtentScan Data as d prefix='Al'  est~1",
            ]
        )
        assert [row[0].simple_name for row in query.execute().rows] == ["Alarms"]

    def test_selection_pushed_through_renames(self, db):
        query = (
            plan(db)
            .relationship("Read")
            .rename(**{"from": "d"})
            .rename(by="reader")
            .select(on("reader", name_prefix("Hand")))
        )
        assert query.explain() == "\n".join(
            [
                "Rename by->reader  est~1",
                "└─ Rename from->d  est~1",
                "   └─ Select by: name^='Hand'  est~1",
                "      └─ RelScan Read (from, by)  est~2",
            ]
        )
        assert [
            (row[0].simple_name, row[1].simple_name) for row in query.execute().rows
        ] == [("Status", "Handler")]

    def test_selection_pushed_through_multiway_join(self, db):
        query = (
            plan(db)
            .extent("Data", column="data")
            .join(
                plan(db)
                .relationship("Read")
                .rename(**{"from": "data"})
                .rename(by="reader")
            )
            .join(
                plan(db)
                .relationship("Write")
                .rename(to="data")
                .rename(by="writer")
            )
            .select(on("data", name_prefix("St")))
        )
        assert query.explain() == "\n".join(
            [
                "Join on [data]  est~1",
                "├─ Join on [data]  est~1",
                "│  ├─ ExtentScan Data as data prefix='St'  est~1",
                "│  └─ Rename by->reader  est~1",
                "│     └─ Rename from->data  est~1",
                "│        └─ Select from: name^='St'  est~1",
                "│           └─ RelScan Read (from, by)  est~2",
                "└─ Rename by->writer  est~1",
                "   └─ Rename to->data  est~1",
                "      └─ Select to: name^='St'  est~1",
                "         └─ RelScan Write (to, by)  est~1",
            ]
        )

class TestDeterminism:
    def test_explain_stable_across_calls_and_plan_objects(self, db):
        def build():
            return (
                plan(db)
                .extent("Thing", column="t")
                .select(on("t", name_prefix("Al")))
                .join(plan(db).relationship("Access").rename(data="t"))
            )

        first = build().explain()
        assert build().explain() == first
        assert build().explain() == first  # repeated optimization runs

    def test_explain_stable_across_identical_databases(self):
        queries = []
        for __ in range(2):
            fresh = make_db()
            queries.append(
                plan(fresh)
                .extent("Data", column="data")
                .join(plan(fresh).relationship("Access"))
                .select(on("data", name_prefix("Al")))
                .explain()
            )
        assert queries[0] == queries[1]

    def test_random_query_explains_are_deterministic(self):
        db = build_population(7)
        for seed in range(10):
            first = random_query(random.Random(seed), db)
            second = random_query(random.Random(seed), db)
            assert first.plan.explain() == second.plan.explain()


class TestOptimizerSoundness:
    """Pushdown and reordering never change result multisets."""

    @pytest.mark.parametrize("population_seed", (11, 12, 13))
    def test_optimized_equals_unoptimized(self, population_seed):
        db = build_population(population_seed)
        rng = random.Random(population_seed * 733)
        for __ in range(12):
            query = random_query(rng, db)
            optimized = query.plan.execute(optimized=True)
            raw = query.plan.execute(optimized=False)
            assert row_multiset(optimized) == row_multiset(raw), (
                query.plan.explain()
            )

    def test_join_reorder_restores_column_order(self, db):
        # the Thing extent is the largest input, so the greedy order
        # starts from the Access scan instead — which flips the column
        # layout, and a Reorder must restore the original one
        query = (
            plan(db)
            .extent("Thing", column="by")
            .join(plan(db).relationship("Access"))
            .join(plan(db).extent("Data", column="data"))
        )
        optimized = query.optimized()
        assert isinstance(optimized, Reorder)
        assert query.execute().columns == ("by", "data")
        raw = query.execute(optimized=False)
        assert row_multiset(query.execute()) == row_multiset(raw)

    def test_incompatible_prefixes_keep_filter(self, db):
        query = (
            plan(db)
            .extent("Data", column="d")
            .select(on("d", name_prefix("Al")))
            .select(on("d", name_prefix("St")))
        )
        optimized = query.optimized()
        # one prefix lands in the scan, the contradictory one stays a filter
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, ExtentScan)
        assert len(query.execute()) == 0

    def test_opaque_predicates_are_not_pushed_into_scans(self, db):
        def starts_with_a(row):
            return str(row["d"].name).startswith("A")

        query = plan(db).extent("Data", column="d").select(starts_with_a)
        optimized = query.optimized()
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, ExtentScan)
        assert optimized.child.prefix is None
        assert {row["d"].simple_name for row in query} == {"Alarms"}

    def test_plan_validation_mirrors_relation_errors(self, db):
        base = plan(db).extent("Data", column="d")
        with pytest.raises(QueryError, match="no column"):
            base.project("nope")
        with pytest.raises(QueryError, match="duplicate column"):
            plan(db).relationship("Access").rename(data="by")
        with pytest.raises(QueryError, match="duplicate column"):
            plan(db).relationship("Access").project("by", "by")


class TestStatisticsAccessors:
    """The cost model's statistics must agree with brute-force counts."""

    def test_extent_size(self):
        db = build_population(21)
        for class_name in ("Thing", "Data", "Action", "OutputData"):
            wanted = db.schema.entity_class(class_name)
            assert db.indexes.extent_size(wanted) == len(
                brute_objects(db, class_name)
            )

    def test_association_size(self):
        db = build_population(22)
        for association in ("Access", "Read", "Write", "Contained", "Triggers"):
            assert db.indexes.association_size(association) == len(
                brute_relationships(db, association)
            )

    def test_name_prefix_count(self):
        db = build_population(23)
        retrieval = Retrieval(db)
        for prefix in ("Al", "Handle", "Mo", "Zz", ""):
            assert db.indexes.name_prefix_count(prefix) == len(
                retrieval.by_name_prefix(prefix)
            )


class TestRetrievalWiring:
    def test_plan_accessor(self, db):
        retrieval = Retrieval(db)
        result = retrieval.plan().extent("Data", column="d").execute()
        assert len(result) == 3

    def test_by_name_prefix_uses_name_index(self, db):
        retrieval = Retrieval(db)
        indexed = retrieval.by_name_prefix("Al")
        brute = sorted(
            (
                obj
                for obj in db.iter_objects()
                if obj.parent is None and str(obj.name).startswith("Al")
            ),
            key=lambda obj: str(obj.name),
        )
        assert [o.oid for o in indexed] == [o.oid for o in brute] != []
        # sub-objects are not in the name index
        assert retrieval.by_name_prefix("Alarms.Text") == []

    def test_instances_of_a_specialization(self, db):
        retrieval = Retrieval(db)
        assert [o.simple_name for o in retrieval.instances("OutputData")] == ["Alarms"]
        data = {o.simple_name for o in retrieval.instances("Data")}
        assert data == {"Alarms", "Status", "Config"}
        lazy = retrieval.iter_instances("Data", participates_in("Read"))
        assert [o.simple_name for o in lazy] == ["Status"]


class TestPlanCache:
    """The per-database plan cache: hits, invalidation, soundness."""

    def test_repeated_plan_object_hits(self):
        from repro.core.query.planner import plan_cache

        db = make_db()
        cache = plan_cache(db)
        query = (
            plan(db)
            .extent("Data", column="d")
            .select(on("d", name_prefix("Al")))
            .project("d")
        )
        first = query.optimized()
        assert cache.misses == 1 and cache.hits == 0
        second = query.optimized()
        assert cache.hits == 1
        assert second is first, "cache hits return the memoized tree"

    def test_structurally_equal_rebuild_hits(self):
        from repro.core.query.planner import plan_cache

        db = make_db()
        cache = plan_cache(db)

        def build():
            return (
                plan(db)
                .extent("Data", column="d")
                .select(on("d", name_prefix("Al")))
                .join(plan(db).relationship("Write").rename(to="d"))
            )

        rows_first = sorted(
            tuple(str(c) for c in row) for row in build().execute().rows
        )
        assert cache.misses == 1
        rows_second = sorted(
            tuple(str(c) for c in row) for row in build().execute().rows
        )
        # structured predicates compare by value: fresh Plan, same key
        assert cache.hits >= 1
        assert rows_first == rows_second

    def test_opaque_predicates_key_by_identity(self):
        from repro.core.query.planner import plan_cache

        db = make_db()
        cache = plan_cache(db)
        base = plan(db).extent("Data", column="d")
        first = base.select(lambda row: True)
        second = base.select(lambda row: True)  # fresh lambda: new key
        first.optimized()
        second.optimized()
        assert cache.misses == 2 and cache.hits == 0
        first.optimized()
        assert cache.hits == 1

    def test_unhashable_predicate_bypasses(self):
        from repro.core.query.planner import plan_cache

        class Unhashable:
            __hash__ = None

            def __call__(self, row):
                return True

        db = make_db()
        cache = plan_cache(db)
        query = plan(db).extent("Data", column="d").select(
            on("d", Unhashable())
        )
        query.optimized()
        assert cache.bypasses == 1 and len(cache) == 0

    def test_migration_invalidates(self):
        from repro.core.query.planner import plan_cache
        from repro.spades.model import spades_schema

        db = make_db()
        cache = plan_cache(db)
        query = plan(db).extent("Data", column="d")
        query.optimized()
        assert len(cache) == 1
        epoch_before = db.versions.current_schema_index
        db.migrate_schema(spades_schema())
        assert len(cache) == 0, "migration clears the cache"
        assert db.versions.current_schema_index == epoch_before + 1
        query = plan(db).extent("Data", column="d")
        query.optimized()
        assert cache.hits == 1 or cache.misses >= 2  # fresh entry, new epoch

    def test_cached_plan_stays_sound_as_data_changes(self):
        db = make_db()
        query = (
            plan(db)
            .extent("Data", column="d")
            .select(on("d", name_prefix("New")))
        )
        assert query.execute().rows == ()
        db.create_object("InputData", "NewInput")
        rows = query.execute().rows  # served via the cached plan
        assert [str(row[0].name) for row in rows] == ["NewInput"]

    def test_lru_eviction(self, monkeypatch):
        from repro.core.query.planner import plan_cache

        db = make_db()
        cache = plan_cache(db)
        monkeypatch.setattr(planner, "CAPACITY", 2)
        for prefix in ("A", "B", "C"):
            plan(db).extent("Data", column="d").select(
                on("d", name_prefix(prefix))
            ).optimized()
        assert len(cache) == 2
        # "A" was evicted: optimizing it again misses
        misses_before = cache.misses
        plan(db).extent("Data", column="d").select(
            on("d", name_prefix("A"))
        ).optimized()
        assert cache.misses == misses_before + 1


class TestTreeWalk:
    """The tree shape is said once: ``PlanNode.children``, off the fields."""

    def test_new_unary_node_is_keyed_rewritten_and_rendered(self, db):
        # a node type the planner has never heard of
        @dataclass(frozen=True, eq=False)
        class Tagged(PlanNode):
            child: PlanNode
            tag: str

        def tagged(tag: str, prefix: str) -> Tagged:
            scan = plan(db).extent("Data", column="d")
            return Tagged(scan.select(on("d", name_prefix(prefix))).node, tag)

        node = tagged("t", "Al")
        assert node.children == (node.child,)
        key = planner._plan_key(node)
        assert key == planner._plan_key(tagged("t", "Al"))
        assert key != planner._plan_key(tagged("u", "Al"))
        assert key != planner._plan_key(tagged("t", "St"))
        # the mapper walked through it: the selection underneath became
        # the indexed scan, the node itself was rebuilt around it
        optimized = planner.optimize(db, node)
        assert isinstance(optimized, Tagged) and optimized.tag == "t"
        assert isinstance(optimized.child, ExtentScan)
        assert optimized.child.prefix == "Al"
        assert planner.explain(db, optimized) == "\n".join(
            [
                "Tagged  est~1",
                "└─ ExtentScan Data as d prefix='Al'  est~1",
            ]
        )

    def test_index_join_scan_side_is_a_child_but_not_a_branch(self, db):
        drive = ExtentScan("Action", "by", "Han")
        scan = Select(RelScan("Read"), on("from", name_prefix("St")))
        join = IndexJoin(drive, scan, "by")
        assert join.children == (drive, scan)
        other = Select(RelScan("Read"), on("from", name_prefix("Zz")))
        assert planner._plan_key(join) != planner._plan_key(
            IndexJoin(drive, other, "by")
        )
        swapped = planner._rebuilt(
            join, lambda child: other if child is scan else child
        )
        assert (swapped.drive, swapped.scan, swapped.column) == (drive, other, "by")
        # explain() renders the scan side in the label, the drive below
        assert planner.explain(db, join) == "\n".join(
            [
                "IndexJoin Read.by filter from: name^='St'  est~1",
                "└─ ExtentScan Action as by prefix='Han'  est~1",
            ]
        )
