"""Pooled-scan equivalence, determinism, and failure handling.

The fused kernel (:mod:`repro.core.query.parallel`) runs every
shardable scan, in-thread or pooled; the pooled runs must be
row-multiset identical to the eager ``Relation`` algebra for *any*
query, across shard counts — including mid-transaction
reads and the vague/undefined data shapes the randomized planner
populations carry — and row-*order* identical to the in-thread run.
Beyond equivalence, this suite pins down:

* explain determinism — the ``Parallel`` rendering is byte-identical
  run to run;
* the costing constants — small scans never reach a pool under the
  shipped ``THRESHOLD`` / ``DISPATCH_OVERHEAD``;
* host selection — a host without ``fork`` or with one CPU plans every
  scan in-thread;
* the failure contract — failpoint-injected I/O errors, poisoned
  (exiting) workers, and hung workers end in an in-thread run of the
  same kernel, and :class:`~repro.core.faults.SimulatedCrash` always
  propagates;
* pool hygiene — structured predicates pickle round-trip.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import random
import time

import pytest

from _planner_gen import (
    FunctionPredicate,
    build_population,
    random_query,
    row_multiset,
)
from repro.core import SchemaBuilder, SeedDatabase
from repro.core import faults
from repro.core.errors import QueryError
from repro.core.query import parallel as parallel_mod
from repro.core.query.parallel import ParallelConfig
from repro.core.query.planner import (
    Parallel,
    Plan,
    on,
    plan,
    plan_cache,
)
from repro.core.query.predicates import (
    And,
    NamePrefix,
    ParticipatesIn,
    ValueEquals,
    both,
    name_prefix,
    value_is,
)


@pytest.fixture
def force_pool(monkeypatch):
    """Send every shardable scan to the pool, however small, on any
    host that forks.

    The cost constants are module state, so a plan cached under the
    shipped values would be served stale: the shared populations' plan
    caches are emptied on the way in and on the way out.
    """

    def clear_caches():
        for db in _populations.values():
            plan_cache(db).clear()

    clear_caches()
    monkeypatch.setattr(parallel_mod, "THRESHOLD", 0)
    monkeypatch.setattr(parallel_mod, "DISPATCH_OVERHEAD", 0)
    monkeypatch.setattr(parallel_mod, "host_can_pool", lambda: True)
    yield
    clear_caches()


_MAIN_PID = os.getpid()


def _sleepy(obj) -> bool:
    time.sleep(0.05)
    return True


def _exit_in_worker(obj) -> bool:
    """Kill forked workers abruptly; behave normally in the parent."""
    if os.getpid() != _MAIN_PID:
        os._exit(3)
    return True


def _name_ends_in_0_or_2(obj) -> bool:
    return str(obj.name).endswith(("0", "2"))


def _has_a_value(obj) -> bool:
    return obj.value is not None


def _not_tag4(row) -> bool:
    return row["note"].value != "tag4"


def notes_tagged(builder, tag: str):
    """σ value = *tag* over the Note extent, from *builder*."""
    return builder.extent("Note", column="note").select(on("note", value_is(tag)))


def count_parallel(node) -> int:
    total = 1 if isinstance(node, Parallel) else 0
    return total + sum(count_parallel(child) for child in node.children)


def small_db(size: int = 120) -> SeedDatabase:
    schema = (
        SchemaBuilder("par")
        .entity_class("Doc")
        .entity_class("Note", sort="STRING")
        .association("Covers", ("doc", "Doc", "0..*"), ("note", "Note", "0..*"))
        .build()
    )
    db = SeedDatabase(schema, name="par")
    objects = [
        {"class": "Note", "name": f"N{i}", "value": f"tag{i % 5}"}
        for i in range(size)
    ]
    objects += [{"class": "Doc", "name": f"D{i}"} for i in range(max(size // 10, 1))]
    relationships = [
        {
            "association": "Covers",
            "bindings": {"doc": f"D{i % max(size // 10, 1)}", "note": f"N{i}"},
        }
        for i in range(size)
    ]
    db.bulk_load(objects, relationships)
    return db


_populations: dict[int, object] = {}


def population(seed: int):
    if seed not in _populations:
        _populations[seed] = build_population(seed)
    return _populations[seed]


@pytest.mark.usefixtures("force_pool")
class TestRandomizedParallelEquivalence:
    """Pooled vs. eager on the seeded random populations/queries.

    Shard counts {1, 2, 7} rotate deterministically through the
    (population, query) grid, so every count is exercised without
    forking a pool per case.
    """

    CASES = [
        (population_seed, query_seed)
        for population_seed in range(8)
        for query_seed in range(4)
    ]
    GRID = (1, 2, 7)

    @pytest.mark.parametrize("population_seed,query_seed", CASES)
    def test_parallel_matches_serial(self, population_seed, query_seed):
        db = population(population_seed)
        rng = random.Random(population_seed * 1009 + query_seed)
        query = random_query(rng, db)
        shards = self.GRID[
            (population_seed * len(self.CASES) // 8 + query_seed) % len(self.GRID)
        ]
        pooled = Plan(db, query.plan.node, ParallelConfig(shards=shards))
        parallel_result = pooled.execute()
        assert parallel_result.columns == query.relation.columns
        assert row_multiset(parallel_result) == row_multiset(query.relation), (
            f"parallel ({shards} shards) diverged for population "
            f"{population_seed}, query {query_seed}:\n{pooled.explain()}"
        )

    def test_grid_actually_parallelizes(self):
        """Coverage guard: the forced constants do wrap scans — of most
        of the grid's queries (a plan read wholly through the name and
        incidence indexes has no scan to wrap)."""
        config = ParallelConfig(shards=2)
        wrapped = 0
        for population_seed, query_seed in self.CASES:
            db = population(population_seed)
            rng = random.Random(population_seed * 1009 + query_seed)
            query = random_query(rng, db)
            pooled = Plan(db, query.plan.node, config)
            wrapped += bool(count_parallel(pooled.optimized()))
        assert wrapped > len(self.CASES) // 2


@pytest.mark.usefixtures("force_pool")
class TestDirectedSemantics:
    def setup_method(self):
        parallel_mod.stats.reset()

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_range_split_preserves_serial_row_order(self, shards):
        db = small_db()
        serial_rows = list(notes_tagged(plan(db), "tag3").rows())
        config = ParallelConfig(shards=shards)
        parallel_rows = list(notes_tagged(plan(db, config), "tag3").rows())
        assert parallel_rows == serial_rows  # order, not just multiset

    def test_mid_transaction_reads(self):
        db = small_db(40)
        serial = notes_tagged(plan(db), "fresh")
        pooled = notes_tagged(plan(db, ParallelConfig(shards=2)), "fresh")
        with db.transaction():
            created = db.create_object("Note", "Uncommitted")
            created.set_value("fresh")
            inside = pooled.execute()
            assert row_multiset(inside) == row_multiset(serial.execute())
            assert any(
                str(cell.name) == "Uncommitted" for (cell,) in inside.rows
            )
        assert parallel_mod.stats.dispatched_shards == 2

    def test_structured_and_opaque_predicates_compose(self):
        db = small_db()
        opaque = FunctionPredicate(_name_ends_in_0_or_2, "name-suffix")
        defined = FunctionPredicate(_has_a_value, "defined")

        def query(builder):
            return (
                builder.extent("Note", column="note")
                .select(on("note", both(defined, name_prefix("N"))))
                .select(on("note", opaque))
                .select(_not_tag4)
            )

        pooled = query(plan(db, ParallelConfig(shards=4))).execute()
        assert row_multiset(pooled) == row_multiset(query(plan(db)).execute())
        # shard-order merge against the database's own scan order
        assert [obj for (obj,) in pooled.rows] == [
            obj
            for obj in db.iter_objects("Note")
            if obj.value not in (None, "tag4")
            and str(obj.name).endswith(("0", "2"))
        ]
        stats = parallel_mod.stats
        assert (stats.dispatched_shards, stats.fallbacks) == (4, 0)

    def test_join_over_parallel_leaf(self):
        db = small_db()

        def query(builder):
            return (
                notes_tagged(builder, "tag1")
                .join(builder.relationship("Covers"))
                .project("doc")
            )

        pooled = query(plan(db, ParallelConfig(shards=3))).execute()
        assert row_multiset(pooled) == row_multiset(query(plan(db)).execute())
        assert parallel_mod.stats.dispatched_shards > 0
        assert parallel_mod.stats.fallbacks == 0


class TestCostModel:
    def test_small_scans_stay_serial_under_default_config(self):
        db = small_db()  # far below the 100k threshold
        query = (
            plan(db, ParallelConfig())
            .extent("Note", column="note")
            .select(on("note", value_is("tag1")))
        )
        assert count_parallel(query.optimized()) == 0

    def test_shipped_constants(self):
        # bench/workloads/query_mix.py sizes its population against these
        assert parallel_mod.THRESHOLD == 100_000
        assert parallel_mod.DISPATCH_OVERHEAD == 25_000
        assert parallel_mod.TIMEOUT_S == 60.0

    def test_threshold_zero_parallelizes(self, force_pool):
        db = small_db()
        query = plan(db, ParallelConfig()).extent("Note", column="note")
        assert count_parallel(query.optimized()) == 1

    def test_dispatch_overhead_blocks_non_paying_scans(self, monkeypatch):
        db = small_db(100)
        query = plan(db, ParallelConfig(shards=2)).extent("Note", column="note")
        # threshold passes, but S/shards + overhead >= S: never pays
        monkeypatch.setattr(parallel_mod, "THRESHOLD", 0)
        monkeypatch.setattr(parallel_mod, "DISPATCH_OVERHEAD", 10_000)
        assert count_parallel(query.optimized()) == 0

    def test_prefix_scans_are_not_sharded(self, force_pool):
        db = small_db()
        query = (
            plan(db, ParallelConfig())
            .extent("Note", column="note")
            .select(on("note", name_prefix("N1")))
        )
        # the rewrite wins: a bisected prefix scan stays serial
        assert count_parallel(query.optimized()) == 0
        assert "prefix='N1'" in query.explain()

    def test_cache_keeps_serial_and_parallel_plans_apart(self, force_pool):
        db = small_db()
        serial = plan(db).extent("Note", column="note")
        pooled = Plan(db, serial.node, ParallelConfig())
        serial_tree = serial.optimized()
        parallel_tree = pooled.optimized()
        assert count_parallel(serial_tree) == 0
        assert count_parallel(parallel_tree) == 1
        # both entries are cached independently and served stably
        assert serial.optimized() is serial_tree
        assert pooled.optimized() is parallel_tree


def pin_cpus(monkeypatch, affinity, cpu_count: int) -> None:
    """Pretend the host has *cpu_count* CPUs and the process may run on
    *affinity* of them (``None``: the host has no affinity call)."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(affinity), raising=False
        )


class TestHostSelection:
    """The pool runs only where ``fork`` exists and the process may run
    on more than one CPU; anywhere else the same config plans the
    in-thread kernel."""

    @pytest.fixture(autouse=True)
    def cheap_pool(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "THRESHOLD", 0)
        monkeypatch.setattr(parallel_mod, "DISPATCH_OVERHEAD", 0)
        parallel_mod.stats.reset()

    @pytest.mark.parametrize(
        "host", ["no fork", "one CPU", "pinned to one of eight CPUs"]
    )
    def test_a_host_that_cannot_pool_plans_in_thread(self, monkeypatch, host):
        if host == "no fork":
            monkeypatch.setattr(
                multiprocessing, "get_all_start_methods", lambda: ["spawn"]
            )
        elif host == "one CPU":
            pin_cpus(monkeypatch, None, 1)
        else:
            pin_cpus(monkeypatch, {0}, 8)
        db = small_db()
        pooled = notes_tagged(plan(db, ParallelConfig(shards=2)), "tag3")
        assert count_parallel(pooled.optimized()) == 0
        assert list(pooled.rows()) == list(notes_tagged(plan(db), "tag3").rows())
        assert parallel_mod.stats.dispatched_shards == 0
        assert parallel_mod.stats.pools_started == 0

    def test_a_host_that_can_pool_plans_one_parallel_node(self, monkeypatch):
        pin_cpus(monkeypatch, {0, 1}, 2)
        db = small_db()
        pooled = notes_tagged(plan(db, ParallelConfig(shards=2)), "tag3")
        assert count_parallel(pooled.optimized()) == 1
        assert list(pooled.rows()) == list(notes_tagged(plan(db), "tag3").rows())
        assert parallel_mod.stats.dispatched_shards == 2

    def test_the_pool_forks_a_worker_per_cpu_the_process_may_run_on(
        self, monkeypatch
    ):
        pin_cpus(monkeypatch, {0, 1}, 8)
        db = small_db()
        pooled = notes_tagged(plan(db, ParallelConfig(shards=4)), "tag3")
        assert count_parallel(pooled.optimized()) == 1
        assert list(pooled.rows()) == list(notes_tagged(plan(db), "tag3").rows())
        assert parallel_mod.stats.dispatched_shards == 4
        assert parallel_mod.stats.pools_started == 1
        assert len(parallel_mod._POOL.pids) == 2  # noqa: SLF001


@pytest.mark.usefixtures("force_pool")
class TestExplainDeterminism:
    def test_explain_is_byte_identical_run_to_run(self):
        config = ParallelConfig(shards=4)

        def render() -> str:
            db = small_db()
            query = notes_tagged(plan(db, config), "tag3").join(
                plan(db).relationship("Covers")
            )
            return query.explain()

        first, second = render(), render()
        assert first == second
        assert "Parallel shards=4 per-shard~30+0 dispatch" in first

    def test_parallel_node_renders_in_tree_position(self):
        db = small_db()
        config = ParallelConfig(shards=2)
        text = plan(db, config).extent("Note", column="note").explain()
        lines = text.splitlines()
        assert lines[0].startswith("Parallel shards=2 per-shard~60")
        assert lines[1].strip().startswith("└─ ExtentScan Note")


@pytest.mark.usefixtures("force_pool")
class TestFailureContract:
    def setup_method(self):
        parallel_mod.stats.reset()

    @pytest.mark.parametrize("point", [parallel_mod.DISPATCH_POINT,
                                       parallel_mod.RESULT_POINT])
    def test_fail_io_falls_back_to_serial(self, point):
        db = small_db()
        expected = list(notes_tagged(plan(db), "tag2").rows())
        query = notes_tagged(plan(db, ParallelConfig(shards=3)), "tag2")
        fault_plan = faults.FaultPlan(seed=11)
        fault_plan.fail_io(point, at=2)
        with fault_plan:
            result = query.execute()
        assert list(result.rows) == expected  # the fallback keeps row order
        assert fault_plan.triggered, "failpoint never fired"
        assert parallel_mod.stats.fallbacks == 1

    def test_simulated_crash_always_propagates(self):
        db = small_db()
        query = plan(db, ParallelConfig(shards=2)).extent("Note", column="note")
        fault_plan = faults.FaultPlan(seed=5)
        fault_plan.crash(parallel_mod.RESULT_POINT)
        with fault_plan:
            with pytest.raises(faults.SimulatedCrash):
                query.execute()
        assert parallel_mod.stats.fallbacks == 0

    def test_poisoned_worker_falls_back(self):
        db = small_db(30)
        poison = FunctionPredicate(_exit_in_worker, "exit-in-worker")
        query = (
            plan(db, ParallelConfig(shards=2))
            .extent("Note", column="note")
            .select(on("note", poison))
        )
        result = query.execute()
        assert len(result.rows) == 30  # in-thread rerun in the parent
        assert parallel_mod.stats.fallbacks == 1

    def test_hung_worker_times_out_instead_of_hanging_the_merge(self, monkeypatch):
        db = small_db(6)
        sleepy = FunctionPredicate(_sleepy, "sleepy")
        query = (
            plan(db, ParallelConfig(shards=2))
            .extent("Note", column="note")
            .select(on("note", sleepy))
        )
        monkeypatch.setattr(parallel_mod, "TIMEOUT_S", 0.01)
        started = time.monotonic()
        result = query.execute()
        elapsed = time.monotonic() - started
        assert len(result.rows) == 6
        assert parallel_mod.stats.fallbacks == 1
        assert elapsed < 10  # bounded: no full-queue wait, no deadlock


@pytest.mark.usefixtures("force_pool")
class TestEmptyShards:
    """Fewer ids than shards: empty ranges never reach the pool."""

    def setup_method(self):
        parallel_mod.stats.reset()

    def test_empty_shards_are_not_dispatched(self):
        db = small_db(3)  # three Notes
        serial = plan(db).extent("Note", column="note")
        pooled = Plan(db, serial.node, ParallelConfig(shards=7))
        assert list(pooled.rows()) == list(serial.rows())
        assert parallel_mod.stats.dispatched_shards == 3
        assert parallel_mod.stats.completed_shards == 3

    def test_single_non_empty_shard_runs_in_thread(self):
        db = small_db(3)  # one Doc
        query = plan(db, ParallelConfig(shards=7)).extent("Doc", column="doc")
        assert count_parallel(query.optimized()) == 1
        assert len(query.execute().rows) == 1
        assert parallel_mod.stats.dispatched_shards == 0
        assert parallel_mod.stats.fallbacks == 0  # not a failure


class TestSharding:
    def test_range_shards_concatenate_to_extent_order(self):
        db = small_db(53)
        wanted = db.schema.entity_class("Note")
        shards = db.indexes.extent_shards(wanted, 7)
        flat = [oid for shard in shards for oid in shard]
        assert flat == db.indexes.extent_oids(wanted)
        assert len(shards) == 7

    def test_more_shards_than_rows_yields_empty_shards(self):
        db = small_db(3)
        shards = db.indexes.extent_shards(db.schema.entity_class("Doc"), 7)
        assert len(shards) == 7
        assert sum(len(shard) for shard in shards) == 1  # one Doc at size 3

    def test_partitioning_is_shard_stable(self):
        db = small_db(40)
        first = db.indexes.family_relationship_shards("Covers", 3)
        second = db.indexes.family_relationship_shards("Covers", 3)
        assert first == second
        assert [rid for shard in first for rid in shard] == (
            db.indexes.family_relationship_ids("Covers")
        )

    def test_config_has_exactly_one_option(self):
        assert tuple(f.name for f in dataclasses.fields(ParallelConfig)) == (
            "shards",
        )

    def test_config_validation(self):
        # only an int (not a bool) in 1..64 is a shard count
        for shards in (0, 65, 2.5, 2.0, True, "2", None):
            with pytest.raises(QueryError):
                ParallelConfig(shards=shards)
        assert ParallelConfig(shards=64).shards == 64


class TestProcessBackendHygiene:
    @pytest.mark.parametrize(
        "predicate",
        [
            NamePrefix("Al"),
            ValueEquals("tag3"),
            ParticipatesIn("Covers"),
            ParticipatesIn("Covers", "doc"),
            And((NamePrefix("N"), ValueEquals("tag3"))),
            NamePrefix(""),
            ValueEquals(3),
            ValueEquals(None),
            And((ParticipatesIn("Covers", "note"), NamePrefix("N"))),
            And((NamePrefix("N"), And((ValueEquals("a"), ParticipatesIn("Covers"))))),
        ],
    )
    def test_structured_predicates_pickle_round_trip(self, predicate):
        # a worker must key, cost and render what it receives as the
        # parent does: equal, equally hashed, equally described
        restored = pickle.loads(pickle.dumps(predicate))
        assert restored == predicate
        assert hash(restored) == hash(predicate)
        assert restored.describe() == predicate.describe()

    def test_parallel_config_pickles_and_hashes(self):
        config = ParallelConfig(shards=7)
        assert pickle.loads(pickle.dumps(config)) == config
        assert hash(config) == hash(ParallelConfig(shards=7))
