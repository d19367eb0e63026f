"""Pooled-scan equivalence, determinism, and failure handling.

The fused kernel (:mod:`repro.core.query.parallel`) runs every
shardable scan, in-thread or pooled; the pooled runs must be
row-multiset identical to the eager ``Relation`` algebra for *any*
query, on both backends, across shard counts — including mid-transaction
reads and the vague/undefined data shapes the randomized planner
populations carry — and row-*order* identical to the in-thread run.
Beyond equivalence, this suite pins down:

* explain determinism — the ``Parallel`` rendering is byte-identical
  run to run;
* the costing constants — small scans never reach a pool under the
  shipped ``THRESHOLD`` / ``DISPATCH_OVERHEAD``;
* the failure contract — failpoint-injected I/O errors, poisoned
  (exiting) workers, and hung workers end in an in-thread run of the
  same kernel, and :class:`~repro.core.faults.SimulatedCrash` always
  propagates;
* process-backend hygiene — structured predicates pickle round-trip.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import time

import pytest

from _planner_gen import build_population, random_query, row_multiset
from repro.core import SchemaBuilder, SeedDatabase
from repro.core import faults
from repro.core.errors import QueryError
from repro.core.query import parallel as parallel_mod
from repro.core.query.parallel import ParallelConfig
from repro.core.query.planner import (
    Parallel,
    on,
    plan,
    plan_cache,
)
from repro.core.query.predicates import (
    And,
    FunctionPredicate,
    HasValue,
    InClass,
    NamePrefix,
    Not,
    Or,
    ParticipatesIn,
    ValueEquals,
    both,
    has_value,
    name_prefix,
    value_is,
)


@pytest.fixture
def force_pool(monkeypatch):
    """Send every shardable scan to the pool, however small.

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

    Shard counts {1, 2, 7} and both backends rotate deterministically
    through the (population, query) grid, so every combination is
    exercised without forking a process pool per case.
    """

    CASES = [
        (population_seed, query_seed)
        for population_seed in range(8)
        for query_seed in range(4)
    ]
    GRID = [
        (shards, backend)
        for backend in ("thread", "process")
        for shards in (1, 2, 7)
    ]

    @pytest.mark.parametrize("population_seed,query_seed", CASES)
    def test_parallel_matches_serial(self, population_seed, query_seed):
        db = population(population_seed)
        rng = random.Random(population_seed * 1009 + query_seed)
        query = random_query(rng, db)
        shards, backend = self.GRID[
            (population_seed * len(self.CASES) // 8 + query_seed) % len(self.GRID)
        ]
        config = ParallelConfig(shards=shards, backend=backend)
        parallel_result = query.plan.execute(parallel=config)
        assert parallel_result.columns == query.relation.columns
        assert row_multiset(parallel_result) == row_multiset(query.relation), (
            f"parallel ({shards} shards, {backend}) diverged for population "
            f"{population_seed}, query {query_seed}:\n"
            f"{query.plan.explain(parallel=config)}"
        )

    def test_grid_actually_parallelizes(self):
        """Coverage guard: the forced constants do wrap scans — of most
        of the grid's queries (a plan read wholly through the name and
        incidence indexes has no scan to wrap)."""
        config = ParallelConfig(shards=2, backend="thread")
        wrapped = 0
        for population_seed, query_seed in self.CASES:
            rng = random.Random(population_seed * 1009 + query_seed)
            query = random_query(rng, population(population_seed))
            wrapped += bool(count_parallel(query.plan.optimized(parallel=config)))
        assert wrapped > len(self.CASES) // 2


@pytest.mark.usefixtures("force_pool")
class TestDirectedSemantics:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_range_split_preserves_serial_row_order(self, backend, shards):
        db = small_db()
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", value_is("tag3")))
        )
        config = ParallelConfig(shards=shards, backend=backend)
        serial_rows = list(query.rows(parallel=None))
        parallel_rows = list(query.rows(parallel=config))
        assert parallel_rows == serial_rows  # order, not just multiset

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mid_transaction_reads(self, backend):
        db = small_db(40)
        config = ParallelConfig(shards=2, backend=backend)
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", value_is("fresh")))
        )
        with db.transaction():
            created = db.create_object("Note", "Uncommitted")
            created.set_value("fresh")
            inside = query.execute(parallel=config)
            assert row_multiset(inside) == row_multiset(
                query.execute(parallel=None)
            )
            assert any(
                str(cell.name) == "Uncommitted" for (cell,) in inside.rows
            )

    def test_structured_and_opaque_predicates_compose(self):
        db = small_db()
        opaque = FunctionPredicate(
            lambda obj: str(obj.name).endswith(("0", "2")), "name-suffix"
        )
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", both(has_value(), name_prefix("N"))))
            .select(on("note", opaque))
            .select(lambda row: row["note"].value != "tag4")
        )
        config = ParallelConfig(shards=4, backend="thread")
        pooled = query.execute(parallel=config)
        assert row_multiset(pooled) == row_multiset(query.execute(parallel=None))
        # shard-order merge against the database's own scan order
        assert [obj for (obj,) in pooled.rows] == [
            obj
            for obj in db.iter_objects("Note")
            if obj.value not in (None, "tag4")
            and str(obj.name).endswith(("0", "2"))
        ]

    def test_join_over_parallel_leaf(self):
        db = small_db()
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", value_is("tag1")))
            .join(plan(db).relationship("Covers"))
            .project("doc")
        )
        config = ParallelConfig(shards=3, backend="thread")
        assert row_multiset(query.execute(parallel=config)) == row_multiset(
            query.execute(parallel=None)
        )


class TestCostModel:
    def test_small_scans_stay_serial_under_default_config(self):
        db = small_db()  # far below the 100k threshold
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", has_value()))
        )
        optimized = query.optimized(parallel=ParallelConfig())
        assert count_parallel(optimized) == 0

    def test_shipped_constants(self):
        # bench/workloads/query_mix.py sizes its population against these
        assert parallel_mod.THRESHOLD == 100_000
        assert parallel_mod.DISPATCH_OVERHEAD == 25_000
        assert parallel_mod.TIMEOUT_S == 60.0

    def test_threshold_zero_parallelizes(self, force_pool):
        db = small_db()
        query = plan(db).extent("Note", column="note")
        optimized = query.optimized(parallel=ParallelConfig())
        assert count_parallel(optimized) == 1

    def test_dispatch_overhead_blocks_non_paying_scans(self, monkeypatch):
        db = small_db(100)
        query = plan(db).extent("Note", column="note")
        # threshold passes, but S/shards + overhead >= S: never pays
        monkeypatch.setattr(parallel_mod, "THRESHOLD", 0)
        monkeypatch.setattr(parallel_mod, "DISPATCH_OVERHEAD", 10_000)
        config = ParallelConfig(shards=2)
        assert count_parallel(query.optimized(parallel=config)) == 0

    def test_prefix_scans_are_not_sharded(self, force_pool):
        db = small_db()
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", name_prefix("N1")))
        )
        optimized = query.optimized(parallel=ParallelConfig())
        # the rewrite wins: a bisected prefix scan stays serial
        assert count_parallel(optimized) == 0
        assert "prefix='N1'" in query.explain(parallel=ParallelConfig())

    def test_cache_keeps_serial_and_parallel_plans_apart(self, force_pool):
        db = small_db()
        query = plan(db).extent("Note", column="note")
        config = ParallelConfig()
        serial_tree = query.optimized()
        parallel_tree = query.optimized(parallel=config)
        assert count_parallel(serial_tree) == 0
        assert count_parallel(parallel_tree) == 1
        # both entries are cached independently and served stably
        assert query.optimized() is serial_tree
        assert query.optimized(parallel=config) is parallel_tree


@pytest.mark.usefixtures("force_pool")
class TestExplainDeterminism:
    def test_explain_is_byte_identical_run_to_run(self):
        config = ParallelConfig(shards=4, backend="thread")

        def render() -> str:
            db = small_db()
            query = (
                plan(db)
                .extent("Note", column="note")
                .select(on("note", value_is("tag3")))
                .join(plan(db).relationship("Covers"))
            )
            return query.explain(parallel=config)

        first, second = render(), render()
        assert first == second
        assert "Parallel shards=4 backend=thread per-shard~30+0 dispatch" in first

    def test_parallel_node_renders_in_tree_position(self):
        db = small_db()
        config = ParallelConfig(shards=2, backend="thread")
        text = plan(db).extent("Note", column="note").explain(parallel=config)
        lines = text.splitlines()
        assert lines[0].startswith("Parallel shards=2 backend=thread per-shard~60")
        assert lines[1].strip().startswith("└─ ExtentScan Note")


@pytest.mark.usefixtures("force_pool")
class TestFailureContract:
    def setup_method(self):
        parallel_mod.stats.reset()

    @pytest.mark.parametrize("point", [parallel_mod.DISPATCH_POINT,
                                       parallel_mod.RESULT_POINT])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fail_io_falls_back_to_serial(self, point, backend):
        db = small_db()
        query = (
            plan(db)
            .extent("Note", column="note")
            .select(on("note", value_is("tag2")))
        )
        expected = list(query.rows(parallel=None))
        config = ParallelConfig(shards=3, backend=backend)
        fault_plan = faults.FaultPlan(seed=11)
        fault_plan.fail_io(point, at=2)
        with fault_plan:
            result = query.execute(parallel=config)
        assert list(result.rows) == expected  # the fallback keeps row order
        assert fault_plan.triggered, "failpoint never fired"
        assert parallel_mod.stats.fallbacks == 1

    def test_simulated_crash_always_propagates(self):
        db = small_db()
        query = plan(db).extent("Note", column="note")
        config = ParallelConfig(shards=2, backend="thread")
        fault_plan = faults.FaultPlan(seed=5)
        fault_plan.crash(parallel_mod.RESULT_POINT)
        with fault_plan:
            with pytest.raises(faults.SimulatedCrash):
                query.execute(parallel=config)
        assert parallel_mod.stats.fallbacks == 0

    def test_poisoned_worker_falls_back(self):
        db = small_db(30)
        poison = FunctionPredicate(_exit_in_worker, "exit-in-worker")
        query = plan(db).extent("Note", column="note").select(on("note", poison))
        config = ParallelConfig(shards=2, backend="process")
        result = query.execute(parallel=config)  # BrokenProcessPool inside
        assert len(result.rows) == 30  # in-thread rerun in the parent
        assert parallel_mod.stats.fallbacks == 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_hung_worker_times_out_instead_of_hanging_the_merge(
        self, backend, monkeypatch
    ):
        db = small_db(6)
        sleepy = FunctionPredicate(_sleepy, "sleepy")
        query = plan(db).extent("Note", column="note").select(on("note", sleepy))
        monkeypatch.setattr(parallel_mod, "TIMEOUT_S", 0.01)
        config = ParallelConfig(shards=2, backend=backend)
        started = time.monotonic()
        result = query.execute(parallel=config)
        elapsed = time.monotonic() - started
        assert len(result.rows) == 6
        assert parallel_mod.stats.fallbacks == 1
        assert elapsed < 10  # bounded: no full-queue wait, no deadlock


@pytest.mark.usefixtures("force_pool")
class TestEmptyShards:
    """Fewer ids than shards: empty ranges never reach the pool."""

    def setup_method(self):
        parallel_mod.stats.reset()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_empty_shards_are_not_dispatched(self, backend):
        db = small_db(3)  # three Notes
        query = plan(db).extent("Note", column="note")
        config = ParallelConfig(shards=7, backend=backend)
        assert list(query.rows(parallel=config)) == list(query.rows(parallel=None))
        assert parallel_mod.stats.dispatched_shards == 3
        assert parallel_mod.stats.completed_shards == 3

    def test_single_non_empty_shard_runs_in_thread(self):
        db = small_db(3)  # one Doc
        query = plan(db).extent("Doc", column="doc")
        config = ParallelConfig(shards=7, backend="process")
        assert count_parallel(query.optimized(parallel=config)) == 1
        assert len(query.execute(parallel=config).rows) == 1
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

    def test_config_has_exactly_two_options(self):
        assert tuple(f.name for f in dataclasses.fields(ParallelConfig)) == (
            "shards",
            "backend",
        )

    def test_config_validation(self):
        with pytest.raises(QueryError):
            ParallelConfig(shards=0)
        with pytest.raises(QueryError):
            ParallelConfig(backend="gpu")


class TestProcessBackendHygiene:
    @pytest.mark.parametrize(
        "predicate",
        [
            NamePrefix("Al"),
            InClass("Note"),
            InClass("Note", include_specials=False),
            HasValue(),
            ValueEquals("tag3"),
            ParticipatesIn("Covers"),
            ParticipatesIn("Covers", "doc"),
            And((NamePrefix("N"), HasValue())),
            Or((ValueEquals("a"), ValueEquals("b"))),
            Not(NamePrefix("X")),
        ],
    )
    def test_structured_predicates_pickle_round_trip(self, predicate):
        assert pickle.loads(pickle.dumps(predicate)) == predicate

    def test_parallel_config_pickles_and_hashes(self):
        config = ParallelConfig(shards=7, backend="process")
        assert pickle.loads(pickle.dumps(config)) == config
        assert hash(config) == hash(ParallelConfig(shards=7, backend="process"))
