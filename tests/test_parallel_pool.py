"""The warm pool: reuse, staleness and teardown.

A pooled scan runs on one forked pool per database
state (:mod:`repro.core.query.parallel`, "Pool lifetime"): the pool is
reused while ``SeedDatabase._writes`` is unchanged and forked afresh
after any write. This suite pins

* reuse — scans with no write between them fork once, read-only calls
  between them do not re-fork (``stats.pools_started``), and threads
  scanning at once share the pool without mixing their replies;
* staleness — a seeded random history over every public mutator,
  committed and rolled-back transactions, failing batches, version
  selection, view restore, schema migration and tombstone collection
  runs pooled scans after every step (and inside open units), the pool
  never forced cold, and compares them in order with the in-thread
  kernel;
* identity — a pool never answers for another database, nor for a new
  one built after its own was dropped;
* teardown — a pool that timed out or whose scan raised is killed,
  reaped and never reused, so a hung worker cannot delay interpreter
  exit; a forked child does not inherit the pool;
* what pickles — a scan with a closure predicate runs in-thread as a
  fallback;
* equality narrowing — a warm worker that searches its cached value
  columns returns what the in-thread kernel and the eager ``Relation``
  algebra return, in order, across sorts, NaN, ``True``/``1``/``1.0``,
  signed zeros, duplicates on both sides of a shard boundary, dead and
  pattern-context matches, conjunctions and row tests; and no column
  outlives the snapshot it was read from.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.core import SchemaBuilder, SeedDatabase
from repro.core.errors import SeedError
from repro.core.query import parallel as parallel_mod
from repro.core.query.algebra import extent
from repro.core.query.parallel import ShardSpec
from repro.core.query.planner import on, plan
from repro.core.query.predicates import (
    And,
    NamePrefix,
    ValueEquals,
    value_is,
)
from repro.core.query.retrieval import Retrieval
from repro.core.versions.compaction import RetentionPolicy
from _planner_gen import FunctionPredicate
from test_parallel_equivalence import pin_cpus, small_db

SRC = Path(__file__).resolve().parent.parent / "src"
_MAIN_PID = os.getpid()


def scan(kind, name, *tests) -> ShardSpec:
    """A kernel spec: one base scan, *tests* peeled onto its first column."""
    columns = ("x",) if kind == "extent" else ("first", "second")
    return ShardSpec(kind, name, columns, tuple((0, test) for test in tests), ())


def pooled(db, spec) -> list[tuple]:
    return parallel_mod.run_sharded(db, spec, shards=2)


def in_thread(db, spec) -> list[tuple]:
    return list(parallel_mod.run_in_thread(db, spec))


NOTES = scan("extent", "Note")
TAG3 = scan("extent", "Note", ValueEquals("tag3"))
COVERS = scan("rel", "Covers")


@pytest.fixture(autouse=True)
def fresh_stats():
    parallel_mod.stats.reset()


def _sleep_in_worker(obj) -> bool:
    """Hang a pool worker; behave normally in the parent."""
    if os.getpid() != _MAIN_PID:
        time.sleep(30)
    return True


def _reject(obj) -> bool:
    raise ValueError(f"rejected {obj.name}")


class TestReuse:
    def test_scans_without_a_write_between_them_fork_once(self):
        db = small_db(40)
        expected = [(spec, in_thread(db, spec)) for spec in (NOTES, TAG3, COVERS)]
        for __ in range(3):
            for spec, rows in expected:
                assert pooled(db, spec) == rows
        stats = parallel_mod.stats
        assert stats.pools_started == 1
        assert stats.dispatched_shards == stats.completed_shards == 18
        assert stats.fallbacks == 0

    def test_read_only_calls_between_scans_do_not_refork(self):
        db = small_db(40)
        expected = in_thread(db, TAG3)
        assert pooled(db, TAG3) == expected
        retrieval = Retrieval(db)
        assert db.check_completeness() is not None
        assert retrieval.by_name("N3") is not None
        assert retrieval.by_name_prefix("N1")
        assert retrieval.navigate(db.get_object("D1"), ("Covers", "note"))
        assert plan(db).extent("Note", column="n").select(
            on("n", value_is("tag1"))
        ).execute().rows
        assert pooled(db, TAG3) == expected
        assert parallel_mod.stats.pools_started == 1

    def test_an_update_in_a_transaction_reforks_and_so_does_its_rollback(self):
        db = small_db(40)
        fresh = scan("extent", "Note", ValueEquals("fresh"))
        assert pooled(db, fresh) == []
        with pytest.raises(RuntimeError):
            with db.transaction():
                created = db.create_object("Note", "Uncommitted")
                db.set_value(created, "fresh")
                assert pooled(db, fresh) == [(created,)]
                assert parallel_mod.stats.pools_started == 2
                raise RuntimeError("roll the transaction back")
        assert pooled(db, fresh) == []
        assert parallel_mod.stats.pools_started == 3

    def test_threads_scanning_at_once_each_get_their_own_rows(self):
        db = small_db(40)
        specs = (TAG3, scan("extent", "Note", ValueEquals("tag1")), COVERS)
        expected = [in_thread(db, spec) for spec in specs]
        assert pooled(db, TAG3) == expected[0]  # warm: no fork beside threads
        wrong: list[tuple[int, int]] = []

        def reader(number: int) -> None:
            for turn in range(10):
                which = (number + turn) % len(specs)
                if pooled(db, specs[which]) != expected[which]:
                    wrong.append((number, turn))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert parallel_mod.stats.pools_started == 1


class TestIdentity:
    def test_alternating_databases_each_answer_from_their_own_snapshot(self):
        first, second = small_db(40), small_db(60)
        for __ in range(2):
            for db in (first, second):
                assert pooled(db, NOTES) == in_thread(db, NOTES)
        assert parallel_mod.stats.pools_started == 4

    def test_a_dropped_database_is_neither_kept_alive_nor_answered_for(self):
        for size in (30, 50, 70):
            db = small_db(size)
            rows = pooled(db, NOTES)
            assert len(rows) == size and rows == in_thread(db, NOTES)
            del db, rows
            gc.collect()
            assert parallel_mod._POOL.database() is None  # noqa: SLF001
        assert parallel_mod.stats.pools_started == 3


class TestTeardown:
    def test_a_timed_out_pool_is_killed_and_reaped(self, monkeypatch):
        forked: list[int] = []
        real_fork = os.fork

        def recording_fork() -> int:
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(parallel_mod, "TIMEOUT_S", 0.2)
        db = small_db(2)
        spec = scan("extent", "Note", FunctionPredicate(_sleep_in_worker, "sleepy"))
        started = time.monotonic()
        assert pooled(db, spec) == in_thread(db, spec)
        assert time.monotonic() - started < 5
        assert parallel_mod.stats.fallbacks == 1
        assert multiprocessing.active_children() == []
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):  # reaped: no child of ours
                os.waitpid(pid, os.WNOHANG)
        assert parallel_mod._POOL is None  # noqa: SLF001

    def test_a_hung_worker_does_not_delay_interpreter_exit(self):
        script = textwrap.dedent(
            """
            import os, time
            from repro.core import SchemaBuilder, SeedDatabase
            from repro.core.query import parallel
            from repro.core.query.parallel import ShardSpec

            MAIN = os.getpid()

            def sleeper(obj):
                if os.getpid() != MAIN:
                    time.sleep(30)
                return True

            db = SeedDatabase(SchemaBuilder("hung").entity_class("Note").build())
            for name in ("A", "B"):
                db.create_object("Note", name)
            parallel.TIMEOUT_S = 0.2
            spec = ShardSpec("extent", "Note", ("note",), ((0, sleeper),), ())
            rows = parallel.run_sharded(db, spec, shards=2)
            print(len(rows), parallel.stats.fallbacks)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=25,
        )
        elapsed = time.monotonic() - started
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "1"]
        assert elapsed < 5

    def test_a_query_error_in_a_worker_propagates_and_retires_the_pool(self):
        db = small_db(20)
        spec = scan("extent", "Note", FunctionPredicate(_reject, "reject"))
        with pytest.raises(ValueError, match="rejected"):
            pooled(db, spec)
        assert parallel_mod._POOL is None  # noqa: SLF001
        assert parallel_mod.stats.fallbacks == 0
        assert pooled(db, NOTES) == in_thread(db, NOTES)
        assert parallel_mod.stats.pools_started == 2

    def test_a_forked_child_does_not_inherit_the_pool(self):
        db = small_db(20)
        assert pooled(db, NOTES) == in_thread(db, NOTES)
        pid = os.fork()
        if pid == 0:  # the child: answer and leave at once
            os._exit(0 if parallel_mod._POOL is None else 1)  # noqa: SLF001
        __, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # the child closed only its own copies of the pool's pipes
        assert pooled(db, NOTES) == in_thread(db, NOTES)
        assert parallel_mod.stats.pools_started == 1


class TestWhatPickles:
    def test_a_closure_predicate_runs_in_thread_as_a_fallback(self):
        db = small_db(40)
        wanted = "tag2"
        closure = FunctionPredicate(lambda obj: obj.value == wanted, "closure")
        spec = scan("extent", "Note", closure)
        assert pooled(db, spec) == in_thread(db, spec)
        stats = parallel_mod.stats
        assert (stats.fallbacks, stats.pools_started, stats.dispatched_shards) == (1, 0, 0)


# ----------------------------------------------------------------------
# equality narrowing in a warm worker
# ----------------------------------------------------------------------

NAN = float("nan")

#: per scalar sort, the values its 32 objects hold in id order (None:
#: no value); STRING holds a run of "dup" across every 2- and 3-shard
#: boundary
TYPED_VALUES = {
    "Count": [(0, 1, 2, 1, -1, 0, None, 3)[i % 8] for i in range(32)],
    "Measure": [(0.0, -0.0, 1.0, NAN, 2.5, 1.0, None, -0.0)[i % 8] for i in range(32)],
    "Flag": [(True, False, None, True)[i % 4] for i in range(32)],
    "Label": ["dup" if 9 <= i <= 24 and i % 3 else f"v{i % 5}" for i in range(32)],
}


def typed_db() -> SeedDatabase:
    """One extent per scalar sort (:data:`TYPED_VALUES`) and a dependent
    ``Holder.Tag``, with matching values on deleted objects, patterns
    and dependents of patterns."""
    builder = SchemaBuilder("typed")
    for name, sort in (
        ("Count", "INTEGER"), ("Measure", "REAL"), ("Flag", "BOOLEAN"), ("Label", "STRING"),
    ):
        builder.entity_class(name, sort=sort)
    builder.entity_class("Holder")
    builder.dependent("Holder", "Tag", "0..1", sort="STRING")
    db = SeedDatabase(builder.build(), name="typed")
    for name, values in TYPED_VALUES.items():
        for number, value in enumerate(values):
            obj = db.create_object(name, f"{name[0]}{number}")
            if value is not None:
                db.set_value(obj, value)
    for number in range(32):
        holder = db.create_object("Holder", f"H{number}")
        db.create_sub_object(holder, "Tag", "dup" if number % 2 else "other")
    for name in ("C1", "M2", "F0", "L10", "L20"):  # all hold a matched value
        db.delete(db.get_object(name))
    for name in ("C3", "M5", "F3", "L11", "H1", "H7"):
        db.mark_pattern(db.get_object(name))
    return db


@pytest.fixture(scope="module")
def typed():
    return typed_db()


def extent_scan(name, *cell_tests, row_tests=()) -> ShardSpec:
    """An extent spec with *cell_tests* on its one column, in order."""
    return ShardSpec(
        "extent", name, ("x",), tuple((0, test) for test in cell_tests), tuple(row_tests)
    )


def eager(db, spec) -> list[tuple]:
    """An extent spec's rows from the eager ``Relation`` algebra."""
    (column,) = spec.columns
    relation = extent(db, spec.name, column=column)
    for __, test in spec.cell_tests:
        relation = relation.select(on(column, test))
    for test in spec.row_tests:
        relation = relation.select(test)
    return list(relation.rows)


def assert_three_ways(db, spec, shards: int = 2) -> list[tuple]:
    """Pooled ≡ in-thread ≡ eager, rows in order, and the pool ran."""
    dispatched = parallel_mod.stats.dispatched_shards
    rows = parallel_mod.run_sharded(db, spec, shards=shards)
    assert rows == in_thread(db, spec) == eager(db, spec)
    assert parallel_mod.stats.dispatched_shards == dispatched + shards
    assert parallel_mod.stats.fallbacks == 0
    return rows


def _only_dup_in_a_worker(obj) -> bool:
    """Keep everything; in a pool worker, fail on an object whose value
    the equality search should have ruled out."""
    if os.getpid() != _MAIN_PID and obj.value != "dup":
        raise AssertionError(f"the kernel read {obj.name} ({obj.value!r})")
    return True


#: (extent, expected, number of matches)
EQUALITY_CASES = [
    ("Count", 1, 6), ("Count", True, 6), ("Count", 1.0, 6),
    ("Count", 0, 8), ("Count", -0.0, 8), ("Count", False, 8),
    ("Measure", 1, 6), ("Measure", True, 6), ("Measure", 1.0, 6),
    ("Measure", 0.0, 12), ("Measure", -0.0, 12), ("Measure", 2.5, 4),
    ("Measure", NAN, 0),
    ("Flag", True, 14), ("Flag", 1, 14), ("Flag", 1.0, 14),
    ("Flag", 0, 8), ("Flag", -0.0, 8),
    ("Label", "dup", 7), ("Label", "v1", 5), ("Label", "absent", 0),
    ("Label", 1, 0), ("Count", "1", 0),
    ("Holder.Tag", "dup", 14),
]


class TestEqualityNarrowing:
    """A warm worker searches its cached value column, then runs the
    one kernel on the candidates: the rows are the kernel's and the
    algebra's over the whole extent, whatever the values compare like."""

    @pytest.mark.parametrize(
        "name,expected,matches", EQUALITY_CASES,
        ids=[f"{name}={expected!r}" for name, expected, __ in EQUALITY_CASES],
    )
    def test_pooled_equals_in_thread_equals_the_algebra(
        self, typed, name, expected, matches
    ):
        rows = assert_three_ways(typed, extent_scan(name, ValueEquals(expected)))
        assert len(rows) == matches
        for (obj,) in rows:
            assert obj.value == expected
            assert not (obj.deleted or obj.in_pattern_context)

    def test_a_stored_nan_matches_nothing_not_even_itself(self, typed):
        stored = typed.get_object("M3").value
        assert math.isnan(stored)
        assert assert_three_ways(typed, extent_scan("Measure", ValueEquals(stored))) == []

    def test_a_conjunction_and_a_row_test_keep_their_meaning(self, typed):
        dup = ValueEquals("dup")
        prefix = NamePrefix("L1")
        cases = [
            extent_scan("Label", And((dup, prefix))),
            extent_scan("Label", prefix, dup),
            extent_scan("Label", dup, prefix),
            extent_scan("Label", dup, row_tests=(on("x", NamePrefix("L2")),)),
            extent_scan("Label", row_tests=(on("x", dup),)),
        ]
        got = [assert_three_ways(typed, spec) for spec in cases]
        names = [[str(obj.name) for (obj,) in rows] for rows in got]
        assert names[0] == names[1] == names[2] == ["L13", "L14", "L16", "L17", "L19"]
        assert names[3] == ["L22", "L23"]
        assert len(names[4]) == 7

    def test_the_kernel_reads_only_the_candidates(self, typed):
        spec = extent_scan(
            "Label", FunctionPredicate(_only_dup_in_a_worker, "only dup"),
            ValueEquals("dup"),
        )
        assert len(assert_three_ways(typed, spec)) == 7

    def test_a_worker_serving_two_shards_keeps_a_column_for_each(
        self, typed, monkeypatch
    ):
        pin_cpus(monkeypatch, {0, 1}, 8)
        for name, expected, matches in EQUALITY_CASES:
            rows = assert_three_ways(typed, extent_scan(name, ValueEquals(expected)), 3)
            assert len(rows) == matches, (name, expected)
        assert len(parallel_mod._POOL.pids) == 2  # noqa: SLF001
        assert parallel_mod.stats.pools_started <= 1


TAKE = "another object takes the value"
REVALUE = "a match is re-valued"
DELETE = "a match is deleted"


def change_tag3(db, change: str, matches: list[tuple]) -> None:
    if change == TAKE:
        db.set_value(db.get_object("N0"), "tag3")
    elif change == REVALUE:
        db.set_value(matches[0][0], "tag1")
    else:
        db.delete(matches[-1][0])


class TestColumnLifetime:
    """A cached value column is read from the pool's snapshot, so it
    dies with it: after any change, committed or rolled back, the scan
    answers from the new state on a new pool."""

    @pytest.mark.parametrize("change", [TAKE, REVALUE, DELETE])
    def test_a_committed_change_is_seen(self, change):
        db = small_db(40)
        before = pooled(db, TAG3)
        assert before == in_thread(db, TAG3) and len(before) == 8
        change_tag3(db, change, before)
        after = pooled(db, TAG3)
        assert after == in_thread(db, TAG3) == eager(db, TAG3)
        assert len(after) == len(before) + (1 if change == TAKE else -1)
        if change == TAKE:
            assert after[0] == (db.get_object("N0"),)
        assert parallel_mod.stats.pools_started == 2

    @pytest.mark.parametrize("change", [TAKE, REVALUE, DELETE])
    def test_a_rolled_back_change_is_forgotten(self, change):
        db = small_db(40)
        before = pooled(db, TAG3)
        with pytest.raises(_Abandon):
            with db.transaction():
                change_tag3(db, change, before)
                inside = pooled(db, TAG3)
                assert inside == in_thread(db, TAG3) != before
                raise _Abandon()
        assert pooled(db, TAG3) == in_thread(db, TAG3) == before
        assert parallel_mod.stats.pools_started == 3


# ----------------------------------------------------------------------
# the staleness oracle
# ----------------------------------------------------------------------


def oracle_schema(drafts_are_data: bool):
    """Things, data and actions; ``Draft`` is a kind of ``Data`` in one
    version of the schema and stands alone in the other."""
    builder = SchemaBuilder("oracle")
    builder.entity_class("Thing")
    builder.entity_class("Data", specializes="Thing")
    builder.entity_class("Action", specializes="Thing")
    builder.dependent("Action", "Description", "0..1", sort="STRING")
    builder.entity_class("Draft", specializes="Data" if drafts_are_data else None)
    builder.association("Access", ("data", "Data", "0..*"), ("by", "Action", "0..*"))
    builder.association(
        "Write", ("to", "Data", "0..*"), ("by", "Action", "0..*"), specializes="Access"
    )
    builder.attribute("Write", "Count", "INTEGER")
    return builder.build()


#: each sees a different kind of change: membership and liveness
#: (creation, deletion, patterns, migration), class, values, names,
#: relationships
ORACLE_SCANS = (
    scan("extent", "Thing"),
    scan("extent", "Data"),
    scan("extent", "Action.Description", ValueEquals("a")),
    scan("extent", "Thing", NamePrefix("R")),
    scan("rel", "Access"),
)
VALUES = ("a", "b", None)


class _Abandon(Exception):
    """Leaves a unit of work by exception, rolling it back."""


class History:
    """Seeded random steps on one database, pooled scans after each.

    A step the database refuses is rolled back by it and still counts.
    """

    #: how often each step occurs in one history (shuffled per seed)
    STEPS = {
        "edit": 40, "transaction": 12, "bulk": 8, "refused_update": 4,
        "version": 12, "select": 6, "restore": 6, "migrate": 6, "compact": 6,
    }

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = SeedDatabase(oracle_schema(False), name=f"oracle{seed}")
        self.counter = 0
        self.checks = 0
        self.reused = 0  #: checks that pooled on the pool they found

    def name(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def roots(self, *classes: str) -> list:
        return [
            obj
            for name in classes
            for obj in self.db.objects(name, include_specials=False)
            if obj.parent is None
        ]

    def check(self, where: str) -> None:
        stats = parallel_mod.stats
        started, dispatched = stats.pools_started, stats.dispatched_shards
        for spec in ORACLE_SCANS:
            got, expected = pooled(self.db, spec), in_thread(self.db, spec)
            assert got == expected, (
                f"{where}: the pooled {spec.kind} scan of {spec.name} returned "
                f"{_ids(got)}, the in-thread kernel {_ids(expected)}"
            )
        self.checks += 1
        if stats.dispatched_shards > dispatched and stats.pools_started == started:
            self.reused += 1

    # -- steps ----------------------------------------------------------

    def edit(self) -> None:
        """One public mutator."""
        rng, db = self.rng, self.db
        data, actions = self.roots("Data", "Draft"), self.roots("Action")
        anything = data + actions + self.roots("Thing")
        roll = rng.random()
        if roll < 0.16 or len(actions) < 2 or not data:
            kind = rng.choice(["Thing", "Data", "Action", "Draft"])
            obj = db.create_object(kind, self.name("Item"))
            if kind == "Action" and rng.random() < 0.7:
                db.create_sub_object(obj, "Description", rng.choice(VALUES))
        elif roll < 0.28:
            described = [d for a in actions for d in a.sub_objects("Description")]
            bare = [a for a in actions if not a.sub_objects("Description")]
            if described and (not bare or rng.random() < 0.7):
                db.set_value(rng.choice(described), rng.choice(VALUES))
            elif bare:
                db.create_sub_object(rng.choice(bare), "Description", "a")
        elif roll < 0.38:
            if rng.random() < 0.5:
                db.relate("Access", {"data": rng.choice(data), "by": rng.choice(actions)})
            else:
                db.relate(
                    "Write", {"to": rng.choice(data), "by": rng.choice(actions)},
                    attributes={"Count": rng.randrange(9)},
                )
        elif roll < 0.43:
            writes = db.relationships("Write")
            if writes:
                db.set_attribute(rng.choice(writes), "Count", rng.randrange(9))
        elif roll < 0.51:
            db.rename(rng.choice(anything), self.name(rng.choice("RS")))
        elif roll < 0.58:
            db.delete(rng.choice(anything))
        elif roll < 0.63:
            relationships = db.relationships()
            if relationships:
                db.delete(rng.choice(relationships))
        elif roll < 0.75:
            self.reclassify()
        else:
            self.pattern_edit()

    def reclassify(self) -> None:
        rng, db = self.rng, self.db
        things, plain = self.roots("Thing"), self.roots("Data")
        vague = db.relationships("Access", include_specials=False)
        roll = rng.random()
        if roll < 0.4 and things:
            db.reclassify(rng.choice(things), rng.choice(["Data", "Action"]))
        elif roll < 0.7 and plain:
            db.reclassify(rng.choice(plain), "Thing", allow_generalize=True)
        elif vague:
            db.reclassify(rng.choice(vague), "Write")

    def pattern_edit(self) -> None:
        rng, db = self.rng, self.db
        candidates = self.roots("Data", "Action")
        patterns = [
            obj for obj in db.objects(include_patterns=True)
            if obj.is_pattern and obj.parent is None
        ]
        if patterns and rng.random() < 0.4:
            pattern = rng.choice(patterns)
            inheritors = db.patterns.inheritors_of(pattern)
            if inheritors:
                db.uninherit(pattern, inheritors[0])
            else:
                db.unmark_pattern(pattern)
        elif patterns and candidates and rng.random() < 0.5:
            db.inherit(rng.choice(patterns), rng.choice(candidates))
        elif candidates:
            db.mark_pattern(rng.choice(candidates))

    def _edits(self, where: str) -> None:
        for __ in range(self.rng.randrange(1, 4)):
            try:
                self.edit()
            except SeedError:
                pass
            self.check(where)

    def transaction(self) -> None:
        """Edits committed as one unit, or rolled back; scanned inside."""
        rolled_back = self.rng.random() < 0.5
        try:
            with self.db.transaction():
                self._edits("inside a transaction")
                if rolled_back:
                    raise _Abandon()
        except _Abandon:
            pass

    def bulk(self) -> None:
        """A batch that mostly fails half-way; scanned inside."""
        failing = self.rng.random() < 0.75
        try:
            with self.db.bulk():
                self._edits("inside a batch")
                if failing:
                    raise _Abandon()
        except _Abandon:
            pass

    def refused_update(self) -> None:
        """An update that changes state, then raises: its unit rolls back."""
        data, actions = self.roots("Data"), self.roots("Action")
        if data and actions:
            self.db.relate(
                "Access", {"data": data[0], "by": actions[0]}, attributes={"Bogus": 1}
            )

    def version(self) -> None:
        if self.db.has_unsaved_changes():
            self.db.create_version()

    def select(self) -> None:
        versions = self.db.saved_versions()
        if versions:
            self.db.select_version(self.rng.choice(versions), discard_changes=True)

    def restore(self) -> None:
        versions = self.db.saved_versions()
        if versions:
            view = self.db.version_view(self.rng.choice(versions))
            self.db._restore(*view.states())  # noqa: SLF001 - a raw restore

    def migrate(self) -> None:
        schema = self.db.schema
        drafts_are_data = schema.entity_class("Draft").is_kind_of(
            schema.entity_class("Data")
        )
        self.db.migrate_schema(oracle_schema(not drafts_are_data))

    def compact(self) -> None:
        self.db.compact(
            RetentionPolicy(keep_last=self.rng.choice([0, 1]), gc_tombstones=True)
        )

    def run(self) -> None:
        steps = [name for name, count in self.STEPS.items() for __ in range(count)]
        self.rng.shuffle(steps)
        for index, name in enumerate(steps):
            try:
                getattr(self, name)()
            except SeedError:
                pass
            self.check(f"step {index} ({name})")


def _ids(rows: list[tuple]) -> list:
    return [
        tuple(getattr(cell, "oid", cell) for cell in row) for row in rows
    ]


@pytest.mark.parametrize("seed", range(3))
def test_a_pooled_scan_never_reads_a_stale_snapshot(seed):
    history = History(seed)
    history.run()
    assert history.checks > sum(History.STEPS.values())  # units were scanned inside
    assert parallel_mod.stats.fallbacks == 0
    assert history.reused > 0, "the pool never outlived a step"
