"""``query_mix`` — a reviewer reading a large released specification.

Read-only, one thread, a static in-memory SPADES database big enough
that the ``Action.Description`` and rolled-up ``Thing`` extents sit
above ``ParallelConfig.threshold`` (100 000 rows), so the planner's own
cost model dispatches the ``scan_select`` class to the sharded runtime —
the threshold is never overridden. Query parameters are Zipf(s = 1.0)
skewed over far more distinct values than the 256-entry ``PlanCache``
holds, so the cache sees hits and evictions.

All measured time is in ``core.query.*`` and ``core.indexes`` lookups;
``core.storage``, index *maintenance* and ``multiuser`` are bypassed: a
write-path change must show no change here, and a planner or
parallel-runtime change shows only here.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from bench.harness import Context, Measured, Zipf, mixed, timed_ops
from bench.workloads.common import generate
from repro.core.database import SeedDatabase
from repro.core.indexes import brute_objects, brute_relationships
from repro.core.query import parallel
from repro.core.query.algebra import extent, relationship_relation
from repro.core.query.parallel import ParallelConfig
from repro.core.query.planner import on, plan_cache
from repro.core.query.predicates import name_prefix, value_is
from repro.core.query.retrieval import Retrieval
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import GeneratedSpec, SpecShape

PASSES = 4
#: building this population takes ~15 s, and queries leave it as they
#: found it: once per run
SETUP_REPS = 1
WAITS_FOR_PROCESSES = True  # a sharded scan waits for its forked workers

SHAPE = SpecShape(
    actions=100_500, data=10_000, flows=12_000, notes_per_item=0.0, keywords_per_data=0.0
)
SMOKE_SHAPE = SpecShape(actions=300, data=60, flows=240, notes_per_item=0.0, keywords_per_data=0.0)
MODULES = 64
ALLOCATED_ACTIONS = 4000
QUERIES_PER_SECOND = 1000
SMOKE_QUERIES = 2000
#: share of the stream run untimed first in every pass, on an emptied
#: plan cache, so the cache and lazy index structures are in the same
#: steady state whenever timing starts
WARMUP_SHARE = 0.1
#: share of measured queries re-checked against the reference algebra
VERIFY_SHARE = 0.01

#: A sharded scan costs ~90 ms (two forked workers over a ~430 MB
#: process), a join 0.2, 30 or 45 ms by shape, a report 25 ms, and a
#: lookup 5-60 us depending on how cold its objects are. The heavy
#: classes set how many queries fit (a pass holds ~50 joins, 5 scans,
#: 8 reports: ~2.3 s); the lookups cost nothing and set how steady the
#: median is. It lies among them, where the latency distribution is
#: steep: at the issue's shares (7 % scans: 250 queries a pass) it moved
#: by 19 % from seed to seed. So the heavy classes keep their counts
#: and the lookups, in the ratio 25/10/30/10 that puts the median in
#: the middle of ``navigate``, make up the rest of 2 500 queries. The
#: three join shapes get exactly a third each.
JOIN_SHAPES = ("join_data", "join_action", "join_module")
MIX = (
    ("point", 0.325),
    ("prefix", 0.13),
    ("navigate", 0.39),
    ("closure", 0.13),
    *((shape, 0.02 / len(JOIN_SHAPES)) for shape in JOIN_SHAPES),
    ("scan_select", 0.002),
    ("report", 0.003),
)


@dataclass
class State:
    db: SeedDatabase
    spec: GeneratedSpec
    queries: list[tuple]  #: (class, *parameters)
    warmup: list[tuple]  #: a tenth as many, run untimed before them
    gaps: int  #: size of the (static) completeness report


def _generate_queries(
    ctx: Context, spec: GeneratedSpec, count: int, stream: str
) -> list[tuple]:
    rng = ctx.rng(stream)
    actions, data = spec.action_names, spec.data_names
    choose = {
        "point": Zipf(rng, actions + data),
        "prefix": Zipf(rng, sorted({name[:-1] for name in actions + data})),
        "navigate": Zipf(rng, actions),
        "closure": Zipf(rng, actions),
        "join_data": Zipf(rng, sorted({name[:-1] for name in data})),
        "join_action": Zipf(rng, sorted({name[:-2] for name in actions if len(name) > 6})),
        "join_module": Zipf(rng, [f"Module{index}" for index in range(MODULES)]),
        "scan_select": Zipf(rng, actions),
    }
    queries: list[tuple] = []
    for kind in mixed(rng, MIX, count):
        if kind in JOIN_SHAPES:
            queries.append(("join", kind, choose[kind].pick()))
        elif kind == "report":
            queries.append((kind,))
        else:
            queries.append((kind, choose[kind].pick()))
    return queries


def setup(ctx: Context, rep: int = 0) -> State:
    shape = SMOKE_SHAPE if ctx.smoke else SHAPE
    spec = generate(ctx, shape)
    tool = SpadesTool(name="released")
    load_into_spades(spec, tool)
    rng = ctx.rng("query.modules")
    modules = [f"Module{index}" for index in range(MODULES)]
    for module in modules:
        tool.declare_module(module, "Ada")
    allocated = min(ALLOCATED_ACTIONS, len(spec.action_names))
    for action in rng.sample(spec.action_names, allocated):
        tool.allocate(action, rng.choice(modules))
    db = tool.db
    gaps = len(db.check_completeness())  # primes the incremental engine
    count = ctx.ops(QUERIES_PER_SECOND, SMOKE_QUERIES)
    return State(
        db, spec,
        _generate_queries(ctx, spec, count, "query.ops"),
        _generate_queries(ctx, spec, int(count * WARMUP_SHARE), "query.warmup"),
        gaps,
    )


def _plans(db: SeedDatabase) -> dict[str, Callable[[Any, str], Any]]:
    """The three join shapes and the scan, over any algebra front end.

    *front* is either a planner ``PlanBuilder`` or the eager reference
    (:class:`_Eager`); both expose ``extent`` / ``relationship`` and
    compose with the same ``join`` / ``select`` / ``rename`` calls, so
    one definition serves the measured query and its reference.
    """
    return {
        # who touches the data named P*
        "join_data": lambda front, prefix: front.extent("Data", column="data")
        .join(front.relationship("Access"))
        .select(on("data", name_prefix(prefix))),
        # actions named P* that both read and write something
        "join_action": lambda front, prefix: front.relationship("Read")
        .join(front.relationship("Write"))
        .join(front.extent("Action", column="by"))
        .select(on("by", name_prefix(prefix))),
        # decomposition edges whose child is allocated to module M
        "join_module": lambda front, prefix: front.relationship("Contained")
        .join(front.relationship("AllocatedTo").rename(action="contained"))
        .select(on("module", name_prefix(prefix))),
        "scan_select": lambda front, text: front.extent("Action.Description", column="d")
        .select(on("d", value_is(text))),
    }


class _Eager:
    """The eager ``Relation`` algebra behind the planner's builder calls."""

    def __init__(self, db: SeedDatabase) -> None:
        self._db = db

    def extent(self, class_name: str, *, column: str) -> Any:
        return extent(self._db, class_name, column=column)

    def relationship(self, association: str) -> Any:
        return relationship_relation(self._db, association)


def _runner(state: State) -> Callable[[tuple], Any]:
    """``run(query) -> result rows`` through the program's query layer."""
    db = state.db
    retrieval = Retrieval(db)
    plans = _plans(db)
    serial = retrieval.plan()
    sharded = retrieval.plan(ParallelConfig(shards=os.cpu_count() or 1))

    def run(query: tuple) -> Any:
        kind = query[0]
        if kind == "point":
            found = retrieval.by_name(query[1])
            return [] if found is None else [found]
        if kind == "prefix":
            return retrieval.by_name_prefix(query[1])
        if kind == "navigate":
            start = retrieval.by_name(query[1])
            return retrieval.navigate(start, ("Read", "from"), ("Write", "by"))
        if kind == "closure":
            start = retrieval.by_name(query[1])
            return retrieval.closure(start, "Contained", "container")
        if kind == "join":
            return plans[query[1]](serial, query[2]).execute().rows
        if kind == "scan_select":
            return plans[kind](sharded, f"performs {query[1]}").execute().rows
        return db.check_completeness().gaps

    return run


def _cells(rows: Any) -> Counter:
    """Identity-aware row multiset of relation rows or object lists."""
    return Counter(
        tuple(getattr(cell, "oid", cell) for cell in (row if isinstance(row, tuple) else (row,)))
        for row in rows
    )



class _Reference:
    """Reference answers from full scans and the eager algebra.

    The database is static, so the scans (``brute_objects`` /
    ``brute_relationships``) run once and serve every re-checked query.
    """

    def __init__(self, db: SeedDatabase) -> None:
        self._db = db
        self._named = [
            (obj.simple_name, obj) for obj in brute_objects(db, independent_only=True)
        ]
        self._read = brute_relationships(db, "Read")
        self._write = brute_relationships(db, "Write")
        self._container = {
            rel.bound("contained").oid: rel.bound("container")
            for rel in brute_relationships(db, "Contained")
        }

    def answer(self, query: tuple) -> Counter:
        kind = query[0]
        if kind == "point":
            return _cells(obj for name, obj in self._named if name == query[1])
        if kind == "prefix":
            return _cells(obj for name, obj in self._named if name.startswith(query[1]))
        if kind == "navigate":
            start = self._db.get_object(query[1])
            read = {rel.bound("from").oid for rel in self._read if rel.bound("by") is start}
            writers = {
                rel.bound("by") for rel in self._write
                if rel.bound("to").oid in read and rel.bound("by") is not start
            }
            return _cells(writers)
        if kind == "closure":
            chain = []
            current = self._container.get(self._db.get_object(query[1]).oid)
            while current is not None:
                chain.append(current)
                current = self._container.get(current.oid)
            return _cells(chain)
        plans = _plans(self._db)
        if kind == "join":
            return _cells(plans[query[1]](_Eager(self._db), query[2]).rows)
        return _cells(plans[kind](_Eager(self._db), f"performs {query[1]}").rows)


def _thunks(state: State, sizes: list[int]) -> Iterator[tuple[str, Callable[[], Any]]]:
    run = _runner(state)
    for query in state.queries:
        yield query[0], lambda query=query: sizes.append(len(run(query)))


def measure(ctx: Context, state: State) -> Measured:
    measured = Measured()
    cache = plan_cache(state.db)
    cache.clear()
    run = _runner(state)
    if ctx.tracer:
        ctx.tracer.quiet = True  # the warm-up's spans are not the measured ops'
    for query in state.warmup:
        run(query)
    if ctx.tracer:
        ctx.tracer.quiet = False
    before = (cache.hits, cache.misses, cache.reoptimizations)
    parallel.stats.reset()
    sizes: list[int] = []
    by_kind = timed_ops(ctx, measured, _thunks(state, sizes))
    hits, misses, reoptimized = (
        cache.hits - before[0], cache.misses - before[1], cache.reoptimizations - before[2]
    )
    lookups = hits + misses + reoptimized
    counts = measured.counts
    counts["plan_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    counts["plan_cache_reoptimizations"] = reoptimized
    counts["dispatched_shards"] = parallel.stats.dispatched_shards
    counts["parallel_fallbacks"] = parallel.stats.fallbacks
    for kind, latencies in by_kind.items():
        counts[f"{kind}_p50_ms"] = statistics.median(latencies) * 1e3
    # seed-determined: the same seed must return the same sizes in order
    counts["result_checksum"] = sum(
        (index + 1) * size for index, size in enumerate(sizes)
    ) % (2**31)
    counts["result_rows"] = sum(sizes)
    return measured


def verify(ctx: Context, state: State, measured: Measured) -> None:
    queries = state.queries
    rng = ctx.rng("query.verify")
    sample = set(rng.sample(range(len(queries)), int(len(queries) * VERIFY_SHARE)))
    first_of_class: dict[str, int] = {}
    for index, query in enumerate(queries):
        first_of_class.setdefault(query[0], index)
    sample.update(first_of_class.values())  # every class at least once
    run = _runner(state)
    reference = _Reference(state.db)
    checked = 0
    for index in sorted(sample):
        query = queries[index]
        if query[0] == "report":
            # the database is static: every report must equal the one
            # the full priming scan of set-up produced
            got = len(run(query))
            if got != state.gaps:
                measured.problems.append(
                    f"completeness report has {got} gaps, the static database has {state.gaps}"
                )
        else:
            got, expected = _cells(run(query)), reference.answer(query)
            if got != expected:
                measured.problems.append(
                    f"query {query} returned {sum(got.values())} rows, "
                    f"the reference {sum(expected.values())}"
                )
        checked += 1
    measured.counts["queries_verified"] = checked
    if not ctx.smoke and not measured.counts["dispatched_shards"]:
        measured.problems.append(
            "no scan was dispatched to the sharded runtime: the population "
            "is below the planner's parallel threshold"
        )
