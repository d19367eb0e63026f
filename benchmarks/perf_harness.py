"""Repeatable performance harness: create / relate / query / commit.

Times the hot paths the PR-1 index layer targets, at several database
sizes, against the seed's brute-force implementations (which are kept
in the tree as reference code: :func:`repro.core.indexes.brute_objects`,
``count_participations_scan``, ``validate_acyclic(use_index=False)``),
plus the PR-2 multi-join query scenario (cost-based planner versus the
eager left-to-right ``Relation`` algebra), the PR-3 scenarios:
``state_on_chain`` walks over a long version chain before and after
snapshot consolidation (``version_walk``), and incremental
``check_completeness`` versus the retained full scan
(``completeness_incremental``) — and the PR-4 bulk-write scenarios:
``bulk_ingest`` (populating a primed database through ``bulk()``
versus the per-item mutation path) and ``checkout_cold`` (one-pass
``resolve_chain`` view materialization versus the per-cell
``state_on_chain`` walk) — and the PR-5 scenario ``multijoin_drift``:
a multi-join plan cached against a small population, then the database
bulk-loaded two orders of magnitude larger; the drift-aware plan cache
(re-optimizing on cardinality drift) is timed against executing the
pinned stale plan — and the PR-6 scenario ``durability``: making one
check-in durable via a write-ahead delta record (O(change)) versus the
only pre-PR-6 durability mechanism, a full-image checkpoint
(O(database)) — and the PR-7 scenario ``multiuser_concurrent``: eight
reader threads retrieving while a writer applies large check-ins, MVCC
pinned-snapshot reads (which never block on an apply) against the
pre-PR-7 serialized live reads — and the PR-8 scenario
``multijoin_parallel``: a selective multi-join whose driving extent
scan the optimizer fans over a worker pool, timed against the same
query with that scan run in-thread — one fused kernel
(:mod:`repro.core.query.parallel`) on both sides since PR 13, so the
ratio is what the pool adds or costs, not what fusion saves; below the
costing threshold a parallel config resolves to the in-thread plan, so
the small sizes double as a no-overhead regression check. Sizes at or above
``PARALLEL_ONLY_SIZE`` (the 1M tier) run **only** this section — the
brute-force baselines of the earlier sections are infeasible there —
and the PR-9 scenario ``durability_txn``: making one *direct*
transaction durable via the post-commit write-ahead txn delta
(O(change)) versus the only pre-PR-9 mechanism for direct mutations,
a checkpoint per transaction (O(database)) — and the PR-14 scenario ``selective_join``: a
name-prefix selection on a role column and a three-way chain written
worst-first, the planner's name-index and incidence-index reads
(``IndexJoin``) against the eager algebra's scans — and the PR-15
scenario ``publish_snapshot``: what a server builds per accepted
check-in (the new version's journal record and its pinned view), from
the version's own states — the store's per-version index and a
successor of the previous view — against a full-store scan plus a cold
view build.
Results are written to ``BENCH_PR15.json`` at the repository root so
future PRs have a perf trajectory to compare against
(``BENCH_PR1.json``..``BENCH_PR10.json`` hold the earlier runs, and
``BENCH_PR13.json`` the 1M ``multijoin_parallel`` tier re-measured
under its pool-vs-in-thread meaning;
``benchmarks/compare_bench.py`` gates CI on the trajectory, since PR 5
fails when a gated baseline section vanishes from the fresh run, and
since PR 8 also fails in reverse when an undeclared section name
appears — ``--allow-new`` waives it for the introducing PR).

Run::

    PYTHONPATH=src python benchmarks/perf_harness.py            # full: 1k/10k/50k
    PYTHONPATH=src python benchmarks/perf_harness.py --quick    # CI smoke: 1k
    PYTHONPATH=src python benchmarks/perf_harness.py \
        --sizes 10000 1000000                                   # nightly 1M tier

This is a standalone script, deliberately not a pytest module: the
timings are workload benchmarks, not assertions (the figure/claim
regenerations under ``benchmarks/test_*.py`` stay pytest-based); CI
passes ``--gate-planner`` to fail the smoke run if the planner ever
evaluates the multi-join scenario slower than the eager algebra, and
runs ``compare_bench.py`` afterwards to fail on >25% regressions of
any gated section against the committed baselines.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from operator import itemgetter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.database import SeedDatabase  # noqa: E402
from repro.core.indexes import brute_objects  # noqa: E402
from repro.core.versions.compaction import RetentionPolicy  # noqa: E402
from repro.core.query.algebra import Relation, extent, relationship_relation  # noqa: E402
from repro.core.query.parallel import ParallelConfig  # noqa: E402
from repro.core.query.planner import execute_node, on, plan, plan_cache  # noqa: E402
from repro.core.query.predicates import name_prefix, value_is  # noqa: E402
from repro.core.query.retrieval import Retrieval  # noqa: E402
from repro.core.schema.builder import SchemaBuilder  # noqa: E402
from repro.core.storage.serialize import (  # noqa: E402
    state_to_dict,
    version_delta_from_db,
)

FULL_SIZES = (1_000, 10_000, 50_000)
QUICK_SIZES = (1_000,)
#: sizes at or above this run only the multijoin_parallel section
PARALLEL_ONLY_SIZE = 200_000


def harness_schema():
    """A small mixed schema: class family + an ACYCLIC association."""
    builder = SchemaBuilder("perf")
    builder.entity_class("Artifact")
    builder.entity_class("Doc", specializes="Artifact")
    builder.entity_class("Code", specializes="Artifact")
    builder.entity_class("Note", specializes="Artifact")
    builder.entity_class("Step")
    builder.association(
        "Contained",
        ("contained", "Step", "0..*"),
        ("container", "Step", "0..*"),
        acyclic=True,
    )
    builder.association(
        "Mentions",
        ("doc", "Doc", "0..*"),
        ("code", "Code", "0..*"),
    )
    builder.association(
        "Covers",
        ("note", "Note", "0..*"),
        ("doc", "Doc", "0..*"),
    )
    return builder.build()


def median_time(fn, repeats: int, min_sample_s: float = 0.002) -> float:
    """Median wall-clock seconds per call of *fn*.

    Sub-millisecond operations are looped inside each sample until a
    sample spans at least *min_sample_s*, then divided back — otherwise
    timer granularity and scheduler noise dominate the nanosecond-scale
    indexed paths and the speedup ratios the CI trend gate
    (``compare_bench.py``) compares jitter across runs.
    """
    started = time.perf_counter()
    fn()  # warm-up; also calibrates the inner loop
    single = time.perf_counter() - started
    inner = 1
    if 0 < single < min_sample_s:
        inner = min(10_000, max(1, round(min_sample_s / single)))
    samples = []
    for __ in range(repeats):
        started = time.perf_counter()
        for __ in range(inner):
            fn()
        samples.append((time.perf_counter() - started) / inner)
    return statistics.median(samples)


def bench_size(size: int, repeats: int) -> dict:
    """All measurements for one database size."""
    db = SeedDatabase(harness_schema(), f"perf-{size}")
    retrieval = Retrieval(db)
    result: dict = {"objects": size, "acyclic_edges": size}

    # -- create: `size` objects, every 10th a Doc -----------------------
    classes = ["Doc"] + ["Code"] * 5 + ["Note"] * 4
    started = time.perf_counter()
    for i in range(size):
        db.create_object(classes[i % 10], f"Obj{i}")
    elapsed = time.perf_counter() - started
    result["create_objects_s"] = elapsed
    result["create_objects_per_s"] = round(size / elapsed)

    # -- relate: a Contained forest of `size` edges ---------------------
    # containers form chains of 10; each leaf hangs off one container,
    # so incremental reachability walks at most ~10 nodes
    container_count = max(size // 10, 1)
    containers = [
        db.create_object("Step", f"Container{i}") for i in range(container_count)
    ]
    for i in range(1, container_count):
        if i % 10:
            db.relate(
                "Contained",
                contained=containers[i],
                container=containers[i - 1],
            )
    chain_edges = sum(1 for i in range(1, container_count) if i % 10)
    leaves = [db.create_object("Step", f"Leaf{i}") for i in range(size - chain_edges)]
    started = time.perf_counter()
    for i, leaf in enumerate(leaves):
        db.relate(
            "Contained",
            contained=leaf,
            container=containers[i % container_count],
        )
    elapsed = time.perf_counter() - started
    result["create_relationships_s"] = elapsed
    result["create_relationships_per_s"] = round(len(leaves) / elapsed)

    # -- query: class extent, indexed vs. seed full scan ----------------
    indexed = median_time(lambda: db.objects("Doc"), repeats)
    brute = median_time(lambda: brute_objects(db, "Doc"), repeats)
    assert [o.oid for o in db.objects("Doc")] == [
        o.oid for o in brute_objects(db, "Doc")
    ]
    result["query_extent"] = {
        "extent_size": len(db.objects("Doc")),
        "indexed_s": indexed,
        "bruteforce_s": brute,
        "speedup": round(brute / indexed, 1) if indexed else None,
    }

    # -- query: name prefix, bisect vs. seed full scan ------------------
    prefix = "Obj1"
    indexed = median_time(lambda: retrieval.by_name_prefix(prefix), repeats)
    brute = median_time(
        lambda: [
            obj
            for obj in brute_objects(db, independent_only=True)
            if obj.simple_name.startswith(prefix)
        ],
        repeats,
    )
    result["query_name_prefix"] = {
        "matches": len(retrieval.by_name_prefix(prefix)),
        "indexed_s": indexed,
        "bruteforce_s": brute,
        "speedup": round(brute / indexed, 1) if indexed else None,
    }

    # -- query: participation count, counter vs. enumeration ------------
    association = db.schema.association("Contained")
    busy = containers[0]
    indexed = median_time(
        lambda: db.patterns.count_participations(busy, association, 1), repeats
    )
    brute = median_time(
        lambda: db.patterns.count_participations_scan(busy, association, 1),
        repeats,
    )
    assert db.patterns.count_participations(
        busy, association, 1
    ) == db.patterns.count_participations_scan(busy, association, 1)
    result["count_participations"] = {
        "count": db.patterns.count_participations(busy, association, 1),
        "indexed_s": indexed,
        "bruteforce_s": brute,
        "speedup": round(brute / indexed, 1) if indexed else None,
    }

    # -- commit: one relationship into the ACYCLIC association ----------
    # the seed re-derived the whole family graph and DFS-walked it on
    # every such commit; that full check is timed as the baseline
    commit_samples = []
    for i in range(repeats):
        extra = db.create_object("Step", f"Extra{i}")
        started = time.perf_counter()
        db.relate(
            "Contained",
            contained=extra,
            container=containers[i % container_count],
        )
        commit_samples.append(time.perf_counter() - started)
    commit = statistics.median(commit_samples)
    full_check = median_time(
        lambda: db.consistency.validate_acyclic(association, use_index=False),
        repeats,
    )
    indexed_full_check = median_time(
        lambda: db.consistency.validate_acyclic(association), repeats
    )
    result["commit_acyclic"] = {
        "graph_edges": size + repeats,
        "indexed_commit_s": commit,
        "seed_full_check_s": full_check,
        "indexed_full_check_s": indexed_full_check,
        "speedup": round(full_check / commit, 1) if commit else None,
    }

    # -- commit: version snapshot over the dirty set --------------------
    started = time.perf_counter()
    db.create_version()
    result["create_version_s"] = time.perf_counter() - started

    # -- query: multi-join, cost-based planner vs eager algebra ---------
    # "which code is mentioned by docs covered by notes named Obj10*":
    # the eager algebra evaluates the query as written — full Note
    # extent, two fully materialized joins, selection last; the planner
    # pushes the selection into a bisected prefix scan, reorders the
    # joins smallest-first, and streams the probe sides. This section
    # runs LAST: its extra relationships must not inflate the brute
    # baselines of the PR-1 measurements above (the perf trajectory
    # against BENCH_PR1.json has to stay apples to apples).
    docs = db.objects("Doc")
    codes = db.objects("Code")
    notes = db.objects("Note")
    for position, doc in enumerate(docs):
        for offset in range(6):
            db.relate(
                "Mentions",
                doc=doc,
                code=codes[(position * 6 + offset) % len(codes)],
            )
    for position, note in enumerate(notes):
        db.relate("Covers", note=note, doc=docs[position % len(docs)])
    note_prefix = "Obj10"
    predicate = on("note", name_prefix(note_prefix))

    def eager_multijoin() -> Relation:
        return (
            extent(db, "Note", column="note")
            .join(relationship_relation(db, "Covers"))
            .join(relationship_relation(db, "Mentions"))
            .select(predicate)
            .project("code")
        )

    def planned_multijoin() -> Relation:
        return (
            plan(db)
            .extent("Note", column="note")
            .join(plan(db).relationship("Covers"))
            .join(plan(db).relationship("Mentions"))
            .select(predicate)
            .project("code")
            .execute()
        )

    assert sorted(o.oid for o in eager_multijoin().column("code")) == sorted(
        o.oid for o in planned_multijoin().column("code")
    )
    planner_time = median_time(planned_multijoin, repeats)
    eager_time = median_time(eager_multijoin, repeats)
    result["query_multijoin"] = {
        "joined_relationships": len(docs) * 6 + len(notes),
        "result_rows": len(planned_multijoin()),
        "planner_s": planner_time,
        "eager_s": eager_time,
        "speedup": round(eager_time / planner_time, 1) if planner_time else None,
    }

    return result


def completeness_schema():
    """A schema with completeness conditions the gap engine must track."""
    builder = SchemaBuilder("complete")
    builder.entity_class("Task")
    builder.dependent("Task", "Title", "1..1", sort="STRING")
    builder.dependent("Task", "Note", "0..*", sort="STRING")
    return builder.build()


def ingest_schema():
    """A sub-object-rich schema plus a dependency chain (bulk ingest)."""
    builder = SchemaBuilder("ingest")
    builder.entity_class("Task")
    builder.dependent("Task", "Title", "1..1", sort="STRING")
    builder.dependent("Task", "Note", "0..*", sort="STRING")
    builder.association(
        "DependsOn",
        ("prereq", "Task", "0..*"),
        ("dependent", "Task", "0..*"),
        acyclic=True,
    )
    return builder.build()


def bench_bulk_ingest(size: int, repeats: int) -> dict:
    """``bulk_load`` vs. the per-item mutation path, identical data.

    ``size`` tasks, each with a title and four notes, linked into
    ACYCLIC dependency chains of ~500 with two edges per task (deep
    containment/dependency structures — exactly where the per-edge
    incremental reachability probe degrades: every probe walks the
    chain behind the new edge's target, while the batch pays one DFS
    over the whole family regardless of depth). The database is primed
    (one completeness check) before population, as after any real
    session start — so the per-item path pays its per-commit costs in
    full: an index update per mutation, endpoint re-validation per
    relate, one reachability probe per edge, and one completeness
    fan-out per commit. The bulk path pays one index
    rebuild, one validation pass, one cycle DFS, and one dirty merge.
    Both paths are verified to land in the identical state. Specs are
    prepared outside the timed regions.
    """
    notes_per_task = 4
    # chain depth drives the per-edge probe cost the batch DFS avoids;
    # capped downward at large sizes to bound total harness runtime
    chain = min(1_000, max(250, 10_000_000 // size))
    object_specs = [
        {
            "class": "Task",
            "name": f"Task{i}",
            "sub_objects": [{"role": "Title", "value": f"title {i}"}]
            + [
                {"role": "Note", "value": f"note {i}.{note_index}"}
                for note_index in range(notes_per_task)
            ],
        }
        for i in range(size)
    ]
    relationship_specs = []
    for i in range(size):
        if i % chain and i >= 1:
            relationship_specs.append(
                {
                    "association": "DependsOn",
                    "bindings": {
                        "prereq": f"Task{i}",
                        "dependent": f"Task{i - 1}",
                    },
                }
            )
        if i % chain > 1 and i >= 2:
            relationship_specs.append(
                {
                    "association": "DependsOn",
                    "bindings": {
                        "prereq": f"Task{i}",
                        "dependent": f"Task{i - 2}",
                    },
                }
            )

    def fresh_db(name: str) -> SeedDatabase:
        db = SeedDatabase(ingest_schema(), name)
        db.create_object("Task", "Seeded").add_sub_object("Title", "seed")
        db.check_completeness()  # prime the incremental gap map
        return db

    def populate_per_item(db: SeedDatabase) -> None:
        for spec in object_specs:
            task = db.create_object(spec["class"], spec["name"])
            for sub_spec in spec["sub_objects"]:
                task.add_sub_object(sub_spec["role"], sub_spec["value"])
        for spec in relationship_specs:
            db.relate(
                spec["association"],
                {
                    role: db.get_object(target)
                    for role, target in spec["bindings"].items()
                },
            )

    # each sample needs a fresh database, so the usual median_time
    # helper does not fit; the minimum over `samples` fresh builds is
    # the noise-robust estimate (timeit practice: the fastest run is
    # the one least disturbed by the scheduler/GC), applied to both
    # paths identically. One build only at 50k — runtime.
    samples = 1 if size >= 50_000 else min(3, repeats)
    per_item_times = []
    for sample in range(samples):
        per_item_db = fresh_db(f"ingest-item-{size}-{sample}")
        gc.collect()  # earlier sections' garbage must not bill this one
        started = time.perf_counter()
        populate_per_item(per_item_db)
        per_item_times.append(time.perf_counter() - started)
    per_item = min(per_item_times)

    bulk_times = []
    for sample in range(samples):
        bulk_db = fresh_db(f"ingest-bulk-{size}-{sample}")
        gc.collect()
        started = time.perf_counter()
        bulk_db.bulk_load(object_specs, relationship_specs)
        bulk_times.append(time.perf_counter() - started)
    bulk = min(bulk_times)

    item_stats = per_item_db.statistics()
    bulk_stats = bulk_db.statistics()
    assert item_stats["objects"] == bulk_stats["objects"]
    assert item_stats["relationships"] == bulk_stats["relationships"]
    bulk_db.indexes.verify()
    item_gaps = sorted(
        (g.kind, g.item, g.element) for g in per_item_db.check_completeness()
    )
    bulk_gaps = sorted(
        (g.kind, g.item, g.element) for g in bulk_db.check_completeness()
    )
    assert item_gaps == bulk_gaps
    return {
        "objects": bulk_stats["objects"],
        "sub_objects_per_task": notes_per_task + 1,
        "relationships": bulk_stats["relationships"],
        "chain_length": chain,
        "bruteforce_s": per_item,
        "indexed_s": bulk,
        "speedup": round(per_item / bulk, 1) if bulk else None,
    }


def bench_multijoin_drift(size: int, repeats: int) -> dict:
    """Drift-aware plan cache vs. the pinned stale plan after a bulk load.

    The stale-plan hole PR 5 closes, measured: a three-way join (query
    written worst-first: ``Mentions ⋈ Covers ⋈ σ[name^Hot](Note)``) is
    optimized and cached against a small population where the
    relationship scans are tiny — the greedy reorderer therefore keeps
    the written order. ``bulk_load`` then inflates the database to
    ``size`` (every doc mentioned 6×, every note covering one doc)
    while the ``Hot`` notes stay few. The pinned plan still materializes
    the full ``Mentions ⋈ Covers`` intermediate before the selective
    extent touches it — O(database) — whereas the drift-aware cache
    notices the leaf-cardinality drift at lookup, re-optimizes, and
    starts from the selective prefix scan with index nested-loop joins
    — O(matches). Both paths are verified row-identical.
    """
    db = SeedDatabase(harness_schema(), f"drift-{size}")
    hot = max(size // 100, 5)
    small_docs = [db.create_object("Doc", f"SeedDoc{i}") for i in range(5)]
    small_codes = [db.create_object("Code", f"SeedCode{i}") for i in range(5)]
    for i in range(hot):
        note = db.create_object("Note", f"Hot{i}")
        db.relate("Covers", note=note, doc=small_docs[i % 5])
    for i in range(5):
        db.relate("Mentions", doc=small_docs[i], code=small_codes[i])

    query = (
        plan(db)
        .relationship("Mentions")
        .join(plan(db).relationship("Covers"))
        .join(plan(db).extent("Note", column="note"))
        .select(on("note", name_prefix("Hot")))
        .project("code")
    )
    cache = plan_cache(db)
    stale_plan = query.optimized()  # cached against the small statistics

    doc_count = max(size // 10, 10)
    code_count = max(size // 10, 10)
    note_count = size
    db.bulk_load(
        objects=[{"class": "Doc", "name": f"Doc{i}"} for i in range(doc_count)]
        + [{"class": "Code", "name": f"Code{i}"} for i in range(code_count)]
        + [{"class": "Note", "name": f"Cold{i}"} for i in range(note_count)],
        relationships=[
            {
                "association": "Mentions",
                "bindings": {
                    "doc": f"Doc{i}",
                    "code": f"Code{(i * 6 + offset) % code_count}",
                },
            }
            for i in range(doc_count)
            for offset in range(6)
        ]
        + [
            {
                "association": "Covers",
                "bindings": {"note": f"Cold{i}", "doc": f"Doc{i % doc_count}"},
            }
            for i in range(note_count)
        ],
    )

    reoptimizations_before = cache.reoptimizations
    fresh_result = query.execute()  # drift detected: re-optimized plan
    assert cache.reoptimizations == reoptimizations_before + 1, (
        "the bulk load must trip the drift threshold"
    )
    stale_result = execute_node(db, stale_plan)
    assert sorted(o.oid for o in stale_result.column("code")) == sorted(
        o.oid for o in fresh_result.column("code")
    )
    stale_time = median_time(lambda: execute_node(db, stale_plan), repeats)
    drift_aware = median_time(query.execute, repeats)
    return {
        "small_phase_notes": hot,
        "bulk_loaded_objects": doc_count + code_count + note_count,
        "joined_relationships": doc_count * 6 + note_count,
        "result_rows": len(fresh_result),
        "reoptimizations": cache.reoptimizations,
        "bruteforce_s": stale_time,
        "indexed_s": drift_aware,
        "speedup": round(stale_time / drift_aware, 1) if drift_aware else None,
    }


def bench_selective_join(size: int, repeats: int) -> dict:
    """Selective joins the planner reads through indexes, vs. the eager
    algebra's scans (PR 14's read-cost model and plan-time ``IndexJoin``).

    Two shapes over ``size`` notes, each covering one of ``size / 10``
    docs that each mention six codes: a name-prefix selection on a role
    column (``σ note^='Note10' (Covers)`` — the optimizer reads the
    matching notes from the name index and only their edges), and a
    three-way chain written worst-first (``Mentions ⋈ Covers ⋈ Note``
    with the same selection on top — the optimizer starts from the
    prefix extent and reaches both associations through the incidence
    index, where evaluation as written joins the two whole associations
    first). Both are verified row-identical against the eager algebra;
    the timed ratio is over the two shapes together.
    """
    db = SeedDatabase(harness_schema(), f"selective-{size}")
    doc_count = max(size // 10, 10)
    db.bulk_load(
        objects=[{"class": "Doc", "name": f"Doc{i}"} for i in range(doc_count)]
        + [{"class": "Code", "name": f"Code{i}"} for i in range(doc_count)]
        + [{"class": "Note", "name": f"Note{i}"} for i in range(size)],
        relationships=[
            {
                "association": "Mentions",
                "bindings": {
                    "doc": f"Doc{i}",
                    "code": f"Code{(i * 6 + offset) % doc_count}",
                },
            }
            for i in range(doc_count)
            for offset in range(6)
        ]
        + [
            {
                "association": "Covers",
                "bindings": {"note": f"Note{i}", "doc": f"Doc{i % doc_count}"},
            }
            for i in range(size)
        ],
    )
    predicate = on("note", name_prefix("Note10"))

    def eager_role() -> Relation:
        return relationship_relation(db, "Covers").select(predicate)

    def eager_chain() -> Relation:
        return (
            relationship_relation(db, "Mentions")
            .join(relationship_relation(db, "Covers"))
            .join(extent(db, "Note", column="note"))
            .select(predicate)
        )

    planned_role = plan(db).relationship("Covers").select(predicate)
    planned_chain = (
        plan(db)
        .relationship("Mentions")
        .join(plan(db).relationship("Covers"))
        .join(plan(db).extent("Note", column="note"))
        .select(predicate)
    )

    def cells(relation: Relation) -> list:
        return sorted(tuple(cell.oid for cell in row) for row in relation.rows)

    assert cells(planned_role.execute()) == cells(eager_role())
    assert cells(planned_chain.execute()) == cells(eager_chain())
    role_planned = median_time(planned_role.execute, repeats)
    chain_planned = median_time(planned_chain.execute, repeats)
    role_eager = median_time(eager_role, repeats)
    chain_eager = median_time(eager_chain, repeats)
    planned = role_planned + chain_planned
    eager = role_eager + chain_eager
    return {
        "joined_relationships": doc_count * 6 + size,
        "role_selection_rows": len(planned_role.execute()),
        "chain_rows": len(planned_chain.execute()),
        "role_selection_plan": planned_role.explain().splitlines(),
        "chain_plan": planned_chain.explain().splitlines(),
        "role_selection_speedup": round(role_eager / role_planned, 1),
        "chain_speedup": round(chain_eager / chain_planned, 1),
        "planner_s": planned,
        "eager_s": eager,
        "speedup": round(eager / planned, 1) if planned else None,
    }


def bench_checkout_cold(size: int, repeats: int) -> dict:
    """Cold view materialization: one-pass resolve vs. per-cell walks.

    ``size`` objects saved at the chain root, then a churn chain of up
    to ``size/20`` versions with **no** snapshots: every one of the
    ``size`` cells recorded only at the first version, so the per-cell
    ``state_on_chain`` reference walks the whole chain per cell —
    O(cells × chain) — while ``resolve_chain`` (what ``version_view``
    and ``select_version`` build on since PR 4) buckets all stored
    states in one pass — O(states). This is the cold-checkout cost of
    a long-history database.
    """
    db = SeedDatabase(harness_schema(), f"checkout-{size}")
    for i in range(size):
        db.create_object("Note", f"Cold{i}")
    db.create_version()
    chain_length = min(max(size // 20, 40), 1_000)
    for i in range(chain_length - 1):
        db.create_object("Doc", f"Churn{i}")
        db.create_version()
    store = db.versions.store
    tip = db.saved_versions()[-1]
    chain = db.versions.tree.chain(tip)
    assert store.resolve_chain(chain) == store.resolve_chain_scan(chain)
    few = max(3, repeats // 2)
    scan = median_time(lambda: store.resolve_chain_scan(chain), few)
    resolve = median_time(lambda: store.resolve_chain(chain), few)
    view_build = median_time(lambda: db.version_view(tip), few)
    return {
        "chain_length": chain_length,
        "cells": store.cell_count(),
        "view_build_s": view_build,
        "bruteforce_s": scan,
        "indexed_s": resolve,
        "speedup": round(scan / resolve, 1) if resolve else None,
    }


def version_cells_scan(db: SeedDatabase, vid) -> list[dict]:
    """The pre-PR-15 way to list a ``version`` record's cells, kept as
    the reference: walks every cell of the store to find the states
    recorded at *vid* (so they come in store order, not record order)."""
    store = db.versions.store
    cells = []
    for key in store.keys():
        kind, item_id = key
        for version, state, materialized in store.entries_of(key):
            if version != vid:
                continue
            cell = {"kind": kind, "id": item_id, "state": state_to_dict(kind, state)}
            if materialized:
                cell["materialized"] = True
            cells.append(cell)
    return cells


def bench_publish_snapshot(size: int, repeats: int) -> dict:
    """Per-publication artefacts: O(change) vs a pass over the master.

    A journal-bound server with ``size`` objects in the master; each
    round checks in three new items and publishes. What a publication
    builds beyond ``create_version`` itself is the ``version`` journal
    record and the pinned view. Since PR 15 both come from the states
    stored at the new version: the record through the store's
    per-version index, the view as a successor of the previously
    published view (tables copied, the delta applied). The reference is
    what every publication did before: :func:`version_cells_scan` over
    every store cell plus a cold ``version_view`` resolving the whole
    chain. ``publish_ms`` is one whole ``publish_snapshot`` call
    (version creation, journal append and flush included).
    """
    import tempfile

    from repro.multiuser import SeedServer

    with tempfile.TemporaryDirectory(prefix="seed-bench-") as tmp:
        server = SeedServer.open(
            Path(tmp) / "central.seed",
            schema=harness_schema(),
            name=f"publish-{size}",
        )
        master = server.master
        master.bulk_load(
            [{"class": "Note", "name": f"Note{i}"} for i in range(size)], []
        )
        server.publish_snapshot()  # the cold first pin
        few = max(3, repeats // 2)
        publish_samples = []
        for round_number in range(few + 1):
            client = server.connect(f"writer{round_number}")
            local = client.check_out()
            for item in range(3):
                local.create_object("Note", f"Delta{round_number}x{item}")
            client.check_in()
            started = time.perf_counter()
            version = server.publish_snapshot()
            publish_samples.append(time.perf_counter() - started)
            server.disconnect(f"writer{round_number}")
        base = server.snapshot(master.versions.tree.parent(version), build=False)
        published = server.snapshot(version, build=False)
        assert list(published.item_states()) == list(
            master.version_view(version).item_states()
        )
        by_key = itemgetter("kind", "id")
        assert sorted(
            json.loads(version_delta_from_db(master, version))["cells"], key=by_key
        ) == sorted(version_cells_scan(master, version), key=by_key)

        def incremental() -> None:
            version_delta_from_db(master, version)
            master.version_view(version, base)

        def full_pass() -> None:
            version_cells_scan(master, version)
            master.version_view(version)

        successor = median_time(incremental, few)
        cold = median_time(full_pass, few)
        return {
            "objects": size,
            "states_touched": master.versions.delta_size(version),
            "publish_ms": round(statistics.median(publish_samples[1:]) * 1e3, 3),
            "incremental_ms": round(successor * 1e3, 3),
            "full_pass_ms": round(cold * 1e3, 3),
            "bruteforce_s": cold,
            "indexed_s": successor,
            "speedup": round(cold / successor, 1) if successor else None,
        }


def bench_version_walk(size: int, repeats: int) -> dict:
    """``state_on_chain`` over a long chain, raw vs snapshot-consolidated.

    One version per mutation grows a chain of ``size/20`` versions; the
    probed item changed only at the first version, so an uncompacted
    walk descends the whole chain while the consolidated store stops at
    the nearest snapshot (every 16 versions) — the sublinearity claim
    of the PR-3 compaction subsystem.
    """
    chain_length = max(size // 20, 40)
    db = SeedDatabase(harness_schema(), f"versions-{size}")
    db.create_object("Note", "Probe")
    db.create_version()
    for i in range(chain_length - 1):
        db.create_object("Note", f"Churn{i}")
        db.create_version()
    store = db.versions.store
    tip = db.saved_versions()[-1]
    chain = db.versions.tree.chain(tip)
    probe_key = ("o", 1)  # recorded at version 1.0 only: worst-case walk
    raw = median_time(lambda: store.state_on_chain(probe_key, chain), repeats)
    tip_view_before = dict(db.version_view(tip).item_states())
    states_before = store.stored_state_count()
    compaction = db.compact(
        RetentionPolicy(squash_chains=False, snapshot_interval=16)
    )
    consolidated = median_time(
        lambda: store.state_on_chain(probe_key, chain), repeats
    )
    assert dict(db.version_view(tip).item_states()) == tip_view_before
    assert store.state_on_chain(probe_key, chain).name == "Probe"
    return {
        "chain_length": chain_length,
        "walk_bound": store.distance_to_snapshot(chain),
        "stored_states_raw": states_before,
        "stored_states_consolidated": store.stored_state_count(),
        "snapshots": len(compaction.snapshots_created),
        "bruteforce_s": raw,
        "indexed_s": consolidated,
        "speedup": round(raw / consolidated, 1) if consolidated else None,
    }


def bench_completeness(size: int, repeats: int) -> dict:
    """Incremental ``check_completeness`` vs the retained full scan.

    ``size`` tasks, one in ten incomplete; each timed incremental check
    follows ten fresh mutations, so the engine re-derives ten items and
    assembles the report from its gap map while the reference scans all
    ``size`` items against every completeness rule.
    """
    db = SeedDatabase(completeness_schema(), f"complete-{size}")
    titled = []
    for i in range(size):
        task = db.create_object("Task", f"Task{i}")
        if i % 10:
            titled.append(task.add_sub_object("Title", f"title {i}"))
    db.check_completeness()  # prime the gap map

    flips = [0]

    def mutate_and_check() -> None:
        flips[0] += 1
        for title in titled[:10]:
            db.set_value(
                title, None if flips[0] % 2 else f"flip {flips[0]}"
            )
        db.check_completeness()

    incremental = median_time(mutate_and_check, repeats)
    full_scan = median_time(db.check_completeness_scan, repeats)
    incremental_report = db.check_completeness()
    scan_report = db.check_completeness_scan()
    assert sorted(
        (g.kind, g.item, g.element) for g in incremental_report
    ) == sorted((g.kind, g.item, g.element) for g in scan_report)
    return {
        "objects": size,
        "gaps": len(scan_report),
        "dirty_per_check": 10,
        "indexed_s": incremental,
        "bruteforce_s": full_scan,
        "speedup": round(full_scan / incremental, 1) if incremental else None,
    }


def bench_multiuser_concurrent(size: int, repeats: int) -> dict:
    """MVCC snapshot reads vs serialized live reads under a hot writer.

    Eight reader threads retrieve from a server whose writer applies
    large check-ins at a ~50% duty cycle (each apply is followed by an
    equal pause — a structural, machine-independent load shape). Two
    read models over a fixed wall-clock window:

    * **serialized** (the pre-PR-7 model): retrieval goes to the live
      master, so a read cannot overlap a mutating check-in — readers
      queue on the writer's mutex and wait out every apply;
    * **MVCC** (PR 7): readers pin the published snapshot — a fully
      materialized immutable view — and keep reading straight through
      the applies; ``reads_during_apply`` counts reads that completed
      while a check-in was mid-apply (the non-blocking evidence).

    The gated speedup is the per-read cost ratio. With a ~50% apply
    duty cycle the serialized model loses about half the window by
    construction, so the expected ratio is ≈2x and stable across
    machines — the gate catches the MVCC path regressing into lock
    coupling, not scheduler noise.
    """
    import random
    import threading

    from repro.multiuser import SeedServer

    readers = 8
    items = [
        {"class": "Note", "name": f"Note{i}"} for i in range(size)
    ]

    def build_server() -> SeedServer:
        server = SeedServer(harness_schema())
        server.master.bulk_load(items, [])
        server.publish_snapshot()
        return server

    # calibrate: one check-in apply at this size bounds the window
    # (the window must span several apply+pause cycles)
    calibration = build_server()
    cal_client = calibration.connect("cal")
    cal_local = cal_client.check_out()
    batch = max(64, min(512, size // 16))
    for j in range(batch):
        cal_local.create_object("Note", f"Cal{j}")
    started = time.perf_counter()
    cal_client.check_in()
    apply_s = time.perf_counter() - started
    window = max(0.25, 4 * apply_s)

    def run_mode(mvcc: bool) -> tuple[int, int, int]:
        """(reads completed, reads mid-apply, check-ins applied)."""
        server = build_server()
        # pin before the writer starts: publication is a write and must
        # not race an apply; the pinned view itself is immutable
        pinned = server.snapshot() if mvcc else None
        mutex = threading.Lock()
        stop = threading.Event()
        in_apply = threading.Event()
        writer_waiting = threading.Event()
        counts = [0] * readers
        during_apply = [0] * readers

        def writer() -> None:
            n = 0
            while not stop.is_set():
                n += 1
                client = server.connect(f"w{n}")
                local = client.check_out()
                for j in range(batch):
                    local.create_object("Note", f"W{n}_{j}")
                applied_at = time.perf_counter()
                if mvcc:
                    in_apply.set()
                    client.check_in()
                    server.publish_snapshot()
                    in_apply.clear()
                else:
                    writer_waiting.set()
                    with mutex:
                        in_apply.set()
                        client.check_in()
                        in_apply.clear()
                    writer_waiting.clear()
                server.disconnect(f"w{n}")
                # ~50% duty cycle: pause as long as the apply took
                stop.wait(time.perf_counter() - applied_at)

        def reader(idx: int) -> None:
            rng = random.Random(idx)
            view = pinned
            master = server.master
            deadline = time.perf_counter() + window
            while time.perf_counter() < deadline:
                name = f"Note{rng.randrange(size)}"
                if mvcc:
                    found = view.find(name)
                    if in_apply.is_set():
                        during_apply[idx] += 1
                else:
                    # pre-PR-7: retrieval waits out the whole apply
                    while writer_waiting.is_set() or in_apply.is_set():
                        if time.perf_counter() >= deadline:
                            return
                        time.sleep(0.0002)
                    with mutex:
                        found = master.find_object(name)
                assert found is not None
                counts[idx] += 1

        writer_thread = threading.Thread(target=writer, daemon=True)
        reader_threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(readers)
        ]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join()
        stop.set()
        writer_thread.join(timeout=30)
        return sum(counts), sum(during_apply), server.checkins_applied

    few = max(3, repeats // 2)
    gc.collect()
    mvcc_runs = [run_mode(mvcc=True) for __ in range(few)]
    serial_runs = [run_mode(mvcc=False) for __ in range(few)]
    mvcc_reads = statistics.median(run[0] for run in mvcc_runs)
    serial_reads = statistics.median(run[0] for run in serial_runs)
    mvcc_per_read = window / mvcc_reads if mvcc_reads else None
    serial_per_read = window / serial_reads if serial_reads else None
    return {
        "objects": size,
        "readers": readers,
        "batch": batch,
        "apply_s": apply_s,
        "window_s": window,
        "reads_during_apply": max(run[1] for run in mvcc_runs),
        "checkins_mvcc": max(run[2] for run in mvcc_runs),
        "read_throughput_per_s": round(mvcc_reads / window, 1),
        "bruteforce_s": serial_per_read,
        "indexed_s": mvcc_per_read,
        "speedup": (
            round(serial_per_read / mvcc_per_read, 1)
            if mvcc_per_read and serial_per_read
            else None
        ),
    }


def parallel_schema():
    """Value-typed notes over a doc/code web (the sharded-scan workload)."""
    builder = SchemaBuilder("parq")
    builder.entity_class("Doc")
    builder.entity_class("Code")
    builder.entity_class("Note", sort="STRING")
    builder.association(
        "Mentions",
        ("doc", "Doc", "0..*"),
        ("code", "Code", "0..*"),
    )
    builder.association(
        "Covers",
        ("note", "Note", "0..*"),
        ("doc", "Doc", "0..*"),
    )
    return builder.build()


def bench_multijoin_parallel(size: int, repeats: int) -> dict:
    """The fused scan kernel fanned over a pool vs run in-thread.

    ``size`` value-typed notes (~1000 distinct tags), one ``Covers``
    edge per note onto ``size/10`` docs, six ``Mentions`` per doc:
    the query "codes mentioned by docs covered by tag7 notes" is
    dominated by the selective σ over the full Note extent — exactly
    the Select-over-ExtentScan chain :func:`repro.core.query.planner.
    _parallelize` wraps. Both paths run the *same* optimized join
    order and the *same* kernel over the driving scan (specialized
    predicates in a tight loop over the oid list); the ``Parallel``
    wrapper only moves that loop from the calling thread onto the warm
    forked pool, one contiguous oid range per shard. The ratio
    therefore measures pool-level concurrency minus dispatch cost (until
    PR 13 the in-thread side was the generator executor, and the x3.2
    recorded at 1M in ``BENCH_PR8.json`` was fusion). Below the costing
    threshold (sizes < 100k), and on a host without ``fork`` or with
    one CPU, the config yields the in-thread plan, so small sizes gate
    dispatch overhead staying at zero. ``backend`` reports what ran:
    ``process`` or ``in-thread``. Row multisets are verified identical
    before timing.
    """
    db = SeedDatabase(parallel_schema(), f"parq-{size}")
    doc_count = max(size // 10, 5)
    code_count = max(size // 10, 5)
    db.bulk_load(
        objects=[{"class": "Doc", "name": f"Doc{i}"} for i in range(doc_count)]
        + [{"class": "Code", "name": f"Code{i}"} for i in range(code_count)]
        + [
            {"class": "Note", "name": f"Note{i}", "value": f"tag{i % 997}"}
            for i in range(size)
        ],
        relationships=[
            {
                "association": "Mentions",
                "bindings": {
                    "doc": f"Doc{i}",
                    "code": f"Code{(i * 6 + offset) % code_count}",
                },
            }
            for i in range(doc_count)
            for offset in range(6)
        ]
        + [
            {
                "association": "Covers",
                "bindings": {"note": f"Note{i}", "doc": f"Doc{i % doc_count}"},
            }
            for i in range(size)
        ],
    )

    def build(builder):
        return (
            builder.extent("Note", column="note")
            .select(on("note", value_is("tag7")))
            .join(builder.relationship("Covers"))
            .join(builder.relationship("Mentions"))
            .project("code")
        )

    config = ParallelConfig()  # default costing decides serial vs parallel
    query, pooled = build(plan(db)), build(plan(db, config))
    serial_rows = query.execute()
    parallel_rows = pooled.execute()
    assert sorted(o.oid for o in serial_rows.column("code")) == sorted(
        o.oid for o in parallel_rows.column("code")
    )
    parallelized = "Parallel" in pooled.explain()
    few = max(3, repeats // 2)
    serial_s = median_time(query.execute, few)
    parallel_s = median_time(pooled.execute, few)
    return {
        "notes": size,
        "covers": size,
        "mentions": doc_count * 6,
        "result_rows": len(parallel_rows),
        "parallelized": parallelized,
        "shards": config.shards,
        "backend": "process" if parallelized else "in-thread",
        "bruteforce_s": serial_s,
        "indexed_s": parallel_s,
        "speedup": round(serial_s / parallel_s, 1) if parallel_s else None,
    }


def bench_durability(size: int, repeats: int) -> dict:
    """Durable check-in: write-ahead delta vs full-image checkpoint.

    A journal-bound server with ``size`` objects in the master. Before
    PR 6 the only way to make a check-in durable was to rewrite a full
    database image — O(database) per check-in. The write-ahead path
    appends one delta record (the check-in package) before the master
    applies it — O(change), with identical recovery semantics (the
    crash matrix in ``tests/test_crash_matrix.py`` proves equivalence).
    Timed here: one complete durable check-in (check-out, one creation,
    check-in with its delta append + fsync) against one
    :meth:`~repro.core.storage.engine.JournaledDatabase.checkpoint` of
    the same database. Byte costs are reported alongside.
    """
    import tempfile

    from repro.multiuser import SeedServer

    with tempfile.TemporaryDirectory(prefix="seed-bench-") as tmp:
        path = Path(tmp) / "central.seed"
        server = SeedServer.open(
            path, schema=harness_schema(), name=f"durable-{size}"
        )
        server.master.bulk_load(
            [{"class": "Note", "name": f"Note{i}"} for i in range(size)], []
        )
        journal = server.journal
        before = journal._file.size_bytes()  # noqa: SLF001 - byte accounting
        server.checkpoint()
        image_bytes = journal._file.size_bytes() - before  # noqa: SLF001

        counter = [0]

        def durable_checkin() -> None:
            counter[0] += 1
            client = server.connect(f"writer{counter[0]}")
            local = client.check_out()
            local.create_object("Note", f"Delta{counter[0]}")
            client.check_in()

        before = journal._file.size_bytes()  # noqa: SLF001
        durable_checkin()
        delta_bytes = journal._file.size_bytes() - before  # noqa: SLF001

        few = max(3, repeats // 2)
        checkin = median_time(durable_checkin, few)
        checkpoint = median_time(server.checkpoint, few)
        return {
            "objects": size,
            "image_bytes": image_bytes,
            "delta_bytes": delta_bytes,
            "bruteforce_s": checkpoint,
            "indexed_s": checkin,
            "speedup": round(checkpoint / checkin, 1) if checkin else None,
        }


def bench_durability_txn(size: int, repeats: int) -> dict:
    """Durable direct transaction: write-ahead txn delta vs checkpoint.

    A journal-bound database with ``size`` objects, mutated *directly*
    (no check-out/check-in). Before PR 9 a direct commit was only
    durable from the next full-image checkpoint — O(database) per
    transaction if every commit must survive a crash. The post-commit
    txn sink appends one delta record covering exactly the items the
    transaction touched — O(change), with replay equivalence proved by
    the crash matrix (``tests/test_crash_matrix.py``). Timed here: one
    committed single-object transaction through the sink against one
    :meth:`~repro.core.storage.engine.JournaledDatabase.checkpoint` of
    the same database. Byte costs are reported alongside.
    """
    import tempfile

    from repro.core.storage import JournaledDatabase

    with tempfile.TemporaryDirectory(prefix="seed-bench-") as tmp:
        path = Path(tmp) / "txn.seed"
        journal = JournaledDatabase.open(
            path, schema=harness_schema(), name=f"txn-{size}"
        )
        db = journal.db
        with journal.suspended_txn_sink():  # setup is not the workload
            db.bulk_load(
                [{"class": "Note", "name": f"Note{i}"} for i in range(size)],
                [],
            )
        before = journal._file.size_bytes()  # noqa: SLF001 - byte accounting
        journal.checkpoint()
        image_bytes = journal._file.size_bytes() - before  # noqa: SLF001

        counter = [0]

        def durable_txn() -> None:
            counter[0] += 1
            with db.transaction():
                db.create_object("Note", f"Txn{counter[0]}")

        before = journal._file.size_bytes()  # noqa: SLF001
        durable_txn()
        delta_bytes = journal._file.size_bytes() - before  # noqa: SLF001

        few = max(3, repeats // 2)
        txn = median_time(durable_txn, few)
        checkpoint = median_time(journal.checkpoint, few)
        return {
            "objects": size,
            "image_bytes": image_bytes,
            "delta_bytes": delta_bytes,
            "bruteforce_s": checkpoint,
            "indexed_s": txn,
            "speedup": round(checkpoint / txn, 1) if txn else None,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smallest size, fewer repeats",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        help="override the database sizes to benchmark",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_PR15.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--gate-planner",
        action="store_true",
        help="fail (exit 2) if the planner evaluates the multi-join "
             "scenario slower than the eager algebra at any size",
    )
    args = parser.parse_args(argv)

    sizes = tuple(args.sizes) if args.sizes else (
        QUICK_SIZES if args.quick else FULL_SIZES
    )
    repeats = 3 if args.quick else 7

    report = {
        "benchmark": (
            "PR15: O(change) snapshot publication (per-version store "
            "index, successor views)"
        ),
        "quick": args.quick,
        "python": sys.version.split()[0],
        "repeats": repeats,
        "results": {},
    }
    for size in sizes:
        print(f"benchmarking size {size} ...", flush=True)
        if size >= PARALLEL_ONLY_SIZE:
            # 1M tier: the other sections' brute-force baselines are
            # infeasible here; only the parallel scan section runs
            report["results"][str(size)] = {
                "objects": size,
                "parallel_only_tier": True,
                "multijoin_parallel": bench_multijoin_parallel(size, repeats),
            }
            continue
        data = bench_size(size, repeats)
        data["version_walk"] = bench_version_walk(size, repeats)
        data["completeness_incremental"] = bench_completeness(size, repeats)
        data["bulk_ingest"] = bench_bulk_ingest(size, repeats)
        data["checkout_cold"] = bench_checkout_cold(size, repeats)
        data["publish_snapshot"] = bench_publish_snapshot(size, repeats)
        data["multijoin_drift"] = bench_multijoin_drift(size, repeats)
        data["selective_join"] = bench_selective_join(size, repeats)
        data["durability"] = bench_durability(size, repeats)
        data["durability_txn"] = bench_durability_txn(size, repeats)
        data["multiuser_concurrent"] = bench_multiuser_concurrent(
            size, repeats
        )
        data["multijoin_parallel"] = bench_multijoin_parallel(size, repeats)
        report["results"][str(size)] = data

    acceptance = {}
    at_10k = report["results"].get("10000")
    if at_10k:
        acceptance["extent_speedup_at_10k"] = at_10k["query_extent"]["speedup"]
        acceptance["extent_speedup_ok"] = at_10k["query_extent"]["speedup"] >= 5
        acceptance["acyclic_commit_speedup_at_10k"] = at_10k["commit_acyclic"][
            "speedup"
        ]
        acceptance["acyclic_commit_speedup_ok"] = (
            at_10k["commit_acyclic"]["speedup"] >= 10
        )
        acceptance["multijoin_speedup_at_10k"] = at_10k["query_multijoin"][
            "speedup"
        ]
        acceptance["multijoin_speedup_ok"] = (
            at_10k["query_multijoin"]["speedup"] >= 5
        )
        acceptance["version_walk_speedup_at_10k"] = at_10k["version_walk"][
            "speedup"
        ]
        acceptance["version_walk_speedup_ok"] = (
            at_10k["version_walk"]["speedup"] >= 5
        )
        acceptance["completeness_speedup_at_10k"] = at_10k[
            "completeness_incremental"
        ]["speedup"]
        acceptance["completeness_speedup_ok"] = (
            at_10k["completeness_incremental"]["speedup"] >= 5
        )
        acceptance["bulk_ingest_speedup_at_10k"] = at_10k["bulk_ingest"][
            "speedup"
        ]
        acceptance["bulk_ingest_speedup_ok"] = (
            at_10k["bulk_ingest"]["speedup"] >= 10
        )
        acceptance["checkout_cold_speedup_at_10k"] = at_10k["checkout_cold"][
            "speedup"
        ]
        acceptance["checkout_cold_speedup_ok"] = (
            at_10k["checkout_cold"]["speedup"] >= 10
        )
        acceptance["publish_incremental_speedup_at_10k"] = at_10k[
            "publish_snapshot"
        ]["speedup"]
        acceptance["publish_incremental_speedup_ok"] = (
            at_10k["publish_snapshot"]["speedup"] >= 10
        )
        acceptance["multijoin_drift_speedup_at_10k"] = at_10k[
            "multijoin_drift"
        ]["speedup"]
        acceptance["multijoin_drift_speedup_ok"] = (
            at_10k["multijoin_drift"]["speedup"] >= 2
        )
        acceptance["selective_join_speedup_at_10k"] = at_10k["selective_join"][
            "speedup"
        ]
        acceptance["selective_join_speedup_ok"] = (
            at_10k["selective_join"]["speedup"] >= 5
        )
        acceptance["durability_speedup_at_10k"] = at_10k["durability"][
            "speedup"
        ]
        acceptance["durability_speedup_ok"] = (
            at_10k["durability"]["speedup"] >= 2
        )
        acceptance["durability_txn_speedup_at_10k"] = at_10k[
            "durability_txn"
        ]["speedup"]
        acceptance["durability_txn_speedup_ok"] = (
            at_10k["durability_txn"]["speedup"] >= 2
        )
        # O(change): one txn delta must stay a small fraction of the image
        acceptance["durability_txn_delta_fraction_at_10k"] = round(
            at_10k["durability_txn"]["delta_bytes"]
            / at_10k["durability_txn"]["image_bytes"],
            4,
        )
        acceptance["durability_txn_delta_small_ok"] = (
            at_10k["durability_txn"]["delta_bytes"]
            < at_10k["durability_txn"]["image_bytes"] / 10
        )
        acceptance["multiuser_concurrent_speedup_at_10k"] = at_10k[
            "multiuser_concurrent"
        ]["speedup"]
        # the ~50% writer duty cycle makes ≈2x the structural floor
        acceptance["multiuser_concurrent_speedup_ok"] = (
            at_10k["multiuser_concurrent"]["speedup"] >= 1.5
        )
        acceptance["multiuser_reads_during_apply"] = at_10k[
            "multiuser_concurrent"
        ]["reads_during_apply"]
        acceptance["multiuser_reads_nonblocking_ok"] = (
            at_10k["multiuser_concurrent"]["reads_during_apply"] > 0
        )
        # 10k sits below the parallel costing threshold: the config must
        # resolve to the serial plan, i.e. stay within noise of x1.0
        acceptance["multijoin_parallel_speedup_at_10k"] = at_10k[
            "multijoin_parallel"
        ]["speedup"]
        acceptance["multijoin_parallel_serial_below_threshold"] = (
            not at_10k["multijoin_parallel"]["parallelized"]
        )
        acceptance["multijoin_parallel_no_overhead_ok"] = (
            at_10k["multijoin_parallel"]["speedup"] >= 0.8
        )
    at_1m = report["results"].get("1000000")
    if at_1m:
        acceptance["multijoin_parallel_speedup_at_1m"] = at_1m[
            "multijoin_parallel"
        ]["speedup"]
        # pool vs in-thread over one shared kernel: the pool must not
        # cost more than it returns (>= 0.8 = no overhead beyond noise)
        acceptance["multijoin_parallel_speedup_ok"] = (
            at_1m["multijoin_parallel"]["speedup"] >= 0.8
        )
    report["acceptance"] = acceptance

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for size, data in report["results"].items():
        if data.get("parallel_only_tier"):
            print(
                f"  {size}: multijoin parallel "
                f"x{data['multijoin_parallel']['speedup']} "
                f"({data['multijoin_parallel']['backend']}, "
                f"{data['multijoin_parallel']['shards']} shards, "
                "parallel-only tier)"
            )
            continue
        print(
            f"  {size}: extent x{data['query_extent']['speedup']}, "
            f"prefix x{data['query_name_prefix']['speedup']}, "
            f"participation x{data['count_participations']['speedup']}, "
            f"acyclic commit x{data['commit_acyclic']['speedup']}, "
            f"multijoin x{data['query_multijoin']['speedup']}, "
            f"version walk x{data['version_walk']['speedup']}, "
            f"completeness x{data['completeness_incremental']['speedup']}, "
            f"bulk ingest x{data['bulk_ingest']['speedup']}, "
            f"checkout cold x{data['checkout_cold']['speedup']}, "
            f"publish snapshot x{data['publish_snapshot']['speedup']} "
            f"({data['publish_snapshot']['publish_ms']} ms), "
            f"multijoin drift x{data['multijoin_drift']['speedup']}, "
            f"selective join x{data['selective_join']['speedup']}, "
            f"durability x{data['durability']['speedup']}, "
            f"txn durability x{data['durability_txn']['speedup']}, "
            f"concurrent reads x{data['multiuser_concurrent']['speedup']}, "
            f"multijoin parallel x{data['multijoin_parallel']['speedup']}"
        )
    if args.gate_planner:
        # compare raw medians, not the rounded display value: a 5%
        # regression must not hide behind round(0.96, 1) == 1.0
        slow = {
            size: data["query_multijoin"]["speedup"]
            for size, data in report["results"].items()
            if "query_multijoin" in data
            and data["query_multijoin"]["planner_s"]
            >= data["query_multijoin"]["eager_s"]
        }
        if slow:
            print(f"planner slower than eager algebra: {slow}")
            return 2
        print("planner gate ok: multijoin speedup >= 1x at every size")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
