"""The PR-5 statistics subsystem: equivalence, selectivity, drift.

Three contracts are exercised here:

* **Statistics mirror invariant** — the incrementally maintained
  per-class value histograms (``IndexLayer.value_counts``) and
  distinct-participant counts (:meth:`IndexLayer.distinct_participants`,
  the sizes of the ``participation`` maps) equal the
  brute-force recounts (``brute_value_counts`` and
  ``brute_participation_distinct`` in ``tests/_oracles.py``) after
  arbitrary mutation, transaction-rollback, bulk, version, and
  compaction scripts.
* **Histogram-costed planner equivalence** — with the statistics-driven
  cost model (selection selectivities, distinct-based join estimates)
  the planner's output stays
  row-multiset identical to the eager ER algebra on the PR-2 random
  query generator.
* **Drift-aware plan cache** — a plan cached against a near-empty
  database is re-optimized once a ``bulk_load`` (or any large write)
  shifts the leaf cardinalities past the drift threshold, while small
  oscillations keep serving the cached plan.
"""

from __future__ import annotations

import random

import pytest

from _oracles import brute_participation_distinct, brute_value_counts
from _planner_gen import build_population, random_query, row_multiset
from repro.core import SeedDatabase, figure3_schema, indexes
from repro.core.errors import ConsistencyError, SeedError
from repro.core.indexes import prefix_upper_bound
from repro.core.query import planner
from repro.core.query.planner import (
    Select,
    execute_node,
    on,
    plan,
    plan_cache,
)
from repro.core.query.predicates import (
    name_prefix,
    participates_in,
    value_is,
)
from repro.core.schema.builder import SchemaBuilder
from repro.core.versions.compaction import RetentionPolicy


def assert_statistics_match(db: SeedDatabase) -> None:
    """Maintained statistics equal the brute-force recount."""
    assert db.indexes.value_counts == brute_value_counts(db)
    brute = brute_participation_distinct(db)
    # every key both ways: each recounted key through the accessor, and
    # each element the layer holds against the recount (0 when absent)
    for (element_name, position), distinct in brute.items():
        assert db.indexes.distinct_participants(element_name, position) == distinct
    for element_name in db.indexes.participation:
        for position in (0, 1):
            assert db.indexes.distinct_participants(
                element_name, position
            ) == brute.get((element_name, position), 0)


# ----------------------------------------------------------------------
# maintained statistics == brute-force recount
# ----------------------------------------------------------------------


def value_schema():
    # value-typed classes can neither join generalization hierarchies
    # nor carry dependents, so the value churn lives on the standalone
    # Label class and on Data's dependent Note sub-objects, while
    # reclassification churns the sortless Thing family
    builder = SchemaBuilder("stats")
    builder.entity_class("Thing")
    builder.entity_class("Action", specializes="Thing")
    builder.entity_class("SubAction", specializes="Action")
    builder.entity_class("Data")
    builder.entity_class("Label", sort="STRING")
    builder.dependent("Data", "Note", "0..*", sort="STRING")
    builder.association(
        "Uses", ("used", "Data", "0..*"), ("by", "Thing", "0..*")
    )
    builder.association(
        "Refines",
        ("refined", "Data", "0..*"),
        ("into", "Thing", "0..*"),
        specializes="Uses",
    )
    return builder.build()


def _random_statistics_workload(
    db: SeedDatabase, rng: random.Random, steps: int
) -> None:
    """Mutations that churn values, classes, and participations."""
    values = ["alpha", "beta", "gamma", "alpha", None]
    counter = [0]

    def fresh_name() -> str:
        counter[0] += 1
        return f"S{rng.randrange(10**6)}_{counter[0]}"

    for __ in range(steps):
        op = rng.randrange(12)
        live = [
            obj
            for obj in db.all_objects_raw()
            if not obj.deleted and obj.parent is None
        ]
        valued = [
            obj
            for obj in db.all_objects_raw()
            if not obj.deleted and obj.entity_class.has_value
        ]
        data_objects = [
            obj for obj in live if obj.entity_class.name == "Data"
        ]
        try:
            if op <= 2 or not live:
                db.create_object(
                    rng.choice(
                        ["Data", "Label", "Action", "SubAction", "Thing"]
                    ),
                    fresh_name(),
                    pattern=rng.random() < 0.15,
                )
            elif op == 3 and valued:
                db.set_value(rng.choice(valued), rng.choice(values))
            elif op == 4 and data_objects:
                parent = rng.choice(data_objects)
                db.create_sub_object(
                    parent, "Note", rng.choice(values)
                )
            elif op == 5 and data_objects:
                first = rng.choice(data_objects)
                second = rng.choice(live)
                association = rng.choice(["Uses", "Refines"])
                roles = db.schema.association(association).role_names()
                db.relate(association, dict(zip(roles, (first, second))))
            elif op == 6:
                db.delete(rng.choice(live))
            elif op == 7:
                rels = [r for r in db.all_relationships_raw() if not r.deleted]
                if rels:
                    db.delete(rng.choice(rels))
            elif op == 8:
                things = [
                    o
                    for o in live
                    if o.entity_class.name in ("Thing", "Action")
                ]
                if things:
                    obj = rng.choice(things)
                    db.reclassify(
                        obj,
                        "Action"
                        if obj.entity_class.name == "Thing"
                        else "SubAction",
                    )
            elif op == 9 and live:
                db.rename(rng.choice(live), fresh_name())
            elif op == 10 and valued:
                # rolled-back transaction: statistics must revert too
                anchor = rng.choice(valued)
                with pytest.raises(SeedError):
                    with db.transaction():
                        db.set_value(anchor, "doomed")
                        created = db.create_object("Label", fresh_name())
                        db.set_value(created, "doomed-too")
                        db.get_object("NoSuchObject")
            else:
                patterns = [o for o in live if o.is_pattern]
                normals = [
                    o
                    for o in live
                    if not o.in_pattern_context and not o.inherited_patterns
                ]
                if patterns and normals:
                    db.inherit(rng.choice(patterns), rng.choice(normals))
        except (ConsistencyError, SeedError):
            continue


class TestMaintainedStatisticsEquivalence:
    @pytest.mark.parametrize("seed", [2, 19, 47, 83])
    def test_random_mutation_scripts(self, seed):
        db = SeedDatabase(value_schema(), f"stats-{seed}")
        rng = random.Random(seed)
        for __ in range(4):
            _random_statistics_workload(db, rng, 40)
            assert_statistics_match(db)
            db.indexes.verify()  # snapshot now covers the statistics too

    def test_bulk_batch_settles_statistics(self):
        db = SeedDatabase(value_schema(), "stats-bulk")
        with db.bulk():
            for i in range(30):
                obj = db.create_object("Label", f"B{i}")
                db.set_value(obj, "bulk" if i % 2 else "load")
        assert_statistics_match(db)

    def test_bulk_rollback_restores_statistics(self):
        db = SeedDatabase(value_schema(), "stats-bulk-rb")
        seeded = db.create_object("Label", "Seeded")
        db.set_value(seeded, "kept")
        before = db.indexes.snapshot()
        with pytest.raises(SeedError):
            with db.bulk():
                doomed = db.create_object("Label", "Doomed")
                db.set_value(doomed, "dropped")
                raise SeedError("abort the batch")
        after = db.indexes.snapshot()
        assert after["value_counts"] == before["value_counts"]
        assert after["participation"] == before["participation"]
        assert_statistics_match(db)

    def test_bulk_load_and_version_cycle(self):
        db = SeedDatabase(value_schema(), "stats-load")
        db.bulk_load(
            objects=[
                {
                    "class": "Data",
                    "name": f"L{i}",
                    "sub_objects": [{"role": "Note", "value": f"v{i % 3}"}],
                }
                for i in range(20)
            ]
            + [
                {"class": "Label", "name": f"V{i}", "value": f"tag{i % 2}"}
                for i in range(6)
            ]
            + [{"class": "Action", "name": f"A{i}"} for i in range(5)],
            relationships=[
                {
                    "association": "Uses",
                    "bindings": {"used": f"L{i}", "by": f"A{i % 5}"},
                }
                for i in range(20)
            ],
        )
        assert_statistics_match(db)
        first = db.create_version()
        db.set_value(db.get_object("V0"), "changed")
        db.create_version()
        db.select_version(first)
        assert_statistics_match(db)

    def test_compaction_and_tombstone_gc(self):
        db = SeedDatabase(value_schema(), "stats-gc")
        keep = db.create_object("Label", "Keep")
        db.set_value(keep, "kept")
        doomed = db.create_object("Label", "Doomed")
        db.set_value(doomed, "dead")
        db.create_version()
        db.delete(doomed)
        for i in range(6):
            db.set_value(keep, f"kept{i}")
            db.create_version()
        db.compact(
            RetentionPolicy(
                keep_last=1, snapshot_interval=3, gc_tombstones=True
            )
        )
        assert_statistics_match(db)
        db.indexes.verify()


# ----------------------------------------------------------------------
# histogram accessors (top-K + remainder)
# ----------------------------------------------------------------------


class TestHistogramAccessors:
    @pytest.fixture()
    def db(self):
        db = SeedDatabase(value_schema(), "hist")
        for i in range(24):
            obj = db.create_object("Label", f"H{i}")
            # skewed: "hot" 12×, "warm" 6×, tail of singletons
            if i < 12:
                db.set_value(obj, "hot")
            elif i < 18:
                db.set_value(obj, "warm")
            else:
                db.set_value(obj, f"cold{i}")
        return db

    def test_top_k_plus_remainder(self, db, monkeypatch):
        monkeypatch.setattr(indexes, "TOP_K", 2)
        wanted = db.schema.entity_class("Label")
        top, remainder_count, remainder_distinct = db.indexes.value_histogram(wanted)
        assert [(key[1], count) for key, count in top] == [
            ("hot", 12),
            ("warm", 6),
        ]
        assert remainder_count == 6 and remainder_distinct == 6

    def test_value_frequency_exact_and_tail(self, db):
        wanted = db.schema.entity_class("Label")
        assert db.indexes.value_frequency(wanted, "hot") == 12.0
        # a tail value is its maintained count, not a remainder average
        db.set_value(db.get_object("H19"), "cold20")
        assert db.indexes.value_frequency(wanted, "cold20") == 2.0
        assert db.indexes.value_frequency(wanted, "cold21") == 1.0
        assert db.indexes.value_frequency(wanted, "unseen") == 0.0
        # the all-class sums behind an untraceable column agree
        assert db.indexes.total_value_frequency("hot") == 12.0
        assert db.indexes.name_count() == len(db.indexes.names)

    def test_defined_count_tracks_clears(self, db):
        label = db.schema.entity_class("Label")
        assert db.indexes.defined_count(label) == 24
        db.create_object("Label", "NoValue")  # undefined: not counted
        assert db.indexes.defined_count(label) == 24
        db.set_value(db.get_object("H0"), None)  # cleared: uncounted
        assert db.indexes.defined_count(label) == 23
        # dependent sub-object values land in the dependent's histogram
        data = db.create_object("Data", "Annotated")
        note = data.add_sub_object("Note", "annotated")
        assert note.value == "annotated"
        assert (
            db.indexes.defined_count(db.schema.entity_class("Data.Note")) == 1
        )

    def test_distinct_participants(self, db):
        action = db.create_object("Action", "User")
        used = [db.create_object("Data", f"D{i}") for i in range(3)]
        for obj in used:
            db.relate("Uses", used=obj, by=action)
        assert db.indexes.distinct_participants("Uses", 0) == 3
        assert db.indexes.distinct_participants("Uses", 1) == 1
        assert db.indexes.distinct_participants("Uses") == 4  # both ends


# ----------------------------------------------------------------------
# histogram-costed planner == eager algebra (PR-2 generator)
# ----------------------------------------------------------------------


class TestHistogramCostedPlannerEquivalence:
    @pytest.mark.parametrize("population_seed", (31, 32, 33, 34))
    def test_planner_matches_eager(self, population_seed):
        db = build_population(population_seed)
        rng = random.Random(population_seed * 607)
        for __ in range(8):
            query = random_query(rng, db)
            planned = query.plan.execute()
            assert planned.columns == query.relation.columns
            assert row_multiset(planned) == row_multiset(query.relation), (
                query.plan.explain()
            )

    def test_selectivity_reads_statistics(self):
        db = build_population(35)
        # participates_in now estimates from the distinct-participant
        # counters: far more selective classes give smaller estimates
        broad = plan(db).extent("Thing", column="t").select(
            on("t", participates_in("Triggers"))
        )
        everything = plan(db).extent("Thing", column="t")
        assert "est~" in broad.explain()
        broad_estimate = int(broad.explain().split("est~")[1].split("\n")[0])
        total_estimate = int(
            everything.explain().split("est~")[1].split("\n")[0]
        )
        assert broad_estimate <= total_estimate
        # value_is of a never-seen value estimates near-empty
        rare = plan(db).extent("Data", column="d").select(
            on("d", value_is("never-stored-anywhere"))
        )
        assert rare.explain().startswith("Select")
        assert "est~1\n" in rare.explain() + "\n"

    def test_unhashable_expected_value_falls_back_to_default(self):
        # value_is([1, 2]) is a valid (always-false) filter; the
        # histogram cannot key it, but costing must not crash —
        # regression: value_key raised TypeError inside _estimate
        db = SeedDatabase(value_schema(), "unhashable")
        label = db.create_object("Label", "L0")
        db.set_value(label, "x")
        query = (
            plan(db)
            .extent("Label", column="l")
            .select(on("l", value_is([1, 2])))
            .join(plan(db).extent("Label", column="l"))
        )
        assert query.execute().rows == ()
        assert "est~" in query.explain()

# ----------------------------------------------------------------------
# drift-aware plan cache
# ----------------------------------------------------------------------


def drift_schema():
    builder = SchemaBuilder("drift")
    builder.entity_class("Doc")
    builder.entity_class("Note")
    builder.association(
        "Covers", ("note", "Note", "0..*"), ("doc", "Doc", "0..*")
    )
    return builder.build()


def drift_query(db: SeedDatabase):
    return (
        plan(db)
        .relationship("Covers")
        .join(plan(db).extent("Note", column="note"))
        .select(on("note", name_prefix("Hot")))
    )


def bulk_specs(count: int, offset: int = 0):
    objects = [
        {"class": "Note", "name": f"Cold{offset + i}"} for i in range(count)
    ] + [{"class": "Doc", "name": f"D{offset + i}"} for i in range(count // 10 or 1)]
    relationships = [
        {
            "association": "Covers",
            "bindings": {
                "note": f"Cold{offset + i}",
                "doc": f"D{offset + i % (count // 10 or 1)}",
            },
        }
        for i in range(count)
    ]
    return objects, relationships


class TestDriftAwareCache:
    def test_plan_cached_pre_bulk_load_reoptimized_after_finalize(self):
        """Regression: the stale-plan hole. A plan optimized against a
        near-empty database must not stay pinned once ``bulk_load``
        inflates the cardinalities it was costed under."""
        db = SeedDatabase(drift_schema(), "drift-regress")
        for i in range(3):
            db.create_object("Note", f"Hot{i}")
        query = drift_query(db)
        cache = plan_cache(db)
        stale = query.optimized()
        assert (cache.misses, cache.reoptimizations) == (1, 0)
        assert query.optimized() is stale  # stable while statistics hold
        assert cache.hits == 1

        objects, relationships = bulk_specs(400)
        db.bulk_load(objects=objects, relationships=relationships)

        fresh = query.optimized()
        assert cache.reoptimizations == 1, (
            "bulk_load finalize must trip the drift threshold"
        )
        assert fresh is not stale
        # the refreshed entry is served again until the next drift
        assert query.optimized() is fresh
        # and both plans still return identical rows (soundness never
        # depended on the statistics)
        assert row_multiset(execute_node(db, stale)) == row_multiset(
            execute_node(db, fresh)
        )

    def test_bulk_batch_mutations_also_invalidate(self):
        db = SeedDatabase(drift_schema(), "drift-bulk")
        db.create_object("Note", "Hot0")
        query = drift_query(db)
        cache = plan_cache(db)
        query.optimized()
        with db.bulk():
            for i in range(200):
                db.create_object("Note", f"Cold{i}")
        query.optimized()
        assert cache.reoptimizations == 1

    def test_small_oscillations_keep_the_cached_plan(self):
        db = SeedDatabase(drift_schema(), "drift-stable")
        for i in range(100):
            db.create_object("Note", f"Hot{i}")
        query = drift_query(db)
        cache = plan_cache(db)
        cached = query.optimized()
        # a handful of writes: under drift_min_delta, no re-optimization
        for i in range(5):
            db.create_object("Note", f"Wiggle{i}")
        assert query.optimized() is cached
        assert cache.reoptimizations == 0
        # large *relative* but small absolute changes also stay cached
        db.create_object("Doc", "OnlyDoc")
        assert query.optimized() is cached

    def test_drift_knobs(self, monkeypatch):
        db = SeedDatabase(drift_schema(), "drift-knobs")
        cache = plan_cache(db)
        monkeypatch.setattr(planner, "DRIFT_MIN_DELTA", 0)
        monkeypatch.setattr(planner, "DRIFT_RATIO", 1.0)
        db.create_object("Note", "Hot0")
        query = drift_query(db)
        query.optimized()
        db.create_object("Note", "Hot1")  # any change now counts
        query.optimized()
        assert cache.reoptimizations == 1

    def test_snapshot_covers_every_leaf(self):
        db = SeedDatabase(drift_schema(), "drift-snap")
        db.create_object("Note", "Hot0")
        query = drift_query(db)
        query.optimized()
        ((__, reads),) = plan_cache(db)._entries.values()
        note = db.schema.entity_class("Note")
        assert ("association_size", "Covers") in reads
        # what an index join into the association is costed from
        assert ("family_size", "Covers") in reads
        assert ("distinct_participants", "Covers", 0) in reads
        assert ("extent_size", note) in reads
        # prefix selectivity: pure name churn must be able to drift
        assert ("name_prefix_count", "Hot") in reads
        assert ("name_count",) in reads
        # every recorded key re-reads to the value it was recorded with
        for (accessor, *args), value in reads.items():
            assert getattr(db.indexes, accessor)(*args) == value

    def test_mass_reclassification_reoptimizes(self):
        # the extent of a specialization sizes the scan that drives the
        # joins: the re-classification the paper is about must drift
        # the plan from index probes to hash joins
        builder = SchemaBuilder("reclass")
        builder.entity_class("Thing")
        builder.entity_class("Hot", specializes="Thing")
        builder.entity_class("Doc")
        builder.association(
            "Covers", ("note", "Thing", "0..*"), ("doc", "Doc", "0..*")
        )
        builder.association(
            "Cites", ("doc", "Doc", "0..*"), ("source", "Doc", "0..*")
        )
        db = SeedDatabase(builder.build(), "drift-reclass")
        things = [db.create_object("Thing", f"T{i}") for i in range(300)]
        docs = [db.create_object("Doc", f"D{i}") for i in range(30)]
        for i, thing in enumerate(things):
            db.relate("Covers", note=thing, doc=docs[i % 30])
        for i, doc in enumerate(docs):
            db.relate("Cites", doc=doc, source=docs[(i + 1) % 30])
        db.reclassify(things[0], "Hot")
        query = (
            plan(db)
            .extent("Hot", column="note")
            .join(plan(db).relationship("Covers"))
            .join(plan(db).relationship("Cites"))
        )
        cache = plan_cache(db)
        stale = query.optimized()
        assert query.optimized() is stale
        assert query.explain().startswith("IndexJoin Cites.doc  est~1\n")
        for thing in things[1:250]:
            db.reclassify(thing, "Hot")
        query.optimized()
        assert cache.reoptimizations == 1
        assert "ExtentScan Hot as note  est~250" in query.explain()
        assert "IndexJoin" not in query.explain()
        raw = query.execute(optimized=False)
        assert len(raw) == 250
        assert row_multiset(query.execute()) == row_multiset(raw)

    def test_role_participation_drift_reoptimizes(self):
        # `participates_in(assoc, role=...)` on a role column is costed
        # from the per-position distinct participants and the role
        # class's extent — neither an association nor a family size
        db = SeedDatabase(drift_schema(), "drift-role")
        docs = [db.create_object("Doc", f"D{i}") for i in range(120)]
        notes = [db.create_object("Note", f"N{i}") for i in range(120)]
        edges = [db.relate("Covers", note=notes[i], doc=docs[0]) for i in range(120)]
        query = (
            plan(db)
            .relationship("Covers")
            .select(on("doc", participates_in("Covers", role="doc")))
            .join(plan(db).extent("Note", column="note"))
        )
        cache = plan_cache(db)
        assert query.optimized() is query.optimized()
        for i, edge in enumerate(edges):  # the same edges, fanned over every doc
            db.delete(edge)
            db.relate("Covers", note=notes[i], doc=docs[i])
        assert db.indexes.association_size("Covers") == 120
        query.optimized()
        assert cache.reoptimizations == 1

    def test_value_distribution_drift_reoptimizes(self):
        # mass re-valuation changes no extent, association, or name
        # count — only the value histogram the selection was costed
        # from; the snapshot must notice
        db = SeedDatabase(value_schema(), "drift-values")
        labels = [db.create_object("Label", f"L{i}") for i in range(60)]
        db.set_value(labels[0], "hot")
        query = (
            plan(db)
            .extent("Label", column="l")
            .select(on("l", value_is("hot")))
            .join(plan(db).extent("Label", column="l"))
        )
        cache = plan_cache(db)
        cached = query.optimized()
        assert query.optimized() is cached
        for label in labels[1:]:
            db.set_value(label, "hot")  # 1 -> 60 objects holding "hot"
        query.optimized()
        assert cache.reoptimizations == 1

    def test_fan_out_drift_reoptimizes(self):
        # the same number of edges re-pointed at one doc changes no
        # association or family size and no name count — only the
        # fan-out the index join was costed from; serving the cached
        # probe plan would now fetch every edge through one anchor
        db = SeedDatabase(drift_schema(), "drift-fanout")
        docs = [db.create_object("Doc", f"D{i}") for i in range(40)]
        notes = [db.create_object("Note", f"N{i}") for i in range(200)]
        edges = [
            db.relate("Covers", note=note, doc=docs[i % 40])
            for i, note in enumerate(notes)
        ]
        query = plan(db).relationship("Covers").select(on("doc", name_prefix("D7")))
        cache = plan_cache(db)
        assert "IndexJoin Covers.doc" in query.explain()
        assert query.optimized() is query.optimized()
        for edge in edges:
            db.delete(edge)
        for note in notes:
            db.relate("Covers", note=note, doc=docs[7])
        assert db.indexes.association_size("Covers") == 200
        assert "IndexJoin" not in query.explain()
        assert cache.reoptimizations == 1
        assert len(query.execute()) == 200

    def test_prefix_only_drift_reoptimizes(self):
        # mass renames change no extent or association size — only the
        # matching-name count; the snapshot must still notice
        db = SeedDatabase(drift_schema(), "drift-rename")
        notes = [db.create_object("Note", f"Cold{i}") for i in range(80)]
        for i in range(3):
            db.create_object("Note", f"Hot{900 + i}")
        query = drift_query(db)
        cache = plan_cache(db)
        query.optimized()
        for i, note in enumerate(notes[:50]):
            db.rename(note, f"Hot{i}")
        query.optimized()
        assert cache.reoptimizations == 1

    def test_migration_still_clears_wholesale(self):
        db = SeedDatabase(drift_schema(), "drift-migrate")
        db.create_object("Note", "Hot0")
        query = drift_query(db)
        cache = plan_cache(db)
        query.optimized()
        assert len(cache) == 1
        db.migrate_schema(drift_schema())
        assert len(cache) == 0


# ----------------------------------------------------------------------
# the prefix successor fix feeding the statistics
# ----------------------------------------------------------------------


class TestPrefixUpperBound:
    def test_successor_strips_trailing_max_code_points(self):
        top = chr(0x10FFFF)
        assert prefix_upper_bound("Obj") == "Obk"
        assert prefix_upper_bound("A" + top) == "B"
        assert prefix_upper_bound("A" + top + top) == "B"
        assert prefix_upper_bound(top) is None
        assert prefix_upper_bound(top * 3) is None
        assert prefix_upper_bound("") is None

    def test_count_matches_scan_for_max_code_point_prefixes(self):
        db = SeedDatabase(figure3_schema(), "maxchar")
        top = chr(0x10FFFF)
        for name in ("Alpha", "Beta", "Gamma"):
            db.create_object("Data", name)
        # the names list mirrors _name_index; exercise the bound math
        # directly against arbitrary (non-identifier) indexed strings
        for synthetic in ("A" + top, "A" + top + "x", top, top * 2, "Al" + top):
            db.indexes.add_name(synthetic)
        names = db.indexes.names
        for prefix in (
            "A",
            "A" + top,
            "A" + top + top,
            top,
            top * 2,
            top * 3,
            "Al" + top,
            "",
        ):
            expected = [n for n in names if n.startswith(prefix)]
            assert db.indexes.names_with_prefix(prefix) == expected
            assert db.indexes.name_prefix_count(prefix) == len(expected)
