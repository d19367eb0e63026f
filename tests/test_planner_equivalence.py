"""Randomized equivalence: the planner vs. the eager ER algebra.

The eager :class:`~repro.core.query.algebra.Relation` algebra is the
reference semantics; the cost-based planner must return row-multiset
identical results for *any* query. This suite generates seeded random
SPADES populations (vague ``Access`` flows, undefined values,
tombstoned relationships) and random queries built through both paths
in lockstep — 240 (population, query) cases — and asserts zero
divergence, plus directed cases for the semantics the paper calls out
(vague flows join transparently, undefined values match nothing).

Every scan leaf runs through the fused kernel a chunk of ids at a
time, so one population is built larger than a chunk — with deleted,
pattern-context and dependent objects in it — and checked for row
*order* as well, against the eager algebra and the ``brute_*`` scans.
"""

from __future__ import annotations

import random

import pytest

from _planner_gen import (
    FunctionPredicate,
    build_population,
    in_class,
    random_query,
    row_multiset,
)
from repro.core import SchemaBuilder, SeedDatabase
from repro.core.indexes import brute_objects, brute_relationships
from repro.core.query import parallel
from repro.core.query.algebra import extent, relationship_relation, relationship_row
from repro.core.query.planner import (
    ExtentScan,
    IndexJoin,
    Reorder,
    on,
    plan,
)
from repro.core.query.predicates import (
    name_prefix,
    participates_in,
    value_is,
)

POPULATION_COUNT = 30
QUERIES_PER_POPULATION = 8

_populations: dict[int, object] = {}


def population(seed: int):
    if seed not in _populations:
        _populations[seed] = build_population(seed)
    return _populations[seed]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize(
        "population_seed,query_seed",
        [
            (population_seed, query_seed)
            for population_seed in range(POPULATION_COUNT)
            for query_seed in range(QUERIES_PER_POPULATION)
        ],
    )
    def test_planner_matches_eager(self, population_seed, query_seed):
        db = population(population_seed)
        rng = random.Random(population_seed * 1009 + query_seed)
        query = random_query(rng, db)
        planned = query.plan.execute()
        assert planned.columns == query.relation.columns
        assert row_multiset(planned) == row_multiset(query.relation), (
            f"planner diverged from eager algebra for population "
            f"{population_seed}, query {query_seed}:\n"
            f"{query.plan.explain()}"
        )

    @pytest.mark.parametrize("population_seed", range(0, POPULATION_COUNT, 5))
    def test_unoptimized_execution_also_matches(self, population_seed):
        # the streaming executor alone (no rewrites) must already agree
        db = population(population_seed)
        rng = random.Random(population_seed + 4242)
        for __ in range(4):
            query = random_query(rng, db)
            raw = query.plan.execute(optimized=False)
            assert row_multiset(raw) == row_multiset(query.relation)


    def test_grid_reaches_index_joins(self):
        """Coverage guard: the grid's plans include index joins driven
        from the name index and from a join chain, with the association
        written on either side of the join (a ``Reorder`` restores the
        layout when it led)."""
        from_names = from_chain = restored = 0
        for population_seed in range(POPULATION_COUNT):
            for query_seed in range(QUERIES_PER_POPULATION):
                rng = random.Random(population_seed * 1009 + query_seed)
                query = random_query(rng, population(population_seed))
                nodes = list(_walk(query.plan.optimized()))
                joins = [node for node in nodes if isinstance(node, IndexJoin)]
                from_names += any(
                    isinstance(join.drive, ExtentScan)
                    and join.drive.prefix is not None
                    for join in joins
                )
                from_chain += any(
                    not isinstance(join.drive, ExtentScan) for join in joins
                )
                restored += any(
                    isinstance(node, Reorder) and isinstance(node.child, IndexJoin)
                    for node in nodes
                )
        assert from_names >= 10 and from_chain >= 3 and restored >= 5


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


class TestDirectedEquivalence:
    """Hand-picked cases for the paper's incomplete-data semantics."""

    def test_vague_flows_join_transparently(self):
        db = population(0)
        eager = extent(db, "Data", column="data").join(
            relationship_relation(db, "Access")
        )
        planned = (
            plan(db)
            .extent("Data", column="data")
            .join(plan(db).relationship("Access"))
        )
        assert row_multiset(planned.execute()) == row_multiset(eager)

    def test_undefined_values_match_nothing(self):
        # populations create Selector sub-objects with no value; both
        # paths must drop those rows, even for an expected None
        db = population(1)
        selectors = extent(db, "Data.Text.Selector", column="s")
        assert None in [obj.value for obj in selectors.column("s")]
        for expected in ("Representation", None):
            predicate = on("s", value_is(expected))
            eager = selectors.select(predicate)
            planned = plan(db).extent("Data.Text.Selector", column="s").select(predicate)
            assert row_multiset(planned.execute()) == row_multiset(eager)
            assert all(obj.value == expected for obj in eager.column("s"))
        assert len(eager) == 0

    def test_specialization_extent_equals_predicate_scan(self):
        db = population(3)
        eager = extent(db, "Thing", column="d").select(on("d", in_class("Data")))
        planned = plan(db).extent("Data", column="d")
        assert planned.explain() == f"ExtentScan Data as d  est~{len(eager)}"
        assert len(eager) > 0
        assert row_multiset(planned.execute()) == row_multiset(eager)

    def test_indexed_prefix_scan_equals_predicate_scan(self):
        db = population(2)
        predicate = on("thing", name_prefix("Al"))
        eager = extent(db, "Thing", column="thing").select(predicate)
        planned = plan(db).extent("Thing", column="thing").select(predicate)
        assert "prefix='Al'" in planned.explain()
        assert row_multiset(planned.execute()) == row_multiset(eager)

    def test_selection_pushed_below_multiway_join(self):
        db = population(4)
        reads = relationship_relation(db, "Read").rename(**{"from": "data"})
        writes = relationship_relation(db, "Write").rename(to="data")
        predicate = on("data", name_prefix("Al"))
        eager = (
            extent(db, "Data", column="data")
            .join(reads.rename(by="reader"))
            .join(writes.rename(by="writer"))
            .select(predicate)
        )
        planned = (
            plan(db)
            .extent("Data", column="data")
            .join(plan(db).relationship("Read").rename(**{"from": "data"}).rename(by="reader"))
            .join(plan(db).relationship("Write").rename(to="data").rename(by="writer"))
            .select(predicate)
        )
        assert planned.execute().columns == eager.columns
        assert row_multiset(planned.execute()) == row_multiset(eager)


def build_chunked_population() -> SeedDatabase:
    """Scans of more than one kernel chunk each, with every row kind the
    kernel must skip: tombstones, patterns, sub-objects of patterns, and
    relationships bound to either."""
    schema = (
        SchemaBuilder("chunked")
        .entity_class("Item")
        .entity_class("Rare", specializes="Item")
        .dependent("Item", "Tag", "0..*", sort="STRING")
        .association("Links", ("src", "Item", "0..*"), ("dst", "Item", "0..*"))
        .build()
    )
    db = SeedDatabase(schema, name="chunked")
    rng = random.Random(1986)
    items = []
    with db.bulk():
        for index in range(2 * parallel.CHUNK + 317):
            item = db.create_object(
                "Rare" if index % 11 == 0 else "Item", f"I{index}"
            )
            if index % 3:  # every seventh of these tags is left undefined
                item.add_sub_object("Tag", f"t{index % 5}" if index % 7 else None)
            items.append(item)
        links = [
            db.relate("Links", {"src": rng.choice(items), "dst": rng.choice(items)})
            for __ in range(2 * parallel.CHUNK + 90)
        ]
    for item in rng.sample(items, 40):
        db.mark_pattern(item)  # its Tag and its Links turn pattern-context
    for link in rng.sample(links, 60):
        if not link.deleted:
            db.delete(link)
    for item in rng.sample(items, 120):
        if not item.deleted and not item.is_pattern:
            db.delete(item)  # cascades to its Tag and its Links
    return db


def _third(obj) -> bool:
    return obj.oid % 3 == 0


def _has_a_value(obj) -> bool:
    return obj.value is not None


class TestChunkedScans:
    """The in-thread kernel over scans longer than one chunk."""

    @pytest.fixture(scope="class")
    def db(self):
        return build_chunked_population()

    def test_population_has_every_skipped_row_kind(self, db):
        raw = list(db.all_objects_raw())
        assert any(obj.deleted for obj in raw)
        assert any(obj.is_pattern for obj in raw)
        assert any(
            obj.parent is not None and obj.in_pattern_context and not obj.deleted
            for obj in raw
        )
        assert any(
            rel.in_pattern_context and not rel.deleted
            for rel in db.all_relationships_raw()
        )
        assert len(brute_objects(db, "Item")) > 2 * parallel.CHUNK
        assert len(brute_objects(db, "Item.Tag")) > parallel.CHUNK
        assert len(brute_relationships(db, "Links")) > parallel.CHUNK

    @pytest.mark.parametrize("seed", range(24))
    def test_extent_rows_and_order_match_eager_and_brute(self, db, seed):
        rng = random.Random(seed)
        class_name = rng.choice(("Item", "Rare", "Item.Tag"))
        tests = rng.sample(
            [
                FunctionPredicate(_has_a_value, "defined"),
                value_is(f"t{rng.randrange(5)}"),
                in_class("Rare"),
                participates_in("Links", "src"),
                FunctionPredicate(_third, "third"),
            ],
            rng.randrange(3),
        )
        eager = extent(db, class_name, column="x")
        planned = plan(db).extent(class_name, column="x")
        brute = brute_objects(db, class_name)
        for test in tests:
            eager = eager.select(on("x", test))
            planned = planned.select(on("x", test))
            brute = [obj for obj in brute if test(obj)]
        if rng.random() < 0.5:  # an opaque row predicate on top
            odd = lambda row: row["x"].oid % 2 == 1  # noqa: E731
            eager, planned = eager.select(odd), planned.select(odd)
            brute = [obj for obj in brute if obj.oid % 2 == 1]
        rows = list(planned.rows())
        assert rows == list(eager.rows)  # order, not just multiset
        assert rows == [(obj,) for obj in brute]
        assert rows == list(planned.rows(optimized=False))

    @pytest.mark.parametrize("seed", range(8))
    def test_relationship_rows_and_order_match_eager_and_brute(self, db, seed):
        rng = random.Random(seed)
        role = rng.choice(("src", "dst"))
        test = rng.choice((in_class("Rare"), FunctionPredicate(_third, "third")))
        filtered = seed % 2 == 0
        eager = relationship_relation(db, "Links")
        planned = plan(db).relationship("Links")
        brute = [relationship_row(rel, ()) for rel in brute_relationships(db, "Links")]
        if filtered:
            eager = eager.select(on(role, test))
            planned = planned.select(on(role, test))
            position = eager.columns.index(role)
            brute = [row for row in brute if test(row[position])]
        rows = list(planned.rows())
        assert rows == list(eager.rows)
        assert rows == brute

    def test_first_row_evaluates_at_most_one_chunk(self, db):
        seen = []

        def counted(obj) -> bool:
            seen.append(obj.oid)
            return True

        query = plan(db).extent("Item", column="x").select(
            on("x", FunctionPredicate(counted, "counted"))
        )
        rows = query.rows()
        assert not seen  # a generator: nothing runs before the first next()
        first = next(rows)
        assert first == (brute_objects(db, "Item")[0],)
        assert 0 < len(seen) <= parallel.CHUNK
        rows.close()
