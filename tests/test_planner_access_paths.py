"""Access paths, not just answers: what a plan reads.

The equivalence suites prove the planner returns the eager algebra's
rows; these tests prove *how* — that a selective join reaches its
associations through the name index and the incidence index
(``IndexJoin``) and never runs the scan kernel over an association
family, that the index path loses where it should, and that probing
keeps the scan's row semantics (specializations, self-loops,
deleted and pattern-context relationships).

The three benchmark shapes are built exactly as
``bench/workloads/query_mix.py::_plans`` builds them.
"""

from __future__ import annotations

import random

import pytest

from _planner_gen import in_class, row_multiset
from repro.core import SchemaBuilder, SeedDatabase
from repro.core.query import parallel, planner
from repro.core.query.algebra import extent, relationship_relation
from repro.core.query.parallel import ParallelConfig
from repro.core.query.planner import (
    IndexJoin,
    Join,
    Parallel,
    RelScan,
    Select,
    execute_node,
    on,
    plan,
)
from repro.core.query.predicates import both, name_prefix
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import SpecShape, generate_spec

MODULES = 8


@pytest.fixture(scope="module")
def db() -> SeedDatabase:
    """A SPADES population shaped like ``query_mix``'s, a hundredth of it."""
    shape = SpecShape(
        actions=1200, data=150, flows=500, notes_per_item=0.0, keywords_per_data=0.0
    )
    spec = generate_spec(shape, 14)
    tool = SpadesTool("paths")
    load_into_spades(spec, tool)
    rng = random.Random(14)
    modules = [f"Module{index}" for index in range(MODULES)]
    for module in modules:
        tool.declare_module(module, "Ada")
    for action in rng.sample(spec.action_names, 240):
        tool.allocate(action, rng.choice(modules))
    return tool.db


class _Eager:
    """The eager ``Relation`` algebra behind the planner's builder calls."""

    def __init__(self, db: SeedDatabase) -> None:
        self._db = db

    def extent(self, class_name: str, *, column: str):
        return extent(self._db, class_name, column=column)

    def relationship(self, association: str):
        return relationship_relation(self._db, association)


SHAPES = {
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
}
#: a prefix per shape with a non-empty answer in the fixture population
ARGUMENTS = {"join_data": "Alarm", "join_action": "Collect27", "join_module": "Module3"}


@pytest.fixture
def family_rows(monkeypatch) -> list[int]:
    """Rows the scan kernel reads from association families, per call."""
    read: list[int] = []
    kernel = parallel.run_kernel

    def counted(db, spec, ids):
        if spec.kind == "rel":
            read.append(len(ids))
        return kernel(db, spec, ids)

    monkeypatch.setattr(parallel, "run_kernel", counted)
    return read


def _nodes(node):
    yield node
    for child in node.children:
        yield from _nodes(child)


def _index_joins(query) -> list[IndexJoin]:
    return [node for node in _nodes(query.optimized()) if isinstance(node, IndexJoin)]


class TestBenchmarkShapes:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_reads_no_association_family_rows(self, db, family_rows, shape):
        planned = SHAPES[shape](plan(db), ARGUMENTS[shape]).execute()
        assert family_rows == [], planned
        eager = SHAPES[shape](_Eager(db), ARGUMENTS[shape])
        assert len(eager.rows) > 0
        assert planned.columns == eager.columns
        assert row_multiset(planned) == row_multiset(eager)

    def test_eager_reference_does_scan(self, db, family_rows):
        # the counter counts: the same shape left unoptimized scans
        query = SHAPES["join_data"](plan(db), ARGUMENTS["join_data"])
        query.execute(optimized=False)
        assert sum(family_rows) == db.indexes.family_size("Access")

    def test_join_data_plan(self, db):
        assert SHAPES["join_data"](plan(db), "Alarm").explain() == "\n".join(
            [
                "IndexJoin Access.data filter data: name^='Alarm'  est~3",
                "└─ ExtentScan Data as data prefix='Alarm'  est~7",
            ]
        )

    def test_join_action_plan(self, db):
        assert SHAPES["join_action"](plan(db), "Collect27").explain() == "\n".join(
            [
                "Reorder [from, by, to]  est~1",
                "└─ IndexJoin Write.by filter by: name^='Collect27'  est~1",
                "   └─ IndexJoin Read.by filter by: name^='Collect27'  est~1",
                "      └─ ExtentScan Action as by prefix='Collect27'  est~1",
            ]
        )

    def test_join_module_plan(self, db):
        assert SHAPES["join_module"](plan(db), "Module3").explain() == "\n".join(
            [
                "Reorder [contained, container, module]  est~30",
                "└─ IndexJoin Contained.contained  est~30",
                "   └─ Rename action->contained  est~30",
                "      └─ Reorder [action, module]  est~30",
                "         └─ IndexJoin AllocatedTo.module  est~30",
                "            └─ ExtentScan Module as module prefix='Module3'  est~1",
            ]
        )

    def test_cached_plan_executes_without_estimating(self, db, monkeypatch):
        # the join method is in the tree: running it consults no statistics
        optimized = SHAPES["join_action"](plan(db), "Collect27").optimized()
        hashed = (
            plan(db).extent("Action", column="by").join(plan(db).relationship("Read"))
        ).optimized()
        assert any(isinstance(node, Join) for node in _nodes(hashed))

        def forbidden(*args, **kwargs):
            raise AssertionError("estimate consulted at run time")

        monkeypatch.setattr(planner, "_estimate", forbidden)
        monkeypatch.setattr(planner, "_read_cost", forbidden)
        assert len(execute_node(db, optimized).rows) == 1
        assert len(execute_node(db, hashed).rows) == db.indexes.association_size("Read")


class TestIndexPathMustLose:
    @pytest.mark.parametrize("prefix", ["", "C"])
    def test_unselective_role_prefix_keeps_the_scan(self, db, family_rows, prefix):
        query = plan(db).relationship("Read").select(on("by", name_prefix(prefix)))
        assert not _index_joins(query)
        eager = relationship_relation(db, "Read").select(on("by", name_prefix(prefix)))
        assert row_multiset(query.execute()) == row_multiset(eager)
        assert sum(family_rows) == db.indexes.family_size("Access")

    @pytest.mark.parametrize("prefix", ["", "C"])
    def test_unselective_driving_side_keeps_the_hash_join(self, db, prefix):
        query = (
            plan(db)
            .extent("Action", column="by")
            .select(on("by", name_prefix(prefix)))
            .join(plan(db).relationship("Read"))
        )
        assert isinstance(query.optimized().child, Join) and not _index_joins(query)
        eager = (
            extent(db, "Action", column="by")
            .select(on("by", name_prefix(prefix)))
            .join(relationship_relation(db, "Read"))
        )
        assert row_multiset(query.execute()) == row_multiset(eager)

    def test_hash_join_builds_the_smaller_input(self, db):
        # Read (191 rows) is smaller than the Action extent: it goes left
        query = plan(db).extent("Action", column="by").join(plan(db).relationship("Read"))
        assert query.explain() == "\n".join(
            [
                "Reorder [by, from]  est~191",
                "└─ Join on [by]  est~191",
                "   ├─ RelScan Read (from, by)  est~191",
                "   └─ ExtentScan Action as by  est~1200",
            ]
        )
        assert query.execute().columns == ("by", "from")

    def test_family_guard_blocks_the_rewrite(self, db, monkeypatch):
        query = plan(db).relationship("Read").select(on("by", name_prefix("Collect27")))
        assert _index_joins(query)
        monkeypatch.setattr(planner, "_family_is_independent", lambda db, scan: False)
        guarded = planner.optimize(db, query.node)
        assert isinstance(guarded, Select) and isinstance(guarded.child, RelScan)


class TestRewriteSites:
    def test_both_join_orientations(self, db):
        prefix = on("by", name_prefix("Collect27"))
        actions = plan(db).extent("Action", column="by").select(prefix)
        reads = plan(db).relationship("Read")
        eager_actions = extent(db, "Action", column="by").select(prefix)
        eager_reads = relationship_relation(db, "Read")
        for query, eager in (
            (actions.join(reads), eager_actions.join(eager_reads)),
            (reads.join(actions), eager_reads.join(eager_actions)),
        ):
            (join,) = _index_joins(query)
            assert join.column == "by"
            result = query.execute()
            assert result.columns == eager.columns
            assert row_multiset(result) == row_multiset(eager)

    def test_conjunction_keeps_the_rest_as_filter(self, db):
        test = both(name_prefix("Alarm"), in_class("Data"))
        query = plan(db).relationship("Access").select(on("data", test))
        (join,) = _index_joins(query)
        assert join.drive.prefix == "Alarm"
        label = query.explain().splitlines()[0]
        assert "filter data: in_class(Data)" in label and "name^=" not in label
        eager = relationship_relation(db, "Access").select(on("data", test))
        assert len(eager.rows) > 0
        assert row_multiset(query.execute()) == row_multiset(eager)

    def test_index_join_side_is_never_pooled(self, db, monkeypatch):
        monkeypatch.setattr(parallel, "THRESHOLD", 0)
        monkeypatch.setattr(parallel, "DISPATCH_OVERHEAD", 0)
        monkeypatch.setattr(parallel, "host_can_pool", lambda: True)
        config = ParallelConfig(shards=2)
        query = SHAPES["join_action"](plan(db, config), "Collect27")
        optimized = query.optimized()
        assert not any(isinstance(node, Parallel) for node in _nodes(optimized))
        assert len(query.execute().rows) == 1


def build_links_population() -> SeedDatabase:
    """Links between items with everything a probe must skip or keep
    apart: specializations, self-loops, tombstones, pattern
    relationships and relationships bound to pattern objects."""
    schema = (
        SchemaBuilder("links")
        .entity_class("Item")
        .entity_class("Rare", specializes="Item")
        .dependent("Item", "Tag", "0..*", sort="STRING")
        .association("Links", ("src", "Item", "0..*"), ("dst", "Item", "0..*"))
        .association(
            "Strong", ("src", "Item", "0..*"), ("dst", "Item", "0..*"),
            specializes="Links",
        )
        .build()
    )
    db = SeedDatabase(schema, name="links")
    rng = random.Random(86)
    with db.bulk():
        items = [
            db.create_object("Rare" if index % 7 == 0 else "Item", f"I{index}")
            for index in range(400)
        ]
        for item in items[::3]:
            item.add_sub_object("Tag", "t")  # sub-objects named I<n>.Tag[0]
        links = [
            db.relate(
                rng.choice(("Links", "Strong")),
                {"src": rng.choice(items), "dst": rng.choice(items)},
            )
            for __ in range(1500)
        ]
        for item in rng.sample(items, 60):  # self-loops, some of them twice
            links.append(db.relate("Links", {"src": item, "dst": item}))
        for item in items[:5]:
            links.append(db.relate("Strong", {"src": item, "dst": item}))
            links.append(db.relate("Strong", {"src": item, "dst": item}))
    for item in rng.sample(items, 25):
        db.mark_pattern(item)  # every link it is bound in turns pattern-context
    for link in rng.sample(links, 20):
        if not link.deleted and not link.in_pattern_context:
            db.mark_pattern(link)
    for link in rng.sample(links, 150):
        if not link.deleted:
            db.delete(link)
    for item in rng.sample(items, 30):
        if not item.deleted and not item.is_pattern:
            db.delete(item)  # cascades to its links
    return db


def _bare(relation, role):
    return relation


def _other_role_in_rare(relation, role):
    """A filter on the role the probe does not drive: the index path
    must keep it as a filter over the fetched rows."""
    other = "dst" if role == "src" else "src"
    return relation.select(on(other, in_class("Rare")))


#: what rides along a probe: nothing, or an opaque test on the other role
RESIDUALS = [
    pytest.param(_bare, id="bare"),
    pytest.param(_other_role_in_rare, id="other-role-filtered"),
]


class TestProbeSemantics:
    """An index join keeps exactly the rows the scan kernel would."""

    @pytest.fixture(scope="class")
    def links(self) -> SeedDatabase:
        return build_links_population()

    def test_population_has_every_row_kind(self, links):
        raw = list(links.all_relationships_raw())
        assert any(rel.deleted for rel in raw)
        assert any(rel.is_pattern and not rel.deleted for rel in raw)
        assert any(
            not rel.is_pattern and rel.in_pattern_context and not rel.deleted
            for rel in raw
        )
        live = relationship_relation(links, "Links").rows
        assert any(row[0] is row[1] for row in live)
        assert len(list(links.iter_relationships("Links", include_specials=False))) < len(live)

    @pytest.mark.parametrize("association", ["Links", "Strong"])
    @pytest.mark.parametrize("residual", RESIDUALS)
    @pytest.mark.parametrize("role", ["src", "dst"])
    @pytest.mark.parametrize("prefix", ["I1", "I27", "I3"])
    def test_name_index_path_equals_scan(
        self, links, family_rows, association, residual, role, prefix
    ):
        query = residual(
            plan(links)
            .relationship(association)
            .select(on(role, name_prefix(prefix))),
            role,
        )
        (join,) = _index_joins(query)
        assert join.column == role
        assert ("in_class(Rare)" in query.explain()) == (residual is _other_role_in_rare)
        eager = residual(
            relationship_relation(links, association).select(
                on(role, name_prefix(prefix))
            ),
            role,
        )
        assert row_multiset(query.execute()) == row_multiset(eager)
        assert row_multiset(query.execute(optimized=False)) == row_multiset(eager)
        # the unoptimized run only
        assert sum(family_rows) == links.indexes.family_size("Links")

    @pytest.mark.parametrize("residual", RESIDUALS)
    @pytest.mark.parametrize("role", ["src", "dst"])
    def test_chain_probe_equals_hash_join(self, links, residual, role):
        items = plan(links).extent("Rare", column=role).select(on(role, name_prefix("I2")))
        scan = residual(plan(links).relationship("Links"), role)
        eager = (
            extent(links, "Rare", column=role)
            .select(on(role, name_prefix("I2")))
            .join(residual(relationship_relation(links, "Links"), role))
        )
        for query in (items.join(scan), scan.join(items)):
            assert _index_joins(query)
            assert row_multiset(query.execute().project("src", "dst")) == row_multiset(
                eager.project("src", "dst")
            )
            assert len(query.execute()) == len(eager)

    def test_self_loop_is_one_row_per_relationship(self, links):
        loops = [
            row for row in relationship_relation(links, "Strong").rows if row[0] is row[1]
        ]
        looped = {row[0].simple_name for row in loops}
        assert len(loops) > len(looped)  # some item holds two parallel self-loops
        for name in sorted(looped):
            query = plan(links).relationship("Strong").select(on("src", name_prefix(name)))
            assert _index_joins(query)
            eager = relationship_relation(links, "Strong").select(
                on("src", name_prefix(name))
            )
            assert row_multiset(query.execute()) == row_multiset(eager)


class TestScanSize:
    """One function says what the kernel reads; the planner costs with it."""

    def test_sub_association_scan_reads_the_family(self, db):
        family = len(db.indexes.family_relationship_ids("Access"))
        assert db.indexes.association_size("Read") < family
        for name in ("Access", "Read", "Write"):
            assert parallel.scan_size(db, "rel", name) == family
            spec = planner._shard_spec(db, RelScan(name))
            assert sum(len(ids) for ids in parallel._scan_ids(db, spec, 3)) == family

    def test_pattern_relationships_are_read_too(self):
        links = build_links_population()
        ids = links.indexes.family_relationship_ids("Links")
        assert links.indexes.family_size("Links") == len(ids)
        assert len(ids) > links.indexes.association_size("Links")

    def test_extent_scan_reads_the_rolled_up_extent(self, db):
        thing = db.schema.entity_class("Thing")
        assert parallel.scan_size(db, "extent", "Thing") == len(
            db.indexes.extent_oids(thing)
        )

    def test_pool_decision_uses_the_family_size(self, db, monkeypatch):
        # a Read scan is pooled for the rows it reads (the Access
        # family), not for the Read relationships it returns
        family = db.indexes.family_size("Access")
        monkeypatch.setattr(parallel, "THRESHOLD", family)
        monkeypatch.setattr(parallel, "DISPATCH_OVERHEAD", 0)
        monkeypatch.setattr(parallel, "host_can_pool", lambda: True)
        query = plan(db, ParallelConfig(shards=2)).relationship("Read")
        assert isinstance(query.optimized(), Parallel)
        assert f"per-shard~{family // 2}+0" in query.explain()
