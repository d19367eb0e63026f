"""Tests for the query layer: retrieval, predicates, ER algebra."""

import pytest

from repro.core import QueryError, SeedDatabase
from repro.core.query import Relation, Retrieval, extent, relationship_relation
from repro.core.query.planner import on
from repro.core.query.predicates import (
    both,
    name_prefix,
    participates_in,
    value_is,
)


@pytest.fixture
def query_db(fig3_db):
    db = fig3_db
    alarms = db.create_object("OutputData", "Alarms")
    status = db.create_object("InputData", "Status")
    config = db.create_object("Data", "Config")
    handler = db.create_object("Action", "Handler")
    handler.add_sub_object("Description", "handles things")
    monitor = db.create_object("Action", "Monitor")
    monitor.add_sub_object("Description", "monitors things")
    db.relate("Write", {"to": alarms, "by": handler}, attributes={"NumberOfWrites": 2})
    db.relate("Read", {"from": status, "by": handler})
    db.relate("Read", {"from": status, "by": monitor})
    text = alarms.add_sub_object("Text")
    text.add_sub_object("Body").add_sub_object("Contents", "alarm matrix")
    text.add_sub_object("Selector", "Representation")
    return db


class TestRetrieval:
    def test_by_name(self, query_db):
        retrieval = Retrieval(query_db)
        assert retrieval.by_name("Alarms").class_name == "OutputData"
        assert retrieval.by_name("Nope") is None

    def test_by_name_prefix(self, query_db):
        retrieval = Retrieval(query_db)
        names = sorted(o.simple_name for o in retrieval.by_name_prefix("Al"))
        assert names == ["Alarms"]

    def test_instances_with_predicate(self, query_db):
        retrieval = Retrieval(query_db)
        data = retrieval.instances("Data")
        assert {o.simple_name for o in data} == {"Alarms", "Status", "Config"}

    def test_iter_instances_is_lazy(self, query_db):
        # a consumer that stops early tests only what it has read
        seen = []

        def spy(obj):
            seen.append(obj.simple_name)
            return True

        instances = Retrieval(query_db).iter_instances("Data", spy)
        assert seen == []
        first = next(instances)
        assert seen == [first.simple_name]

    def test_navigation_chain(self, query_db):
        retrieval = Retrieval(query_db)
        handler = query_db.get_object("Handler")
        # data handler reads -> actions reading that data
        results = retrieval.navigate(handler, ("Read", "from"), ("Read", "by"))
        assert {o.simple_name for o in results} == {"Handler", "Monitor"}

    def test_closure(self, query_db):
        db = query_db
        top = db.get_object("Handler")
        mid = db.create_object("Action", "Mid")
        mid.add_sub_object("Description", "x")
        leaf = db.create_object("Action", "Leaf")
        leaf.add_sub_object("Description", "x")
        db.relate("Contained", contained=mid, container=top)
        db.relate("Contained", contained=leaf, container=mid)
        retrieval = Retrieval(db)
        containers = retrieval.closure(leaf, "Contained", "container")
        assert [c.simple_name for c in containers] == ["Mid", "Handler"]


class TestPredicates:
    def test_combinators(self, query_db):
        data = extent(query_db, "Data", column="d")
        written = both(name_prefix("A"), participates_in("Write", "to"))
        assert [o.simple_name for o in data.select(on("d", written)).column("d")] == [
            "Alarms"
        ]
        # a conjunction fails as soon as one part does
        unread = both(name_prefix("A"), participates_in("Read"))
        assert len(data.select(on("d", unread))) == 0
        assert written.describe() == "(name^='A' and participates_in(Write, to))"

    def test_value_predicates(self, query_db):
        descriptions = extent(query_db, "Action.Description", column="text")
        hits = descriptions.select(on("text", value_is("handles things")))
        assert [str(o.name) for o in hits.column("text")] == ["Handler.Description"]
        # an undefined value matches nothing, not even an expected None
        text = query_db.get_object("Alarms").sub_objects("Text")[0]
        assert text.value is None
        assert not value_is(None)(text)

    def test_participates_in(self, query_db):
        retrieval = Retrieval(query_db)
        writers = retrieval.instances("Action", participates_in("Write", "by"))
        assert [o.simple_name for o in writers] == ["Handler"]
        accessors = retrieval.instances("Action", participates_in("Access"))
        assert {o.simple_name for o in accessors} == {"Handler", "Monitor"}


class TestAlgebra:
    def test_extent(self, query_db):
        relation = extent(query_db, "Data")
        assert relation.columns == ("data",)
        assert len(relation) == 3

    def test_relationship_relation_includes_specials(self, query_db):
        access = relationship_relation(query_db, "Access")
        assert access.columns == ("data", "by")
        assert len(access) == 3  # 1 write + 2 reads
        reads = relationship_relation(query_db, "Read")
        assert len(reads) == 2

    def test_attribute_columns(self, query_db):
        writes = relationship_relation(
            query_db, "Write", with_attributes=["NumberOfWrites"]
        )
        assert writes.columns == ("to", "by", "NumberOfWrites")
        assert writes.column("NumberOfWrites") == [2]

    def test_select_project(self, query_db):
        access = relationship_relation(query_db, "Access")
        by_handler = access.select(
            lambda row: row["by"].simple_name == "Handler"
        )
        assert len(by_handler) == 2
        projected = by_handler.project("data")
        assert {o.simple_name for o in projected.distinct_objects("data")} == {
            "Alarms",
            "Status",
        }

    def test_join_on_shared_column(self, query_db):
        reads = relationship_relation(query_db, "Read").rename(**{"from": "data"})
        writes = relationship_relation(query_db, "Write").rename(to="data")
        # join: data that is both read and written (none here)
        joined = reads.join(writes)
        assert len(joined) == 0
        # readers joined with readers over the shared data column
        self_join = reads.join(reads.rename(by="reader2"))
        pairs = {
            (row["by"].simple_name, row["reader2"].simple_name)
            for row in self_join
        }
        assert ("Handler", "Monitor") in pairs

    def test_join_respects_object_identity(self, query_db):
        # the paper: joins are defined on existing relationships only —
        # the Config object (no relationships) appears in no join row
        data = extent(query_db, "Data", column="data")
        access = relationship_relation(query_db, "Access")
        joined = data.join(access)
        assert all(row["data"].simple_name != "Config" for row in joined)

    def test_union_difference(self, query_db):
        reads = relationship_relation(query_db, "Read").project("by")
        writes = relationship_relation(query_db, "Write").project("by")
        union = reads.union(writes)
        assert {o.simple_name for o in union.distinct_objects("by")} == {
            "Handler",
            "Monitor",
        }
        only_readers = reads.difference(writes)
        assert {o.simple_name for o in only_readers.distinct_objects("by")} == {
            "Monitor",
        }

    def test_column_errors(self, query_db):
        relation = extent(query_db, "Data")
        with pytest.raises(QueryError, match="no column"):
            relation.project("nope")
        with pytest.raises(QueryError, match="column mismatch"):
            relation.union(extent(query_db, "Action"))

    def test_relation_validation(self):
        with pytest.raises(QueryError, match="duplicate column"):
            Relation(("a", "a"), ())
        with pytest.raises(QueryError, match="row width"):
            Relation(("a",), ((1, 2),))

    def test_iteration(self, query_db):
        relation = extent(query_db, "Action", column="action")
        rows = list(relation)
        assert all(set(row) == {"action"} for row in rows)
        assert len(rows) == 2
