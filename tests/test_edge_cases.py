"""Edge-case tests: pattern-expanded graphs, registries, history corners."""

import pytest

from repro.core import ConsistencyError, SchemaError, SeedDatabase
from repro.core.errors import VersionError
from repro.core.schema.attached import (
    AttachedProcedure,
    ProcedureRegistry,
    attached_procedure,
)
from repro.spades import spades_schema


class TestAcyclicThroughPatterns:
    def test_inherited_containment_edge_counts_for_acyclic(self, spades_db):
        """A cycle closed only through a pattern substitution is caught."""
        db = spades_db
        top = db.create_object("Action", "Top")
        top.add_sub_object("Description", "x")
        bottom = db.create_object("Action", "Bottom")
        bottom.add_sub_object("Description", "x")
        db.relate("Contained", contained=bottom, container=top)
        # pattern: "anything inheriting me is contained in Bottom"
        pattern = db.create_object("Action", "P", pattern=True)
        db.relate("Contained", contained=pattern, container=bottom, pattern=True)
        # inheriting by Top would close the cycle Top -> Bottom -> Top
        with pytest.raises(ConsistencyError) as excinfo:
            db.inherit(pattern, top)
        assert any(v.kind == "acyclic" for v in excinfo.value.violations)
        assert pattern.oid not in top.inherited_patterns

    def test_uninherited_pattern_edges_ignored(self, spades_db):
        db = spades_db
        action = db.create_object("Action", "A")
        action.add_sub_object("Description", "x")
        pattern = db.create_object("Action", "P", pattern=True)
        # a pattern self-containment would be a cycle if checked raw
        db.relate("Contained", contained=pattern, container=pattern, pattern=True)
        assert db.check_consistency() == []  # patterns unchecked until inherited

    def test_effective_edges_expansion(self, spades_db):
        db = spades_db
        container = db.create_object("Action", "Container")
        container.add_sub_object("Description", "x")
        pattern = db.create_object("Action", "P", pattern=True)
        db.relate("Contained", contained=pattern, container=container, pattern=True)
        members = []
        for i in range(3):
            member = db.create_object("Action", f"M{i}")
            member.add_sub_object("Description", "x")
            db.inherit(pattern, member)
            members.append(member)
        edges = list(
            db.patterns.effective_edges(db.schema.association("Contained"))
        )
        assert sorted(edges) == sorted(
            (member.oid, container.oid) for member in members
        )


class TestProcedureRegistry:
    def test_register_and_get(self):
        registry = ProcedureRegistry()
        proc = AttachedProcedure("p1", lambda ctx: None)
        registry.register(proc)
        assert registry.get("p1") is proc
        assert registry.known("p1")
        assert registry.names() == ["p1"]

    def test_double_register_rejected(self):
        registry = ProcedureRegistry()
        registry.register(AttachedProcedure("p1", lambda ctx: None))
        with pytest.raises(SchemaError, match="already registered"):
            registry.register(AttachedProcedure("p1", lambda ctx: None))

    def test_replace_allowed(self):
        registry = ProcedureRegistry()
        registry.register(AttachedProcedure("p1", lambda ctx: None))
        newer = AttachedProcedure("p1", lambda ctx: ["veto"])
        registry.replace(newer)
        assert registry.get("p1") is newer

    def test_decorator_registers(self):
        registry = ProcedureRegistry()

        @attached_procedure("decorated", operations=("create",), registry=registry)
        def decorated(context):
            return None

        assert registry.get("decorated").applies_to("create")
        assert not registry.get("decorated").applies_to("delete")

    def test_unknown_operation_rejected(self):
        with pytest.raises(SchemaError, match="unknown operations"):
            AttachedProcedure("bad", lambda ctx: None, operations=("explode",))

    def test_double_attach_rejected(self):
        from repro.core.schema.entity_class import EntityClass

        entity_class = EntityClass("A")
        proc = AttachedProcedure("p", lambda ctx: None)
        entity_class.attach(proc)
        with pytest.raises(SchemaError, match="already attached"):
            entity_class.attach(proc)


class TestHistoryCorners:
    def test_versions_of_unknown_object(self, fig1_db):
        fig1_db.create_version()
        with pytest.raises(VersionError, match="no saved version"):
            fig1_db.history.versions_of_object_named("Ghost")

    def test_history_of_deleted_object_found_in_old_versions(self, fig1_db):
        fig1_db.create_version("1.0")
        fig1_db.delete(fig1_db.get_object("Alarms"))
        fig1_db.create_version("2.0")
        entries = fig1_db.history.versions_of_object_named("Alarms")
        assert [str(e.version) for e in entries] == ["1.0", "2.0"]
        assert not entries[0].deleted
        assert entries[1].deleted  # the tombstone is part of history
        live_only = fig1_db.history.versions_of_object_named("Alarms")
        without_tombstones = [e for e in live_only if not e.deleted]
        assert len(without_tombstones) == 1

    def test_diff_identical_versions_empty(self, fig1_db):
        fig1_db.create_version("1.0")
        fig1_db.get_object("Alarms")  # no change
        fig1_db.create_version("2.0")
        diff = fig1_db.history.diff("1.0", "2.0")
        assert diff.is_empty

    def test_alternatives_of_root(self, fig1_db):
        fig1_db.create_version("1.0")
        assert fig1_db.history.alternatives_of("1.0") == []

    def test_empty_version_of_unchanged_database(self, fig1_db):
        fig1_db.create_version("1.0")
        second = fig1_db.create_version()  # nothing changed
        assert fig1_db.versions.delta_size(second) == 0
        view = fig1_db.version_view(second)
        assert view.object_count() == 9


class TestViewCorners:
    def test_view_find_with_index(self, fig1_db):
        fig1_db.create_version("1.0")
        view = fig1_db.version_view("1.0")
        assert view.find("Alarms.Text[0].Body.Keywords[1]").value == "Display"
        assert view.find("Alarms.Text[5]") is None
        assert view.find("Ghost") is None

    def test_view_get_raises(self, fig1_db):
        fig1_db.create_version("1.0")
        with pytest.raises(VersionError, match="no object named"):
            fig1_db.version_view("1.0").get("Ghost")

    def test_view_objects_filtering(self, fig3_db):
        fig3_db.create_object("OutputData", "Out")
        fig3_db.create_object("Data", "Plain")
        fig3_db.create_version("1.0")
        view = fig3_db.version_view("1.0")
        assert len(view.objects("Data")) == 2
        assert len(view.objects("Data", include_specials=False)) == 1
        assert len(view.objects("OutputData")) == 1

    def test_view_patterns_hidden_by_default(self, spades_db):
        spades_db.create_object("Action", "P", pattern=True)
        spades_db.create_version("1.0")
        view = spades_db.version_view("1.0")
        assert view.objects() == []
        assert len(view.objects(include_patterns=True)) == 1
