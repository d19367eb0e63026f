"""Tests reproducing figure 4: version views, alternatives, history."""

import pytest

from repro.core import SeedDatabase, VersionId
from repro.core.errors import VersionError


@pytest.fixture
def fig4_db(fig2_db):
    """The figure-4 scenario: AlarmHandler's description evolves.

    Version 1.0: "Handles alarms".
    Version 2.0: "Handles alarms derived from ProcessData".
    Current:     "Generates alarms from process data, triggers Operator
                  Alert".
    """
    db = fig2_db
    alarms = db.create_object("Data", "Alarms")
    handler = db.create_object("Action", "AlarmHandler")
    handler.add_sub_object("Description", "Handles alarms")
    db.relate("Read", {"from": alarms, "by": handler})
    db.create_version("1.0")
    db.get_object("AlarmHandler.Description").set_value(
        "Handles alarms derived from ProcessData"
    )
    db.create_version("2.0")
    db.get_object("AlarmHandler.Description").set_value(
        "Generates alarms from process data, triggers Operator Alert"
    )
    return db


class TestViews:
    def test_figure_4c_view_of_1_0(self, fig4_db):
        view = fig4_db.version_view("1.0")
        assert view.get("AlarmHandler.Description").value == "Handles alarms"
        assert view.get("Alarms").class_name == "Data"
        assert view.relationships("Read")[0].bound("by").state.name == "AlarmHandler"

    def test_figure_4b_current_state(self, fig4_db):
        current = fig4_db.get_object("AlarmHandler.Description").value
        assert current.startswith("Generates alarms")

    def test_view_of_2_0_between(self, fig4_db):
        view = fig4_db.version_view("2.0")
        assert (
            view.get("AlarmHandler.Description").value
            == "Handles alarms derived from ProcessData"
        )

    def test_view_rule_greatest_version_leq_n(self, fig4_db):
        # Alarms never changed after 1.0: its 1.0 state serves view 2.0
        view = fig4_db.version_view("2.0")
        alarms = view.get("Alarms")
        assert alarms.state.class_name == "Data"

    def test_deleted_items_invisible_in_later_views(self, fig4_db):
        fig4_db.delete(fig4_db.get_object("Alarms"))
        fig4_db.create_version("3.0")
        assert fig4_db.version_view("3.0").find("Alarms") is None
        assert fig4_db.version_view("1.0").find("Alarms") is not None

    def test_view_retrieval_like_current(self, fig4_db):
        view = fig4_db.version_view("1.0")
        handler = view.get("AlarmHandler")
        assert [str(o.name) for o in handler.related("Read", "from")] == ["Alarms"]
        # Alarms, AlarmHandler, AlarmHandler.Description
        assert view.object_count() == 3
        assert view.relationship_count() == 1

    def test_unknown_version_rejected(self, fig4_db):
        with pytest.raises(VersionError):
            fig4_db.version_view("9.9")

    def test_views_are_deltas_not_copies(self, fig4_db):
        # only changed items are stored per version
        assert fig4_db.versions.delta_size("1.0") == 4  # initial: everything
        assert fig4_db.versions.delta_size("2.0") == 1  # only the description


class TestDeltaStorage:
    def test_unchanged_items_not_restored(self, fig4_db):
        store = fig4_db.versions.store
        alarms_oid = None
        for version in fig4_db.saved_versions():
            view = fig4_db.version_view(version)
            found = view.find("Alarms")
            if found is not None:
                alarms_oid = found.oid
        assert sorted(store.states_of(("o", alarms_oid))) == [VersionId.parse("1.0")]

    def test_delete_version(self, fig4_db):
        fig4_db.create_version("3.0")
        fig4_db.select_version("2.0")
        fig4_db.delete_version("3.0")
        assert VersionId.parse("3.0") not in fig4_db.versions.tree
        with pytest.raises(VersionError):
            fig4_db.version_view("3.0")

    def test_cannot_delete_base_or_nonleaf(self, fig4_db):
        fig4_db.create_version("3.0")
        with pytest.raises(VersionError, match="current state"):
            fig4_db.delete_version("3.0")
        with pytest.raises(VersionError, match="successors|leaf"):
            fig4_db.delete_version("1.0")


class TestAlternatives:
    def test_rebase_and_branch(self, fig4_db):
        fig4_db.create_version("3.0")
        fig4_db.select_version("1.0")
        # handles from before the selection are stale; re-fetch
        description = fig4_db.get_object("AlarmHandler.Description")
        assert description.value == "Handles alarms"
        description.set_value("Alternative: handled by operator")
        alternative = fig4_db.create_version()
        assert str(alternative) == "1.0.1"
        # both lines coexist
        assert (
            fig4_db.version_view("3.0").get("AlarmHandler.Description").value
            == "Generates alarms from process data, triggers Operator Alert"
        )
        assert (
            fig4_db.version_view("1.0.1").get("AlarmHandler.Description").value
            == "Alternative: handled by operator"
        )

    def test_unsaved_changes_guard(self, fig4_db):
        with pytest.raises(VersionError, match="unsaved"):
            fig4_db.select_version("1.0")
        fig4_db.select_version("1.0", discard_changes=True)
        assert fig4_db.get_object("AlarmHandler.Description").value == "Handles alarms"

    def test_original_line_selectable_again(self, fig4_db):
        fig4_db.create_version("3.0")
        fig4_db.select_version("1.0")
        fig4_db.get_object("AlarmHandler.Description").set_value("side quest")
        fig4_db.create_version()
        fig4_db.select_version("3.0")
        assert fig4_db.get_object("AlarmHandler.Description").value.startswith(
            "Generates alarms"
        )


class TestHistoryOperations:
    def test_versions_of_object(self, fig4_db):
        fig4_db.create_version("3.0")
        description_oid = fig4_db.get_object("AlarmHandler.Description").oid
        entries = fig4_db.history.versions_of_item(("o", description_oid))
        assert [str(e.version) for e in entries] == ["1.0", "2.0", "3.0"]
        values = [e.state.value for e in entries]
        assert values[0] == "Handles alarms"
        assert values[2].startswith("Generates alarms")

    def test_beginning_with(self, fig4_db):
        fig4_db.create_version("3.0")
        oid = fig4_db.get_object("AlarmHandler.Description").oid
        entries = fig4_db.history.versions_of_item(
            ("o", oid), beginning_with="2.0"
        )
        assert [str(e.version) for e in entries] == ["2.0", "3.0"]

    def test_versions_of_object_named(self, fig4_db):
        entries = fig4_db.history.versions_of_object_named("AlarmHandler")
        assert [str(e.version) for e in entries] == ["1.0"]

    def test_diff(self, fig4_db):
        diff = fig4_db.history.diff("1.0", "2.0")
        assert diff.added == [] and diff.removed == []
        assert len(diff.changed) == 1
        key, before, after = diff.changed[0]
        assert before.value == "Handles alarms"
        assert after.value == "Handles alarms derived from ProcessData"
        assert "~1" in diff.summary()

    def test_diff_with_deletion(self, fig4_db):
        fig4_db.create_version("3.0")
        fig4_db.delete(fig4_db.get_object("Alarms"))
        fig4_db.create_version("4.0")
        diff = fig4_db.history.diff("3.0", "4.0")
        # Alarms and its Read relationship disappeared
        assert len(diff.removed) == 2

    def test_navigation(self, fig4_db):
        fig4_db.create_version("3.0")
        fig4_db.select_version("1.0")
        fig4_db.get_object("AlarmHandler.Description").set_value("alt")
        fig4_db.create_version("1.0.1")
        history = fig4_db.history
        assert history.predecessor("1.0.1") == VersionId.parse("1.0")
        assert set(history.successors("1.0")) == {
            VersionId.parse("2.0"),
            VersionId.parse("1.0.1"),
        }
        assert history.alternatives_of("2.0") == [VersionId.parse("1.0.1")]
        assert history.line_of("1.0.1") == [
            VersionId.parse("1.0"),
            VersionId.parse("1.0.1"),
        ]


class TestSchemaVersions:
    def test_schema_migration_creates_schema_version(self, fig4_db, fig2_schema):
        extended = fig4_db.schema.copy("extended")
        extended.entity_class("Data").add_dependent("Priority", "0..1",
                                                    value_sort=None)
        index = fig4_db.migrate_schema(extended)
        assert index == 1
        fig4_db.create_version("3.0")
        assert fig4_db.versions.schema_version_of[VersionId.parse("3.0")] == 1
        assert fig4_db.versions.schema_version_of[VersionId.parse("1.0")] == 0

    def test_old_views_interpret_under_old_schema(self, fig4_db):
        old_schema = fig4_db.schema
        extended = fig4_db.schema.copy("extended")
        extended.entity_class("Data").add_dependent("Priority", "0..1")
        fig4_db.migrate_schema(extended)
        view = fig4_db.version_view("1.0")
        assert view.schema is old_schema

    def test_migration_rejecting_inconsistent_data(self, fig4_db):
        # shrink Text max to 0 after data exists: consistent (no Texts) —
        # instead shrink Contained... simpler: drop class Data entirely
        reduced = type(fig4_db.schema)("reduced")
        with pytest.raises(Exception):
            fig4_db.migrate_schema(reduced)
        # database unchanged
        assert fig4_db.find_object("Alarms") is not None
