"""Tests for objects, sub-objects, and name composition (figure 1)."""

import pytest

from repro.core import DottedName, SeedError
from repro.core.identifiers import NamePart


class TestFigure1Structure:
    def test_independent_object(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        assert alarms.is_independent
        assert alarms.class_name == "Data"
        assert str(alarms.name) == "Alarms"

    def test_composed_names(self, fig1_db):
        keyword = fig1_db.get_object("Alarms.Text[0].Body.Keywords[1]")
        assert keyword.value == "Display"
        assert str(keyword.name) == "Alarms.Text[0].Body.Keywords[1]"
        assert keyword.own_part == NamePart("Keywords", 1)

    def test_name_resolution_without_index_takes_first(self, fig1_db):
        # the paper writes Alarms.Text.Body...; index-free steps resolve
        # to the first live sibling
        body = fig1_db.get_object("Alarms.Text.Body")
        assert body.class_name == "Body"
        assert body.entity_class.full_name == "Data.Text.Body"

    def test_selector_value(self, fig1_db):
        selector = fig1_db.get_object("Alarms.Text.Selector")
        assert selector.value == "Representation"

    def test_root_navigation(self, fig1_db):
        keyword = fig1_db.get_object("Alarms.Text.Body.Keywords[0]")
        assert keyword.root is fig1_db.get_object("Alarms")

    def test_walk_covers_subtree(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        names = [str(node.name) for node in alarms.walk()]
        assert names == [
            "Alarms",
            "Alarms.Text[0]",
            "Alarms.Text[0].Body",
            "Alarms.Text[0].Body.Contents",
            "Alarms.Text[0].Body.Keywords[0]",
            "Alarms.Text[0].Body.Keywords[1]",
            "Alarms.Text[0].Selector",
        ]

    def test_sub_objects_by_role(self, fig1_db):
        body = fig1_db.get_object("Alarms.Text.Body")
        keywords = body.sub_objects("Keywords")
        assert [k.value for k in keywords] == ["Alarmhandling", "Display"]

    def test_sub_object_lookup_errors(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        with pytest.raises(SeedError, match="no sub-object"):
            alarms.sub_object("Nope")
        assert alarms.find_sub_object("Nope") is None

    def test_indices_assigned_consecutively(self, fig1_db):
        body = fig1_db.get_object("Alarms.Text.Body")
        third = body.add_sub_object("Keywords", "Safety")
        assert third.index == 2

    def test_explicit_index(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        text5 = fig1_db.create_sub_object(alarms, "Text", index=5)
        assert str(text5.name) == "Alarms.Text[5]"
        # auto index continues after the highest used index
        next_text = alarms.add_sub_object("Text")
        assert next_text.index == 6

    def test_single_card_role_has_no_index(self, fig1_db):
        body = fig1_db.get_object("Alarms.Text.Body")
        assert body.index is None
        contents = body.sub_object("Contents")
        assert contents.index is None
        assert str(contents.name) == "Alarms.Text[0].Body.Contents"

    def test_is_instance_of(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        assert alarms.is_instance_of("Data")
        assert not alarms.is_instance_of("Action")


class TestNavigationHelpers:
    def test_related(self, fig1_db):
        handler = fig1_db.get_object("AlarmHandler")
        assert [str(o.name) for o in handler.related("Read", "from")] == ["Alarms"]

    def test_relationships_of_object(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        rels = alarms.relationships("Read")
        assert len(rels) == 1
        assert rels[0].role_of(alarms) == "from"

    def test_relationships_filter_by_role(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        assert alarms.relationships("Read", role="from")
        assert not alarms.relationships("Read", role="by")


class TestObjectStateFreezing:
    def test_freeze_roundtrip_fields(self, fig1_db):
        keyword = fig1_db.get_object("Alarms.Text.Body.Keywords[1]")
        state = keyword.freeze()
        assert state.class_name == "Data.Text.Body.Keywords"
        assert state.name == "Keywords"
        assert state.index == 1
        assert state.value == "Display"
        assert not state.deleted
        assert state.parent_oid == keyword.parent.oid

    def test_freeze_detects_changes(self, fig1_db):
        keyword = fig1_db.get_object("Alarms.Text.Body.Keywords[1]")
        before = keyword.freeze()
        keyword.set_value("Changed")
        after = keyword.freeze()
        assert before != after
