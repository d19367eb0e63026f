"""Unit tests for object classes and dependent-class trees."""

import pytest

from repro.core.errors import SchemaError, ValueTypeError
from repro.core.schema.entity_class import EntityClass
from repro.core.values import STRING


class TestIndependentClasses:
    def test_construction(self):
        data = EntityClass("Data")
        assert data.is_independent
        assert not data.is_dependent
        assert data.full_name == "Data"
        assert data.cardinality is None

    def test_value_typed_class(self):
        leaf = EntityClass("Label", value_sort=STRING)
        assert leaf.has_value
        assert leaf.accepts_value("x") == "x"

    def test_accepts_value_rejects_wrong_sort(self):
        leaf = EntityClass("Label", value_sort=STRING)
        with pytest.raises(ValueTypeError):
            leaf.accepts_value(42)

    def test_accepts_value_on_untyped_class(self):
        with pytest.raises(SchemaError, match="not value-typed"):
            EntityClass("Data").accepts_value("x")

    def test_illegal_name(self):
        with pytest.raises(Exception):
            EntityClass("2Data")


class TestDependentClasses:
    def test_figure2_tree(self):
        data = EntityClass("Data")
        text = data.add_dependent("Text", "0..16")
        body = text.add_dependent("Body")
        body.add_dependent("Contents", "1..1", value_sort=STRING)
        body.add_dependent("Keywords", "0..*", value_sort=STRING)
        text.add_dependent("Selector", "0..1", value_sort=STRING)

        assert text.is_dependent
        assert str(text.cardinality) == "0..16"
        assert body.full_name == "Data.Text.Body"
        assert body.parent.parent is data
        assert [c.full_name for c in data.walk()] == [
            "Data",
            "Data.Text",
            "Data.Text.Body",
            "Data.Text.Body.Contents",
            "Data.Text.Body.Keywords",
            "Data.Text.Selector",
        ]

    def test_dependent_lookup(self):
        data = EntityClass("Data")
        text = data.add_dependent("Text", "0..16")
        assert data.dependent("Text") is text
        assert data.resolve_dependent("Text") is text
        assert data.resolve_dependent("Body") is None

    def test_dependent_lookup_error_lists_available(self):
        data = EntityClass("Data")
        data.add_dependent("Text", "0..16")
        with pytest.raises(SchemaError, match="available: Text"):
            data.dependent("Nope")

    def test_dependent_path(self):
        data = EntityClass("Data")
        data.add_dependent("Text", "0..16").add_dependent("Body")
        assert data.dependent_path(("Text", "Body")).full_name == "Data.Text.Body"
        assert data.dependent_path(()) is data

    def test_duplicate_dependent_rejected(self):
        data = EntityClass("Data")
        data.add_dependent("Text")
        with pytest.raises(SchemaError, match="already has"):
            data.add_dependent("Text")

    def test_value_typed_class_cannot_have_dependents(self):
        leaf = EntityClass("Label", value_sort=STRING)
        with pytest.raises(SchemaError, match="cannot have dependents"):
            leaf.add_dependent("Sub")

    def test_default_cardinality_is_one(self):
        data = EntityClass("Data")
        body = data.add_dependent("Body")
        assert str(body.cardinality) == "1..1"
