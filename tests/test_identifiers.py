"""Unit tests for names and dotted identifiers."""

import pytest

from repro.core.errors import IdentifierError
from repro.core.identifiers import DottedName, NamePart, check_simple_name, is_simple_name
from repro.core.schema.entity_class import EntityClass


class TestSimpleNames:
    @pytest.mark.parametrize("name", ["Alarms", "alarm_handler", "_x", "K2"])
    def test_legal(self, name):
        assert is_simple_name(name)

    @pytest.mark.parametrize("name", ["", "2K", "a-b", "a.b", "a b", None, 42])
    def test_illegal(self, name):
        assert not is_simple_name(name)

    def test_check_mentions_what(self):
        with pytest.raises(IdentifierError, match="class name"):
            check_simple_name("a-b", "class name")


class TestTrailingNewline:
    """A ``$`` anchor matches before a final newline; names must not."""

    def test_simple_name(self):
        assert not is_simple_name("Alarms\n")
        with pytest.raises(IdentifierError):
            check_simple_name("Alarms\n")

    def test_name_parts(self):
        for text in ("Body\n", "Keywords[1]\n", "Alarms.Text\n"):
            with pytest.raises(IdentifierError):
                DottedName.parse(text)

    def test_object_cannot_be_created(self, fig2_db):
        with pytest.raises(IdentifierError):
            fig2_db.create_object("Action", "Alarms\n")
        assert fig2_db.find_object("Alarms") is None

    def test_lookup_is_not_answered_by_another_name(self, fig1_db):
        with pytest.raises(IdentifierError):
            fig1_db.find_object("Alarms\n")
        with pytest.raises(IdentifierError):
            fig1_db.get_object("Alarms\n", include_patterns=True)
        view = fig1_db.version_view(fig1_db.create_version())
        with pytest.raises(IdentifierError):
            view.find("Alarms\n")

    def test_class_name(self):
        with pytest.raises(IdentifierError):
            EntityClass("Bad\n")
        with pytest.raises(IdentifierError):
            EntityClass("Good").add_dependent("Bad\n")


class TestNamePart:
    def test_plain(self):
        part = NamePart.parse("Body")
        assert part.name == "Body"
        assert part.index is None
        assert str(part) == "Body"

    def test_indexed(self):
        part = NamePart.parse("Keywords[1]")
        assert part == NamePart("Keywords", 1)
        assert str(part) == "Keywords[1]"

    def test_negative_index_rejected(self):
        with pytest.raises(IdentifierError):
            NamePart("Keywords", -1)

    def test_bad_syntax(self):
        with pytest.raises(IdentifierError):
            NamePart.parse("Keywords[x]")

    def test_ordering_none_before_zero(self):
        assert NamePart("K") < NamePart("K", 0) < NamePart("K", 1)

    def test_ordering_by_name_first(self):
        assert NamePart("A", 9) < NamePart("B")


class TestDottedName:
    def test_parse_figure1_name(self):
        name = DottedName.parse("Alarms.Text.Body.Keywords[1]")
        assert name.depth == 4
        assert str(name.root) == "Alarms"
        assert name.leaf == NamePart("Keywords", 1)
        assert str(name) == "Alarms.Text.Body.Keywords[1]"

    def test_parent_chain(self):
        name = DottedName.parse("A.B.C")
        assert str(name.parent) == "A.B"
        assert str(name.parent.parent) == "A"
        assert name.parent.parent.parent is None

    def test_independent(self):
        name = DottedName.parse("Alarms")
        assert name.is_independent
        assert not DottedName.parse("Alarms.Text").is_independent

    def test_child_composition(self):
        name = DottedName.parse("Alarms").child("Text").child("Keywords", 0)
        assert str(name) == "Alarms.Text.Keywords[0]"

    def test_of_mixed_components(self):
        name = DottedName.of("A", NamePart("B"), ("C", 3))
        assert str(name) == "A.B.C[3]"

    def test_empty_rejected(self):
        with pytest.raises(IdentifierError):
            DottedName.parse("")
        with pytest.raises(IdentifierError):
            DottedName(())

    def test_bad_part_rejected(self):
        with pytest.raises(IdentifierError):
            DottedName.parse("A..B")

    def test_ordering(self):
        names = [
            DottedName.parse("B"),
            DottedName.parse("A.Text[1]"),
            DottedName.parse("A"),
            DottedName.parse("A.Text[0]"),
        ]
        ordered = sorted(names)
        assert [str(n) for n in ordered] == ["A", "A.Text[0]", "A.Text[1]", "B"]

    def test_hashable(self):
        assert len({DottedName.parse("A.B"), DottedName.parse("A.B")}) == 1

    def test_iteration_and_len(self):
        name = DottedName.parse("A.B.C")
        assert len(name) == 3
        assert [str(p) for p in name] == ["A", "B", "C"]
