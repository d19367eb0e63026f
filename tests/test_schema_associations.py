"""Unit tests for associations, roles, and association attributes."""

import pytest

from repro.core.cardinality import Cardinality
from repro.core.errors import SchemaError
from repro.core.schema.association import Association, Attribute, Role
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import specialize
from repro.core.values import INTEGER, STRING


@pytest.fixture
def classes():
    data = EntityClass("Data")
    action = EntityClass("Action")
    return data, action


def make_read(data, action):
    return Association(
        "Read",
        Role("from", data, Cardinality.parse("1..*")),
        Role("by", action, Cardinality.parse("0..*")),
    )


class TestRoles:
    def test_role_positions_assigned(self, classes):
        data, action = classes
        read = make_read(data, action)
        assert read.role_at(0).name == "from"
        assert read.role_at(1).name == "by"
        assert read.role_at(0).position == 0

    def test_role_lookup(self, classes):
        data, action = classes
        read = make_read(data, action)
        assert read.role("from").target is data
        assert read.other_role("from").name == "by"
        assert read.has_role("by")
        assert not read.has_role("to")

    def test_unknown_role(self, classes):
        read = make_read(*classes)
        with pytest.raises(SchemaError, match="no role 'to'"):
            read.role("to")

    def test_duplicate_role_names_rejected(self, classes):
        data, action = classes
        with pytest.raises(SchemaError, match="must differ"):
            Association(
                "Bad",
                Role("x", data, Cardinality.parse("0..*")),
                Role("x", action, Cardinality.parse("0..*")),
            )

    def test_dependent_class_as_role_target_rejected(self, classes):
        data, action = classes
        text = data.add_dependent("Text", "0..16")
        with pytest.raises(SchemaError, match="independent"):
            Role("r", text, Cardinality.parse("0..*"))

    def test_role_accepts_specializations(self, classes):
        data, action = classes
        output = EntityClass("OutputData")
        specialize(data, output)
        read = make_read(data, action)
        assert read.role("from").accepts(output)
        assert not read.role("from").accepts(action)

    def test_bad_position(self, classes):
        read = make_read(*classes)
        with pytest.raises(SchemaError):
            read.role_at(2)


class TestAcyclic:
    def test_acyclic_requires_same_family(self, classes):
        data, action = classes
        with pytest.raises(SchemaError, match="ACYCLIC"):
            Association(
                "Bad",
                Role("a", data, Cardinality.parse("0..*")),
                Role("b", action, Cardinality.parse("0..*")),
                acyclic=True,
            )

    def test_acyclic_same_class_ok(self, classes):
        __, action = classes
        contained = Association(
            "Contained",
            Role("contained", action, Cardinality.parse("0..1")),
            Role("container", action, Cardinality.parse("0..*")),
            acyclic=True,
        )
        assert contained.acyclic
        assert contained.effective_acyclic()

    def test_effective_acyclic_inherited(self, classes):
        __, action = classes
        general = Association(
            "Rel",
            Role("a", action, Cardinality.parse("0..*")),
            Role("b", action, Cardinality.parse("0..*")),
            acyclic=True,
        )
        special = Association(
            "SubRel",
            Role("a", action, Cardinality.parse("0..*")),
            Role("b", action, Cardinality.parse("0..*")),
        )
        specialize(general, special)
        assert special.effective_acyclic()


class TestAttributes:
    def test_declare_and_lookup(self, classes):
        read = make_read(*classes)
        read.add_attribute(Attribute("NumberOfReads", INTEGER, "0..1"))
        attr = read.attribute("NumberOfReads")
        assert attr.sort is INTEGER
        assert not attr.mandatory

    def test_mandatory_attribute(self, classes):
        read = make_read(*classes)
        read.add_attribute(Attribute("Mode", STRING, "1..1"))
        assert read.attribute("Mode").mandatory

    def test_multivalued_attribute_rejected(self):
        with pytest.raises(SchemaError, match="0..1 or 1..1"):
            Attribute("Tags", STRING, "0..*")

    def test_duplicate_attribute_rejected(self, classes):
        read = make_read(*classes)
        read.add_attribute(Attribute("X", STRING))
        with pytest.raises(SchemaError, match="already has"):
            read.add_attribute(Attribute("X", STRING))

    def test_attributes_inherited_from_general(self, classes):
        data, action = classes
        access = Association(
            "Access",
            Role("data", data, Cardinality.parse("0..*")),
            Role("by", action, Cardinality.parse("0..*")),
        )
        access.add_attribute(Attribute("Priority", INTEGER))
        read = make_read(data, action)
        specialize(access, read)
        assert read.has_attribute("Priority")
        assert read.attribute("Priority").sort is INTEGER
        assert "Priority" in read.attribute_names()
        # but not the other way around
        read.add_attribute(Attribute("Own", STRING))
        assert not access.has_attribute("Own")

    def test_unknown_attribute_lists_known(self, classes):
        read = make_read(*classes)
        read.add_attribute(Attribute("A", STRING))
        with pytest.raises(SchemaError, match="known: A"):
            read.attribute("B")


class TestGeneralizationOfAssociations:
    def test_positional_role_correspondence(self, classes):
        data, action = classes
        output = EntityClass("OutputData")
        specialize(data, output)
        access = Association(
            "Access",
            Role("data", data, Cardinality.parse("1..*")),
            Role("by", action, Cardinality.parse("1..*")),
        )
        write = Association(
            "Write",
            Role("to", output, Cardinality.parse("1..*")),
            Role("by", action, Cardinality.parse("0..*")),
        )
        specialize(access, write)
        assert write.role_at(access.role("data").position).name == "to"
        assert write.is_kind_of(access)

    def test_role_outside_family_rejected(self, classes):
        data, action = classes
        other = EntityClass("Other")
        access = Association(
            "Access",
            Role("data", data, Cardinality.parse("1..*")),
            Role("by", action, Cardinality.parse("1..*")),
        )
        bad = Association(
            "Bad",
            Role("x", other, Cardinality.parse("1..*")),
            Role("by", action, Cardinality.parse("0..*")),
        )
        with pytest.raises(SchemaError, match="not a specialization"):
            specialize(access, bad)

    def test_describe(self, classes):
        read = make_read(*classes)
        assert read.describe() == "Read(from: Data [1..*], by: Action [0..*])"
