"""Tests for the schema builder and the canned paper schemas."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import SchemaBuilder, figure2_schema, figure3_schema
from repro.core.schema.attached import AttachedProcedure, ProcedureRegistry


class TestBuilder:
    def test_basic_build(self):
        schema = (
            SchemaBuilder("s")
            .entity_class("A")
            .entity_class("B")
            .association("R", ("x", "A", "0..*"), ("y", "B", "0..*"))
            .build()
        )
        assert schema.entity_class("A").name == "A"
        assert schema.has_association("R")

    def test_build_only_once(self):
        builder = SchemaBuilder("s")
        builder.entity_class("A")
        builder.build()
        with pytest.raises(SchemaError, match="already built"):
            builder.build()

    def test_dotted_dependent_paths(self):
        builder = SchemaBuilder("s")
        builder.entity_class("A")
        builder.dependent("A", "B")
        builder.dependent("A.B", "C", "0..*", sort="STRING")
        schema = builder.build()
        leaf = schema.entity_class("A.B.C")
        assert leaf.value_sort.name == "STRING"

    def test_bad_role_spec(self):
        builder = SchemaBuilder("s").entity_class("A")
        with pytest.raises(SchemaError, match="role spec"):
            builder.association("R", ("x", "A"), ("y", "A", "0..*"))

    def test_covering_via_builder(self):
        builder = SchemaBuilder("s")
        builder.entity_class("Thing").entity_class("Data", specializes="Thing")
        builder.covering("Thing")
        assert builder.build().entity_class("Thing").covering

    def test_attach_procedure_object(self):
        proc = AttachedProcedure("noop", lambda ctx: None)
        builder = SchemaBuilder("s").entity_class("A")
        builder.attach("A", proc)
        schema = builder.build()
        assert schema.entity_class("A").attached_procedures == [proc]

    def test_attribute_requires_sort(self):
        builder = SchemaBuilder("s").entity_class("A")
        builder.association("R", ("x", "A", "0..*"), ("y", "A", "0..*"))
        builder.attribute("R", "N", "INTEGER", "1..1")
        schema = builder.build()
        assert schema.association("R").attribute("N").mandatory


def _two_classes() -> SchemaBuilder:
    return SchemaBuilder("s").entity_class("A").entity_class("B")


def _proc(name: str) -> AttachedProcedure:
    return AttachedProcedure(name, lambda ctx: None)


class TestBuilderDefaults:
    def test_dependent_and_attribute_cardinalities(self):
        schema = (
            _two_classes()
            .dependent("A", "Part")
            .association("R", ("x", "A", "0..*"), ("y", "B", "1..*"))
            .attribute("R", "Weight", "INTEGER")
            .build()
        )
        assert str(schema.entity_class("A.Part").cardinality) == "1..1"
        assert str(schema.association("R").attribute("Weight").cardinality) == "0..1"
        assert [str(role.cardinality) for role in schema.association("R").roles] == [
            "0..*",
            "1..*",
        ]

    def test_attach_by_registered_name(self):
        registry = ProcedureRegistry()
        proc = registry.register(_proc("named_guard"))
        schema = (
            _two_classes()
            .dependent("A", "Part", "0..*")
            .attach("A.Part", "named_guard", registry=registry)
            .build()
        )
        assert schema.entity_class("A.Part").attached_procedures == [proc]
        assert schema.entity_class("A").attached_procedures == []


#: builder steps after ``_two_classes()`` that must be refused, with
#: the message each refusal carries
REJECTED = {
    "unknown-general-class": (
        lambda b: b.entity_class("C", specializes="Missing"),
        "no class 'Missing'",
    ),
    "unknown-role-class": (
        lambda b: b.association("R", ("x", "A", "0..*"), ("y", "Nope", "0..*")),
        "no class 'Nope'",
    ),
    "unknown-general-association": (
        lambda b: b.association(
            "R", ("x", "A", "0..*"), ("y", "B", "0..*"), specializes="Missing"
        ),
        "no association 'Missing'",
    ),
    "duplicate-class": (lambda b: b.entity_class("A"), "already has a class named 'A'"),
    "duplicate-association": (
        lambda b: b.association("R", ("x", "A", "0..*"), ("y", "B", "0..*")).association(
            "R", ("u", "A", "0..*"), ("v", "B", "0..*")
        ),
        "already has an association named 'R'",
    ),
    "duplicate-dependent": (
        lambda b: b.dependent("A", "Part").dependent("A", "Part", "0..*"),
        "already has a dependent 'Part'",
    ),
    "same-role-names": (
        lambda b: b.association("R", ("x", "A", "0..*"), ("x", "B", "0..*")),
        "role names must differ",
    ),
    "dependent-of-unknown-class": (
        lambda b: b.dependent("Nope", "Part"),
        "no class 'Nope'",
    ),
    "attribute-of-unknown-association": (
        lambda b: b.attribute("Nope", "Weight", "INTEGER"),
        "no association 'Nope'",
    ),
    "covering-unknown-element": (lambda b: b.covering("Nope"), "no class 'Nope'"),
    "attach-to-unknown-element": (
        lambda b: b.attach("Nope", _proc("guard")),
        "no class 'Nope'",
    ),
    "attach-unregistered-name": (
        lambda b: b.attach("A", "nonexistent_proc_xyz", registry=ProcedureRegistry()),
        "unknown attached procedure 'nonexistent_proc_xyz'",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_builder_rejects(case):
    steps, message = REJECTED[case]
    with pytest.raises(SchemaError, match=message):
        steps(_two_classes())


class TestFigure2Schema:
    def test_classes(self):
        schema = figure2_schema()
        assert {c.name for c in schema.classes} == {"Data", "Action"}
        text = schema.entity_class("Data.Text")
        assert str(text.cardinality) == "0..16"
        assert schema.entity_class("Data.Text.Body.Contents").value_sort.name == "STRING"
        assert schema.entity_class("Data.Text.Selector").value_sort.name == "STRING"

    def test_associations(self):
        schema = figure2_schema()
        read = schema.association("Read")
        assert str(read.role("from").cardinality) == "1..*"
        assert str(read.role("by").cardinality) == "0..*"
        contained = schema.association("Contained")
        assert contained.acyclic
        # tree structure: each contained action has at most one container
        assert str(contained.role("contained").cardinality) == "0..1"

    def test_validates(self):
        assert figure2_schema().validate() == []


class TestFigure3Schema:
    def test_class_generalizations(self):
        schema = figure3_schema()
        thing = schema.entity_class("Thing")
        assert schema.entity_class("Data").general is thing
        assert schema.entity_class("Action").general is thing
        assert schema.entity_class("OutputData").is_kind_of(thing)
        assert thing.covering

    def test_association_generalizations(self):
        schema = figure3_schema()
        access = schema.association("Access")
        assert schema.association("Read").general is access
        assert schema.association("Write").general is access
        assert access.covering
        # differing cardinalities along the hierarchy (paper discussion)
        assert str(access.role("by").cardinality) == "1..*"
        assert str(schema.association("Read").role("by").cardinality) == "0..*"

    def test_write_attributes(self):
        schema = figure3_schema()
        write = schema.association("Write")
        assert write.attribute("NumberOfWrites").mandatory
        assert not write.attribute("ErrorHandling").mandatory
        assert not schema.association("Read").has_attribute("NumberOfWrites")

    def test_revised_date_on_thing(self):
        schema = figure3_schema()
        assert schema.entity_class("Thing.Revised").value_sort.name == "DATE"

    def test_validates(self):
        assert figure3_schema().validate() == []


class TestSchemaCopy:
    def test_copy_is_deep_and_equal_in_structure(self):
        schema = figure3_schema()
        clone = schema.copy()
        assert clone is not schema
        assert {c.name for c in clone.classes} == {c.name for c in schema.classes}
        assert clone.entity_class("OutputData").is_kind_of(clone.entity_class("Thing"))
        assert clone.association("Write").general is clone.association("Access")
        assert clone.entity_class("Data.Text.Body").full_name == "Data.Text.Body"
        # modifying the copy leaves the original untouched
        clone.entity_class("Data").add_dependent("Extra", "0..1")
        assert "Extra" not in {d.name for d in schema.entity_class("Data").dependents}

    def test_copy_preserves_attributes_and_flags(self):
        schema = figure3_schema()
        clone = schema.copy("renamed")
        assert clone.name == "renamed"
        assert clone.association("Write").attribute("NumberOfWrites").mandatory
        assert clone.association("Contained").acyclic
        assert clone.entity_class("Thing").covering
