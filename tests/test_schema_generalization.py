"""Unit tests for generalization hierarchies and re-classification rules."""

import pytest

from repro.core import SeedDatabase, figure2_schema, figure3_schema
from repro.core.errors import ClassificationError, SchemaError
from repro.core.schema.association import Association, Role
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import (
    check_reclassification,
    set_covering,
    specialize,
)
from repro.core.values import DATE, STRING
from repro.spades import spades_schema


@pytest.fixture
def hierarchy():
    """Thing <- Data <- {InputData, OutputData}; Thing <- Action."""
    thing = EntityClass("Thing")
    data = EntityClass("Data")
    input_data = EntityClass("InputData")
    output_data = EntityClass("OutputData")
    action = EntityClass("Action")
    specialize(thing, data)
    specialize(data, input_data)
    specialize(data, output_data)
    specialize(thing, action)
    return thing, data, input_data, output_data, action


class TestLinks:
    def test_kind_chain(self, hierarchy):
        thing, data, input_data, __, __ = hierarchy
        assert [el.name for el in input_data.kind_chain()] == [
            "InputData",
            "Data",
            "Thing",
        ]
        assert input_data.is_kind_of(thing)
        assert input_data.is_kind_of(input_data)
        assert not thing.is_kind_of(input_data)

    def test_family(self, hierarchy):
        thing, data, input_data, output_data, action = hierarchy
        family = {el.name for el in input_data.family()}
        assert family == {"Thing", "Data", "InputData", "OutputData", "Action"}
        assert input_data.family_root() is thing

    def test_all_specials(self, hierarchy):
        thing = hierarchy[0]
        assert {el.name for el in thing.all_specials()} == {
            "Data",
            "InputData",
            "OutputData",
            "Action",
        }

    def test_double_general_rejected(self, hierarchy):
        __, data, __, __, action = hierarchy
        with pytest.raises(SchemaError, match="already specializes"):
            specialize(action, data)

    def test_cycle_rejected(self, hierarchy):
        thing, __, input_data, __, __ = hierarchy
        with pytest.raises(SchemaError, match="cycle"):
            specialize(input_data, thing)

    def test_self_specialization_rejected(self):
        thing = EntityClass("Thing")
        with pytest.raises(SchemaError, match="cycle"):
            specialize(thing, thing)

    def test_kind_mismatch_rejected(self, hierarchy):
        from repro.core.cardinality import Cardinality
        from repro.core.schema.association import Association, Role

        thing, __, __, __, action = hierarchy
        assoc = Association(
            "R",
            Role("a", action, Cardinality.parse("0..*")),
            Role("b", action, Cardinality.parse("0..*")),
        )
        with pytest.raises(SchemaError, match="kinds differ"):
            specialize(thing, assoc)

    def test_value_typed_class_rejected(self):
        label = EntityClass("Label", value_sort=STRING)
        thing = EntityClass("Thing")
        with pytest.raises(SchemaError, match="value-typed"):
            specialize(thing, label)

    def test_dependent_class_rejected(self):
        data = EntityClass("Data")
        text = data.add_dependent("Text", "0..16")
        other = EntityClass("Other")
        with pytest.raises(SchemaError, match="independent"):
            specialize(other, text)

class TestCovering:
    def test_set_covering(self, hierarchy):
        thing = hierarchy[0]
        set_covering(thing)
        assert thing.covering

    def test_covering_without_specials_rejected(self):
        lonely = EntityClass("Lonely")
        with pytest.raises(SchemaError, match="unsatisfiable"):
            set_covering(lonely)


class TestReclassificationRules:
    def test_downward_always_legal(self, hierarchy):
        thing, data, input_data, __, __ = hierarchy
        check_reclassification(thing, data)
        check_reclassification(thing, input_data)  # multi-step down

    def test_same_class_rejected(self, hierarchy):
        data = hierarchy[1]
        with pytest.raises(ClassificationError, match="already classified"):
            check_reclassification(data, data)

    def test_upward_needs_flag(self, hierarchy):
        thing, data, __, __, __ = hierarchy
        with pytest.raises(ClassificationError, match="must specialize"):
            check_reclassification(data, thing)
        check_reclassification(data, thing, allow_generalize=True)

    def test_sideways_needs_flag(self, hierarchy):
        __, __, input_data, output_data, __ = hierarchy
        with pytest.raises(ClassificationError):
            check_reclassification(input_data, output_data)
        check_reclassification(input_data, output_data, allow_generalize=True)

    def test_outside_family_rejected_even_with_flag(self, hierarchy):
        data = hierarchy[1]
        other = EntityClass("Other")
        with pytest.raises(ClassificationError, match="family"):
            check_reclassification(data, other, allow_generalize=True)


def assert_facts_match_walk(schema):
    """Every compiled fact of every element equals the kind_chain() walk."""
    elements = [*schema.all_classes(), *schema.associations]
    for element in elements:
        chain = tuple(element.kind_chain())
        assert element.kinds() == chain
        assert element.family_root() is chain[-1]
        assert [other for other in elements if element.is_kind_of(other)] == [
            other for other in elements if any(kind is other for kind in chain)
        ]
        if isinstance(element, EntityClass):
            roles = {dependent.name for kind in chain for dependent in kind.dependents}
            for role in sorted(roles | {"Undeclared"}):
                walked = next(
                    (
                        kind.dependent(role)
                        for kind in chain
                        if any(d.name == role for d in kind.dependents)
                    ),
                    None,
                )
                assert element.resolve_dependent(role) is walked


class TestCompiledFacts:
    """Kind-of, family roots and dependent roles are compiled once per
    schema generation; every in-place link change must drop them."""

    @pytest.mark.parametrize(
        "make", [figure2_schema, figure3_schema, spades_schema],
        ids=["figure2", "figure3", "spades"],
    )
    def test_facts_follow_every_in_place_change(self, make):
        schema = make()
        check = lambda: assert_facts_match_walk(schema)  # noqa: E731
        check()  # compiles every element's facts
        base = next(c for c in schema.classes if c.general is None and not c.has_value)
        middle = schema.add_class(EntityClass("Middle"))
        leaf = schema.add_class(EntityClass("Leaf"))
        check()
        specialize(base, middle)
        check()
        specialize(middle, leaf)
        check()
        base.add_dependent("Added", "0..1")
        check()
        middle.add_dependent("Added", "0..2")  # nearer than base's
        check()
        set_covering(middle)
        check()
        general = schema.associations[0]
        special = schema.add_association(
            Association(
                "Special",
                Role("one", general.roles[0].target, "0..*"),
                Role("two", general.roles[1].target, "0..*"),
            )
        )
        check()
        specialize(general, special)
        check()

    def test_a_migrated_database_answers_from_the_new_schema(self):
        db = SeedDatabase(figure2_schema(), "migrating")
        data = db.create_object("Data", "D")
        action = db.create_object("Action", "A")
        db.relate("Read", {"from": data, "by": action})
        old = db.schema
        assert_facts_match_walk(old)
        new = old.copy()
        thing = new.add_class(EntityClass("Thing"))
        thing.add_dependent("Revised", "0..1", value_sort=DATE)
        specialize(thing, new.entity_class("Data"))
        specialize(thing, new.entity_class("Action"))
        access = new.add_association(
            Association(
                "Access",
                Role("data", new.entity_class("Data"), "0..*"),
                Role("by", new.entity_class("Action"), "0..*"),
            )
        )
        specialize(access, new.association("Read"))
        db.migrate_schema(new)
        assert_facts_match_walk(new)
        assert_facts_match_walk(old)
        assert data.entity_class.family_root() is thing
        assert {obj.simple_name for obj in db.objects("Thing")} == {"D", "A"}
        assert len(db.relationships_of_object(data, "Access")) == 1
        assert len(db.relationships("Access")) == 1
        assert data.add_sub_object("Revised").entity_class is thing.dependent("Revised")
        assert not old.entity_class("Data").is_kind_of(thing)
        db.indexes.verify()


class TestCheckMemo:
    """``Schema.check()`` remembers a pass until the schema generation
    moves; over seeded edit sequences — ill-formed states included — it
    must raise exactly when a fresh ``validate()`` finds problems."""

    @staticmethod
    def edit(rng, schema, classes, associations, count):
        """One random mutator call; a refused one raises SchemaError.
        Elements are created unregistered and registered by a later
        edit of their own, so that registering is the only change."""
        roll = rng.random()
        if roll < 0.2 or len(classes) < 2:
            cls = EntityClass(f"C{count}")
            if classes and rng.random() < 0.5:
                # its general may be a class the schema does not hold
                specialize(rng.choice(classes), cls)
            classes.append(cls)
        elif roll < 0.3:
            general = rng.choice(associations) if associations else None
            if general is not None and rng.random() < 0.5:
                first, second = (role.target for role in general.roles)
            else:
                general, (first, second) = None, rng.sample(classes, 2)
            association = Association(
                f"A{count}", Role("a", first, "0..*"), Role("b", second, "0..*")
            )
            if general is not None:
                # its general may be an association the schema lacks
                specialize(general, association)
            associations.append(association)
        elif roll < 0.45:
            pending = [c for c in classes if c not in schema.classes]
            schema.add_class(rng.choice(pending or classes))
        elif roll < 0.55 and associations:
            pending = [a for a in associations if a not in schema.associations]
            schema.add_association(rng.choice(pending or associations))
        elif roll < 0.7:
            general, special = rng.sample(classes, 2)
            specialize(general, special)
        elif roll < 0.9:
            set_covering(rng.choice(classes))
        else:
            rng.choice(classes).add_dependent(f"D{count}", "0..*")

    def test_memoized_check_raises_exactly_when_validate_finds_problems(self):
        import random

        from repro.core.schema.schema import Schema

        outcomes = {True: 0, False: 0}
        for seed in range(12):
            rng = random.Random(seed)
            schema = Schema(f"memo{seed}")
            classes, associations = [], []
            for count in range(120):
                try:
                    self.edit(rng, schema, classes, associations, count)
                except SchemaError:
                    pass  # a refused edit leaves the schema as it was
                for _ in range(2):  # the second call answers from the memo
                    problems = schema.validate()
                    if problems:
                        with pytest.raises(SchemaError, match="ill-formed"):
                            schema.check()
                    else:
                        assert schema.check() is schema
                outcomes[bool(problems)] += 1
        # both kinds of state were seen, each many times
        assert min(outcomes.values()) > 50, outcomes
