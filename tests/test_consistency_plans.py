"""The compiled consistency plans vs. the rule-walking checks.

``ConsistencyEngine.validate_object`` / ``validate_relationship`` decide
an item on the plan its class or association compiled (``accepts_object``
/ ``accepts_relationship``) and walk the rules (``explain_object`` /
``explain_relationship``) only for an item the plan does not accept. The rule-walking code is the oracle: over
seeded histories and hand-made violations, for every item (tombstones
and pattern content included)

* a plan that accepts an item must be right — the explainer finds no
  violation (a false accept would let an inconsistent update commit);
* for a *plain* item — an object that inherits no pattern, a
  relationship with no attributes, no deleted binding and no
  pattern-influenced endpoint — the plan decides alone, so it rejects
  exactly the items the explainer finds violations in.

Violations that a commit would reject are checked inside the open unit,
before it ends.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import ConsistencyError, SeedError
from repro.core.objects import SeedObject
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import specialize
from repro.core.values import INTEGER, STRING


def items_of(db: SeedDatabase) -> list:
    """Every item record, tombstones and pattern content included."""
    return [*db.all_objects_raw(), *db.all_relationships_raw()]


def decide(db: SeedDatabase, item) -> tuple[bool, list]:
    """``(the plan accepts, the explainer's violations)`` of one item."""
    engine = db.consistency
    if isinstance(item, SeedObject):
        return engine.accepts_object(item), engine.explain_object(item)
    return engine.accepts_relationship(item), engine.explain_relationship(item)


def plain(db: SeedDatabase, item) -> bool:
    """True when nothing about *item* makes the plan hand it over."""
    if isinstance(item, SeedObject):
        return item.deleted or not item.inherited_patterns
    if item.deleted:
        return True
    ends = item.endpoints()
    return not (
        item.attributes()
        or any(end.deleted for end in ends)
        or any(db.indexes.pattern_influenced(end) for end in ends)
    )


def assert_oracle(db: SeedDatabase, context: str = "") -> None:
    for item in items_of(db):
        accepted, violations = decide(db, item)
        if accepted:
            assert violations == [], f"false accept of {item!r} {context}: {violations}"
        elif plain(db, item):
            assert violations, f"plain {item!r} rejected without a violation {context}"


def rejected(db: SeedDatabase, item) -> list:
    """The violations of an item the plan must reject, as the engine
    reports them (the explainer's, unchanged)."""
    accepted, violations = decide(db, item)
    assert not accepted and violations
    engine = db.consistency
    if isinstance(item, SeedObject):
        assert engine.validate_object(item) == violations
    else:
        assert engine.validate_relationship(item) == violations
    return violations


@pytest.fixture
def fig3_world(fig3_db):
    """Figure 3 with a datum, two actions and a flow of each kind."""
    db = fig3_db
    data = db.create_object("InputData", "In")
    data.add_sub_object("Text").add_sub_object("Body").add_sub_object("Contents", "c")
    out = db.create_object("OutputData", "Out")
    actions = []
    for name in ("A", "B", "C"):
        action = db.create_object("Action", name)
        action.add_sub_object("Description", f"does {name}")
        actions.append(action)
    db.relate("Read", {"from": data, "by": actions[0]})
    db.relate("Write", {"to": out, "by": actions[1]}, attributes={"NumberOfWrites": 2})
    db.relate("Contained", {"contained": actions[1], "container": actions[0]})
    assert_oracle(db, "(fixture)")
    return db, data, out, actions


class TestHandMadeViolations:
    def test_wrong_class_child(self, fig3_world):
        db, data, __, __ = fig3_world
        text = data.sub_object("Text")
        text.entity_class = db.schema.entity_class("Action").dependent("Description")
        try:
            assert rejected(db, data)[0].kind == "membership"
            assert_oracle(db)
        finally:
            text.entity_class = db.schema.entity_class("Data").dependent("Text")
        assert_oracle(db)

    def test_too_many_own_children(self, fig3_world):
        db, __, __, actions = fig3_world
        with pytest.raises(ConsistencyError):
            with db.transaction():
                actions[2].add_sub_object("Description", "twice")
                assert rejected(db, actions[2])[0].kind == "max-cardinality"
                assert_oracle(db, "(inside the unit)")
        assert_oracle(db)

    def test_too_many_inherited_children(self, fig3_world):
        db, __, __, actions = fig3_world
        pattern = db.create_object("Action", "P", pattern=True)
        pattern.add_sub_object("Description", "from the pattern")
        with pytest.raises(ConsistencyError):
            with db.transaction():
                db.inherit(pattern, actions[2])
                found = db.consistency.validate_object(actions[2])
                assert [v.kind for v in found] == ["max-cardinality"]
                assert not db.consistency.accepts_object(actions[2])
                assert_oracle(db, "(inside the unit)")
        assert_oracle(db)

    def test_undeclared_role(self, fig3_world):
        db, data, __, __ = fig3_world
        text = data.sub_object("Text")
        text._rename("Margin")  # noqa: SLF001
        data._children["Margin"] = data._children.pop("Text")  # noqa: SLF001
        try:
            assert rejected(db, data)[0].kind == "membership"
            assert_oracle(db)
        finally:
            text._rename("Text")  # noqa: SLF001
            data._children["Text"] = data._children.pop("Margin")  # noqa: SLF001
        assert_oracle(db)

    @pytest.mark.parametrize("value", [7, True, 1.5, b"bytes"])
    def test_ill_sorted_string_value(self, fig3_world, value):
        db, __, __, actions = fig3_world
        description = actions[0].sub_object("Description")
        kept, description.value = description.value, value
        try:
            assert rejected(db, description)[0].kind == "value-sort"
            assert_oracle(db)
        finally:
            description.value = kept

    @pytest.mark.parametrize("value", [True, "7", 7.0])
    def test_ill_sorted_integer_value(self, value):
        schema = figure3_schema()
        schema.entity_class("Action").add_dependent("Priority", "0..1", value_sort=INTEGER)
        db = SeedDatabase(schema, "ints")
        action = db.create_object("Action", "A")
        priority = action.add_sub_object("Priority", 3)
        assert db.consistency.accepts_object(priority)
        priority.value = value
        assert rejected(db, priority)[0].kind == "value-sort"
        assert_oracle(db)

    def test_value_on_a_class_without_a_sort(self, fig3_world):
        db, data, __, __ = fig3_world
        data.value = "not allowed"
        try:
            assert rejected(db, data)[0].kind == "value-sort"
        finally:
            data.value = None

    def test_deleted_bound_object(self, fig3_world):
        db, data, __, actions = fig3_world
        read = next(r for r in db.relationships() if r.association.name == "Read")
        actions[0].deleted = True
        try:
            assert [v.kind for v in rejected(db, read)] == ["structure"]
            assert_oracle(db)
        finally:
            actions[0].deleted = False

    def test_binding_outside_the_role_target(self, fig3_world):
        db, data, __, __ = fig3_world
        read = next(r for r in db.relationships() if r.association.name == "Read")
        with pytest.raises(ConsistencyError):
            with db.transaction():
                db.reclassify(data, "Data", allow_generalize=True)
                assert rejected(db, read)[0].kind == "membership"
                assert_oracle(db, "(inside the unit)")
        assert_oracle(db)

    def test_unknown_and_ill_sorted_attributes(self, fig3_world):
        db, __, __, __ = fig3_world
        write = next(r for r in db.relationships() if r.association.name == "Write")
        attributes = write._attributes  # noqa: SLF001
        for name, value, kind in (
            ("Bogus", 1, "structure"),
            ("NumberOfWrites", "many", "value-sort"),
        ):
            kept = dict(attributes)
            attributes[name] = value
            try:
                assert rejected(db, write)[0].kind == kind
                assert_oracle(db)
            finally:
                attributes.clear()
                attributes.update(kept)
        # a well-sorted attribute is handed over, and the explainer agrees
        assert not db.consistency.accepts_relationship(write)
        assert db.consistency.validate_relationship(write) == []

    def test_contained_over_its_maximum(self, fig3_world):
        db, __, __, actions = fig3_world
        with pytest.raises(ConsistencyError):
            with db.transaction():
                second = db.relate(
                    "Contained", {"contained": actions[1], "container": actions[2]}
                )
                assert rejected(db, second)[0].kind == "max-cardinality"
                assert_oracle(db, "(inside the unit)")
        assert_oracle(db)

    def test_pattern_relationships(self, fig3_world):
        db, __, __, actions = fig3_world
        pattern = db.create_object("Action", "P", pattern=True)
        db.relate("Contained", {"contained": pattern, "container": actions[2]},
                  pattern=True)
        inheritor = db.create_object("Action", "I")
        inheritor.add_sub_object("Description", "inherits")
        db.inherit(pattern, inheritor)
        assert_oracle(db)
        with pytest.raises(ConsistencyError):
            with db.transaction():
                # a second container for an inheritor of a contained pattern
                extra = db.relate(
                    "Contained", {"contained": inheritor, "container": actions[0]}
                )
                assert not db.consistency.accepts_relationship(extra)
                assert db.consistency.validate_relationship(extra)
                assert_oracle(db, "(inside the unit)")
        assert_oracle(db)


class TestSchemaChangedInPlace:
    def test_a_nearer_dependent_makes_children_wrong_class(self, fig3_world):
        db, data, __, __ = fig3_world
        assert db.consistency.accepts_object(data)
        db.schema.entity_class("InputData").add_dependent("Text", "0..1")
        assert rejected(db, data)[0].kind == "membership"
        assert_oracle(db)

    def test_a_new_general_declares_roles(self, fig3_db):
        db = fig3_db
        named = db.schema.add_class(EntityClass("Named"))
        task = db.schema.add_class(EntityClass("Task"))
        task.add_dependent("Description", "0..1", value_sort=STRING)
        obj = db.create_object("Task", "T")
        obj.add_sub_object("Description", "d")
        specialize(named, task)
        assert db.consistency.accepts_object(obj)
        named.add_dependent("Description", "0..1", value_sort=STRING)
        # the nearest declaration (Task.Description) still wins
        assert db.consistency.accepts_object(obj)
        assert_oracle(db)


def random_step(db: SeedDatabase, rng: random.Random, counter: list[int]) -> None:
    """One random figure-3 update; rejected updates are no-ops."""
    objects = [o for o in db.objects(include_patterns=True) if o.parent is None]
    relationships = db.relationships(include_patterns=True)
    actions = [o for o in objects if o.is_instance_of("Action")]
    data = [o for o in objects if o.is_instance_of("Data")]
    roll = rng.random()
    try:
        if roll < 0.25 or not objects:
            counter[0] += 1
            db.create_object(
                rng.choice(["Thing", "Data", "InputData", "OutputData", "Action"]),
                f"Obj{counter[0]}",
                pattern=rng.random() < 0.12,
            )
        elif roll < 0.4:
            target = rng.choice(objects)
            if target.is_instance_of("Action"):
                target.add_sub_object("Description", "d")  # a second one fails
            elif target.is_instance_of("Data"):
                target.add_sub_object("Text").add_sub_object("Body")
        elif roll < 0.55 and actions:
            if data and rng.random() < 0.5:
                association = rng.choice(["Access", "Read", "Write"])
                role = {"Access": "data", "Read": "from", "Write": "to"}[association]
                attributes = {"NumberOfWrites": 1} if association == "Write" else None
                db.relate(
                    association,
                    {role: rng.choice(data), "by": rng.choice(actions)},
                    attributes=attributes,
                )
            else:
                db.relate(
                    "Contained",
                    {"contained": rng.choice(actions), "container": rng.choice(actions)},
                    pattern=rng.random() < 0.1,
                )
        elif roll < 0.65:
            item = rng.choice(objects)
            if item.is_pattern:
                db.unmark_pattern(item)
            else:
                db.mark_pattern(item)
        elif roll < 0.75:
            patterns = [o for o in objects if o.is_pattern]
            normals = [o for o in objects if not o.is_pattern]
            if patterns and normals:
                pattern, inheritor = rng.choice(patterns), rng.choice(normals)
                if pattern.oid in inheritor.inherited_patterns:
                    db.uninherit(pattern, inheritor)
                else:
                    db.inherit(pattern, inheritor)
        elif roll < 0.82:
            candidates = [o for o in objects if o.class_name in ("Thing", "Data")]
            if candidates:
                item = rng.choice(candidates)
                specials = {"Thing": ["Data", "Action"], "Data": ["InputData", "OutputData"]}
                db.reclassify(item, rng.choice(specials[item.class_name]))
        elif roll < 0.92:
            pool = relationships if relationships and rng.random() < 0.6 else objects
            db.delete(rng.choice(pool))
        else:
            counter[0] += 1
            db.rename(rng.choice(objects), f"Renamed{counter[0]}")
    except SeedError:
        pass


def change_schema_in_place(db: SeedDatabase, rng: random.Random, counter: list[int]) -> None:
    """One in-place schema change that may make existing data inconsistent."""
    counter[0] += 1
    schema = db.schema
    roll = rng.random()
    if roll < 0.4:
        # a nearer declaration of Text: existing Data.Text children of
        # this class's objects become wrong-class
        target = schema.entity_class(rng.choice(["InputData", "OutputData"]))
        if "Text" not in {d.name for d in target.dependents}:
            target.add_dependent("Text", rng.choice(["0..1", "0..*"]))
    elif roll < 0.7:
        target = schema.entity_class(rng.choice(["Action", "Thing"]))
        target.add_dependent(f"Extra{counter[0]}", "0..1", value_sort=STRING)
    else:
        # a new specialization moves the family's compiled facts
        special = schema.add_class(EntityClass(f"Sub{counter[0]}"))
        specialize(schema.entity_class(rng.choice(["Data", "Action"])), special)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_histories_agree_with_the_explainer(seed):
    rng = random.Random(seed)
    db = SeedDatabase(figure3_schema(), f"plans-{seed}")
    counter = [0]
    for step in range(80):
        random_step(db, rng, counter)
        if step in (40, 60):
            change_schema_in_place(db, rng, counter)
        assert_oracle(db, f"(seed {seed}, step {step})")
        if rng.random() < 0.1:
            # the same decisions inside an open unit, before its check
            try:
                with db.transaction():
                    random_step(db, rng, counter)
                    random_step(db, rng, counter)
                    assert_oracle(db, f"(seed {seed}, step {step}, in a unit)")
            except SeedError:
                pass
    assert_oracle(db, f"(seed {seed}, final)")


def test_the_plan_serves_a_query_mix_database(query_mix_smoke_db):
    db = query_mix_smoke_db
    refused = [item for item in items_of(db) if not decide(db, item)[0]]
    assert refused == []
    assert db.check_consistency() == []
