"""Property-based tests (hypothesis) for the core invariants.

DESIGN.md section 6 lists the invariants; each gets a property here:

* dotted-name parse/compose round-trip;
* version views equal a full-copy oracle on arbitrary edit/snapshot
  sequences;
* random accepted update sequences keep full consistency re-validation
  empty, and rejected updates leave the database unchanged;
* serialisation round-trips the complete state;
* ``thaw`` inverts ``freeze`` on every state field;
* the ACYCLIC check agrees with networkx on random edge sets;
* pattern propagation keeps all inheritors' views equal to the pattern.
"""

from __future__ import annotations

import dataclasses

import networkx
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FullCopyVersioning
from repro.core import ConsistencyError, SeedDatabase, figure2_schema
from repro.core.identifiers import DottedName, NamePart
from repro.core.objects import ObjectState
from repro.core.relationships import RelationshipState
from repro.core.storage import database_from_dict, database_to_dict
from repro.spades import spades_schema

# -- strategies -------------------------------------------------------------

simple_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
name_parts = st.builds(
    NamePart, simple_names, st.one_of(st.none(), st.integers(0, 99))
)
dotted_names = st.builds(
    lambda parts: DottedName(tuple(parts)), st.lists(name_parts, min_size=1, max_size=5)
)


class TestNameRoundTrip:
    @given(dotted_names)
    def test_parse_compose_roundtrip(self, name):
        assert DottedName.parse(str(name)) == name

    @given(dotted_names, dotted_names)
    def test_ordering_consistent_with_text(self, first, second):
        # ordering is deterministic and total
        assert (first < second) or (second < first) or first == second


# -- version views vs full-copy oracle ---------------------------------------

#: one edit step: (kind, argument) interpreted by _apply_step
edit_steps = st.lists(
    st.tuples(
        st.sampled_from(["create", "set", "delete", "snapshot"]),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=30,
)


def _apply_step(db, step, serial):
    kind, arg = step
    population = db.objects("Data", include_specials=False)
    if kind == "create":
        db.create_object("Data", f"Obj{serial}")
    elif kind == "set" and population:
        target = population[arg % len(population)]
        text = target.find_sub_object("Text")
        if text is None:
            text = target.add_sub_object("Text")
            body = text.add_sub_object("Body")
            body.add_sub_object("Contents", f"v{serial}")
        else:
            text.sub_object("Body").sub_object("Contents").set_value(f"v{serial}")
    elif kind == "delete" and population:
        db.delete(population[arg % len(population)])
    elif kind == "snapshot":
        return "snapshot"
    return None


class TestVersionViewsAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(edit_steps)
    def test_delta_views_equal_fullcopy_snapshots(self, steps):
        db = SeedDatabase(figure2_schema(), "prop")
        oracle = FullCopyVersioning(db)
        snapshots = []
        for serial, step in enumerate(steps):
            if _apply_step(db, step, serial) == "snapshot":
                vid = db.create_version()
                oracle.create_version(str(vid))
                snapshots.append(vid)
        for vid in snapshots:
            view = db.version_view(vid)
            expected = oracle.snapshot(vid)
            actual = dict(view.item_states())
            assert actual == expected

    @settings(max_examples=25, deadline=None)
    @given(edit_steps)
    def test_select_version_restores_exact_state(self, steps):
        db = SeedDatabase(figure2_schema(), "prop2")
        snapshots = []
        frozen_states = {}
        for serial, step in enumerate(steps):
            if _apply_step(db, step, serial) == "snapshot":
                vid = db.create_version()
                snapshots.append(vid)
                frozen_states[vid] = {
                    ("o", o.oid): o.freeze()
                    for o in db.all_objects_raw()
                    if not o.deleted
                }
        for vid in snapshots:
            db.select_version(vid, discard_changes=True)
            live = {
                ("o", o.oid): o.freeze()
                for o in db.all_objects_raw()
                if not o.deleted
            }
            assert live == frozen_states[vid]


# -- consistency preservation --------------------------------------------------

random_ops = st.lists(
    st.tuples(st.sampled_from(["data", "action", "read", "write", "contain"]),
              st.integers(0, 9), st.integers(0, 9)),
    min_size=1,
    max_size=40,
)


def _apply_random_op(db, kind, a, b, serial):
    """One ``random_ops`` step; rejected updates raise ConsistencyError."""
    if kind == "data":
        db.create_object("Data", f"D{serial}")
    elif kind == "action":
        db.create_object("Action", f"A{serial}")
    elif kind in ("read", "write"):
        data = db.objects("Data", include_specials=False)
        actions = db.objects("Action", include_specials=False)
        if data and actions:
            bindings = {
                "from" if kind == "read" else "to": data[a % len(data)],
                "by": actions[b % len(actions)],
            }
            db.relate(kind.capitalize(), bindings)
    elif kind == "contain":
        actions = db.objects("Action", include_specials=False)
        if len(actions) >= 2:
            db.relate(
                "Contained",
                contained=actions[a % len(actions)],
                container=actions[b % len(actions)],
            )


class TestConsistencyPreservation:
    @settings(max_examples=40, deadline=None)
    @given(random_ops)
    def test_accepted_updates_keep_database_consistent(self, operations):
        db = SeedDatabase(spades_schema(), "prop3")
        serial = 0
        for kind, a, b in operations:
            serial += 1
            try:
                _apply_random_op(db, kind, a, b, serial)
            except ConsistencyError:
                pass  # rejected updates are fine; state must stay clean
            assert db.check_consistency() == []

    @settings(max_examples=40, deadline=None)
    @given(random_ops)
    def test_rejected_updates_leave_state_unchanged(self, operations):
        db = SeedDatabase(spades_schema(), "prop4")
        serial = 0
        for kind, a, b in operations:
            serial += 1
            before = database_to_dict(db)
            try:
                if kind == "contain":
                    actions = db.objects("Action", include_specials=False)
                    if len(actions) >= 1:
                        db.relate(
                            "Contained",
                            contained=actions[a % len(actions)],
                            container=actions[b % len(actions)],
                        )
                elif kind == "data":
                    db.create_object("Data", f"D{serial % 5}")  # collisions!
                else:
                    db.create_object("Action", f"A{serial % 5}")
            except ConsistencyError:
                assert database_to_dict(db) == before


# -- serialisation round-trip ----------------------------------------------------

class TestSerialisationRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(edit_steps)
    def test_roundtrip_identity(self, steps):
        db = SeedDatabase(figure2_schema(), "prop5")
        for serial, step in enumerate(steps):
            if _apply_step(db, step, serial) == "snapshot":
                db.create_version()
        image = database_to_dict(db)
        assert database_to_dict(database_from_dict(image)) == image


# -- thaw is the inverse of freeze, field by field ------------------------------

def _varied_database(operations):
    """A SPADES database whose records differ in *every* state field.

    The fixed part guarantees the variety (so a field added to a state
    class fails the coverage assertion below until someone varies it
    here); the ``random_ops`` part widens the population.
    """
    db = SeedDatabase(spades_schema(), "thaw")
    alarms = db.create_object("Data", "Alarms")
    handler = db.create_object("Action", "Handler")
    alarms.add_sub_object("Note", "first")  # index 0, a parent, a value
    alarms.add_sub_object("Note", "second")  # index 1
    template = db.create_object("Action", "Template", pattern=True)
    db.inherit(template, handler)
    write = db.relate("Write", {"to": alarms, "by": handler})
    write.set_attribute("NumberOfWrites", 2)
    db.relate("Triggers", trigger=template, triggered=template, pattern=True)
    db.relate("Read", {"from": alarms, "by": handler}).delete()
    db.create_object("Module", "Gone").delete()
    for serial, (kind, a, b) in enumerate(operations):
        try:
            _apply_random_op(db, kind, a, b, serial)
        except ConsistencyError:
            pass
    return db


class TestThawInvertsFreeze:
    @settings(max_examples=25, deadline=None)
    @given(random_ops)
    def test_every_state_field_round_trips(self, operations):
        db = _varied_database(operations)
        for records, state_class in (
            (list(db.all_objects_raw()), ObjectState),
            (list(db.all_relationships_raw()), RelationshipState),
        ):
            states = [record.freeze() for record in records]
            for field in dataclasses.fields(state_class):
                differing = [
                    (source, target)
                    for source in range(len(states))
                    for target in range(len(states))
                    if getattr(states[source], field.name)
                    != getattr(states[target], field.name)
                ]
                assert differing, f"no two records differ in {field.name}"
                for source, target in differing[:: len(differing) // 8 + 1]:
                    record = records[target]
                    record.thaw(states[source])
                    assert record.freeze() == states[source], field.name
                    record.thaw(states[target])  # leave the record as it was


# -- ACYCLIC against networkx ------------------------------------------------------

edge_sets = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=20
)


class TestAcyclicOracle:
    @settings(max_examples=60, deadline=None)
    @given(edge_sets)
    def test_engine_accepts_exactly_acyclic_edge_sets(self, edges):
        db = SeedDatabase(spades_schema(), "prop6")
        actions = [db.create_object("Action", f"N{i}") for i in range(8)]
        accepted = []
        for child_index, parent_index in edges:
            if child_index == parent_index:
                continue
            # Contained.contained is 0..1: skip children already placed
            if any(c == child_index for c, __ in accepted):
                continue
            try:
                db.relate(
                    "Contained",
                    contained=actions[child_index],
                    container=actions[parent_index],
                )
                accepted.append((child_index, parent_index))
            except ConsistencyError:
                # the engine rejected the edge: adding it must create a
                # cycle per networkx
                graph = networkx.DiGraph(accepted + [(child_index, parent_index)])
                assert not networkx.is_directed_acyclic_graph(graph)
        graph = networkx.DiGraph(accepted)
        assert networkx.is_directed_acyclic_graph(graph)


# -- pattern propagation --------------------------------------------------------------

pattern_edits = st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=10)


class TestPatternPropagation:
    @settings(max_examples=30, deadline=None)
    @given(pattern_edits, st.integers(1, 5))
    def test_all_inheritors_always_see_latest_pattern_value(
        self, edits, inheritor_count
    ):
        db = SeedDatabase(spades_schema(), "prop7")
        pattern = db.create_object("Action", "Template", pattern=True)
        note = db.create_sub_object(pattern, "Note", "initial")
        inheritors = []
        for i in range(inheritor_count):
            obj = db.create_object("Action", f"Member{i}")
            db.inherit(pattern, obj)
            inheritors.append(obj)
        for text in edits:
            note.set_value(text)
            for obj in inheritors:
                values = [n.value for n in obj.effective_sub_objects("Note")]
                assert values == [text]
