"""Shared fixtures: schemas and pre-populated databases."""

from __future__ import annotations

import gc
import random

import pytest

from repro.core import SeedDatabase, figure2_schema, figure3_schema
from repro.spades import SpadesTool, spades_schema
from repro.workloads import SpecShape, generate_spec, load_into_spades


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Every test leaves the cyclic collector as it found it, with
    nothing frozen, so a lane that leaks a paused or frozen collector
    fails in the test that leaked it, not in a later timing."""
    enabled = gc.isenabled()
    yield
    assert gc.isenabled() is enabled, "the collector was left paused or resumed"
    assert gc.get_freeze_count() == 0, "objects were left frozen"


@pytest.fixture
def fig2_schema():
    """The paper's figure-2 schema."""
    return figure2_schema()


@pytest.fixture
def fig3_schema():
    """The paper's figure-3 schema (with generalizations)."""
    return figure3_schema()


@pytest.fixture
def fig2_db(fig2_schema):
    """An empty database over the figure-2 schema."""
    return SeedDatabase(fig2_schema, "fig2")


@pytest.fixture
def fig3_db(fig3_schema):
    """An empty database over the figure-3 schema."""
    return SeedDatabase(fig3_schema, "fig3")


@pytest.fixture
def fig1_db(fig2_db):
    """The figure-1 sample structure, faithfully reconstructed.

    Independent objects ``Alarms`` (Data) and ``AlarmHandler`` (Action),
    a ``Read`` relationship (AlarmHandler reads Alarms), and the
    dependent-object tree ``Alarms.Text[0]`` with Body/Contents,
    Keywords[0..1], and Selector.
    """
    db = fig2_db
    alarms = db.create_object("Data", "Alarms")
    handler = db.create_object("Action", "AlarmHandler")
    handler.add_sub_object("Description", "Handles alarms")
    db.relate("Read", {"from": alarms, "by": handler})
    text = alarms.add_sub_object("Text")
    body = text.add_sub_object("Body")
    body.add_sub_object(
        "Contents", "Alarms are represented in an alarm display matrix"
    )
    body.add_sub_object("Keywords", "Alarmhandling")
    body.add_sub_object("Keywords", "Display")
    text.add_sub_object("Selector", "Representation")
    return db


@pytest.fixture
def spades_tool():
    """An empty SPADES workspace."""
    return SpadesTool("test")


@pytest.fixture
def alarm_tool(spades_tool):
    """A small alarm-system specification in a SPADES workspace."""
    tool = spades_tool
    tool.declare_action("AlarmHandler", "Handles alarms")
    tool.declare_action("Sensor", "Reads hardware sensors")
    tool.declare_action("OperatorAlert", "Alerts the operator")
    tool.declare_data("ProcessData", direction="input")
    tool.declare_data("Alarms")
    tool.read_flow("ProcessData", "AlarmHandler")
    tool.note_dataflow("Alarms", "AlarmHandler")
    tool.decompose("AlarmHandler", "OperatorAlert")
    tool.trigger("AlarmHandler", "OperatorAlert")
    return tool


@pytest.fixture
def spades_db():
    """An empty database over the SPADES schema."""
    return SeedDatabase(spades_schema(), "spades-test")


def load_query_mix_smoke(tool: SpadesTool) -> SpadesTool:
    """Build into *tool* what the ``query_mix`` benchmark builds, at the
    benchmark's smoke size: the generated specification in one bulk
    batch, then 64 modules and an allocation per action one by one."""
    shape = SpecShape(
        actions=300, data=60, flows=240, notes_per_item=0.0, keywords_per_data=0.0
    )
    spec = generate_spec(shape, seed=3)
    load_into_spades(spec, tool)
    rng = random.Random("3:query.modules")
    modules = [f"Module{index}" for index in range(64)]
    for module in modules:
        tool.declare_module(module, "Ada")
    for action in rng.sample(spec.action_names, len(spec.action_names)):
        tool.allocate(action, rng.choice(modules))
    return tool


@pytest.fixture
def query_mix_smoke():
    """:func:`load_query_mix_smoke`, for a test that brings its own tool."""
    return load_query_mix_smoke


@pytest.fixture
def query_mix_smoke_db():
    """A ``query_mix``-shaped database (see :func:`load_query_mix_smoke`)."""
    return load_query_mix_smoke(SpadesTool("released")).db
