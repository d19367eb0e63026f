"""Tests for the SPADES miniature: tool, text language, reports."""

import pytest

from repro.core import CompletenessError, SeedError
from repro.spades import (
    SpadesTool,
    parse_spec,
    print_spec,
    render_database_figure,
    render_object_tree,
    render_version_history,
    render_workspace_summary,
)

ALARM_SPEC = """
# Alarm system specification (paper running example)
thing Alarms "Alarms are represented in an alarm display matrix"
action AlarmHandler "Handles alarms"
action Sensor "Reads hardware sensors"
action OperatorAlert "Alerts the operator"
data ProcessData input
flow AlarmHandler ? Alarms
read Sensor <- ProcessData
contain AlarmHandler (OperatorAlert, Sensor)
trigger AlarmHandler => OperatorAlert
deadline Alarms 1986-06-01
"""


class TestTool:
    def test_vague_entry_and_refinement(self, spades_tool):
        tool = spades_tool
        tool.note_thing("Alarms", "vague note")
        tool.declare_action("Sensor", "senses")
        flow = tool.note_dataflow("Alarms", "Sensor")
        assert flow.association_name == "Access"
        # noting the dataflow refined the Thing to Data
        assert tool.db.get_object("Alarms").class_name == "Data"
        tool.refine_to_output("Alarms")
        assert tool.db.get_object("Alarms").class_name == "OutputData"
        assert flow.association_name == "Write"

    def test_refine_to_input_converts_flows(self, spades_tool):
        tool = spades_tool
        tool.declare_data("Status")
        tool.declare_action("Monitor", "monitors")
        flow = tool.note_dataflow("Status", "Monitor")
        tool.refine_to_input("Status")
        assert flow.association_name == "Read"
        assert tool.db.get_object("Status").class_name == "InputData"

    def test_refine_flow_with_detail(self, spades_tool):
        tool = spades_tool
        tool.declare_data("Out", direction="output")
        tool.declare_action("Writer", "writes")
        flow = tool.note_dataflow("Out", "Writer")
        tool.refine_flow_to_write(flow, times=2, error_handling="repeat")
        assert flow.attribute("NumberOfWrites") == 2
        assert flow.attribute("ErrorHandling") == "repeat"

    def test_refine_thing_to_action(self, spades_tool):
        tool = spades_tool
        tool.note_thing("Watchdog")
        tool.refine_to_action("Watchdog", "watches")
        obj = tool.db.get_object("Watchdog")
        assert obj.class_name == "Action"
        assert obj.sub_object("Description").value == "watches"

    def test_decompose_and_structure_report(self, alarm_tool):
        report = alarm_tool.structure_report()
        assert report == ["AlarmHandler", "  OperatorAlert", "Sensor"]

    def test_dataflow_report(self, alarm_tool):
        report = alarm_tool.dataflow_report()
        assert "? AlarmHandler accesses Alarms" in report
        assert "R AlarmHandler reads ProcessData" in report

    def test_allocate_to_module(self, alarm_tool):
        alarm_tool.declare_module("KernelModule", "Modula-2")
        alarm_tool.allocate("Sensor", "KernelModule")
        module = alarm_tool.db.get_object("KernelModule")
        assert [str(a.name) for a in module.related("AllocatedTo", "action")] == [
            "Sensor"
        ]

    def test_bad_direction(self, spades_tool):
        with pytest.raises(SeedError, match="unknown data direction"):
            spades_tool.declare_data("X", direction="sideways")


class TestSessions:
    def test_session_snapshots(self, alarm_tool):
        first = alarm_tool.begin_session()
        assert first is not None  # unsaved work existed
        alarm_tool.annotate("Alarms", "work during session")
        second = alarm_tool.end_session()
        assert second is not None
        assert len(alarm_tool.db.saved_versions()) == 2

    def test_empty_session_saves_nothing(self, alarm_tool):
        alarm_tool.begin_session()
        alarm_tool.end_session()  # snapshot of initial work only
        count = len(alarm_tool.db.saved_versions())
        alarm_tool.begin_session()
        assert alarm_tool.end_session() is None
        assert len(alarm_tool.db.saved_versions()) == count

    def test_double_begin_rejected(self, alarm_tool):
        alarm_tool.begin_session()
        with pytest.raises(SeedError, match="already open"):
            alarm_tool.begin_session()

    def test_end_without_begin_rejected(self, alarm_tool):
        with pytest.raises(SeedError, match="no session"):
            alarm_tool.end_session()

    def test_explore_alternative(self, alarm_tool):
        v_mid = alarm_tool.begin_session()  # snapshots the initial work
        alarm_tool.end_session()
        alarm_tool.annotate("Alarms", "later work")
        alarm_tool.explore_alternative(v_mid)
        # the later note is in a saved version, not in the working state
        alarms = alarm_tool.db.get_object("Alarms")
        notes = [n.value for n in alarms.sub_objects("Note")]
        assert "later work" not in notes

    def test_release_requires_completeness(self, alarm_tool):
        with pytest.raises(CompletenessError):
            alarm_tool.release()
        # complete the specification: every Data read and written at
        # least once, every Action accessing at least one Data
        tool = alarm_tool
        tool.refine_to_output("Alarms")
        tool.read_flow("Alarms", "OperatorAlert")
        tool.read_flow("ProcessData", "Sensor")
        tool.write_flow("ProcessData", "Sensor")
        version = tool.release()
        assert version in tool.db.saved_versions()


class TestTextIO:
    def test_parse_builds_workspace(self):
        tool = parse_spec(ALARM_SPEC)
        db = tool.db
        assert db.get_object("Alarms").class_name == "Data"
        assert db.get_object("ProcessData").class_name == "InputData"
        assert len(db.relationships("Access")) == 2
        assert len(db.relationships("Contained")) == 2

    def test_print_parse_stable(self):
        tool = parse_spec(ALARM_SPEC)
        text = print_spec(tool)
        again = parse_spec(text)
        assert print_spec(again) == text

    def test_syntax_error_reports_line(self):
        with pytest.raises(SeedError, match="line 2"):
            parse_spec("\nbogus statement here\n")

    def test_write_modifiers(self):
        tool = parse_spec(
            "data Out output\naction W \"writes\"\nwrite W -> Out x3 repeat\n"
        )
        write = tool.db.relationships("Write")[0]
        assert write.attribute("NumberOfWrites") == 3
        assert write.attribute("ErrorHandling") == "repeat"

    def test_bad_write_modifier(self):
        with pytest.raises(SeedError, match="unknown write modifier"):
            parse_spec("data Out output\naction W\nwrite W -> Out twice\n")

    def test_contain_requires_children(self):
        with pytest.raises(SeedError):
            parse_spec("action A\ncontain A ()\n")

    def test_note_and_deadline_roundtrip(self):
        tool = parse_spec(ALARM_SPEC)
        text = print_spec(tool)
        assert 'note Alarms "Alarms are represented' in text
        assert "deadline Alarms 1986-06-01" in text


class TestReports:
    def test_render_object_tree(self, alarm_tool):
        alarms = alarm_tool.db.get_object("Alarms")
        alarm_tool.db.create_sub_object(
            alarms.add_sub_object("Text"), "Selector", "Representation"
        )
        rendering = render_object_tree(alarms)
        assert rendering.splitlines()[0].startswith("Alarms: Data")
        assert any("Selector" in line for line in rendering.splitlines())

    def test_render_database_figure(self, alarm_tool):
        figure = render_database_figure(alarm_tool.db)
        assert "AlarmHandler" in figure
        assert "Access(" in figure
        assert "Contained(" in figure

    def test_render_version_history(self, alarm_tool):
        alarm_tool.db.create_version("1.0")
        alarm_tool.annotate("Alarms", "changed")
        alarm_tool.db.create_version("2.0")
        tree = render_version_history(alarm_tool.db)
        assert "1.0" in tree and "2.0" in tree
        cluster = render_version_history(alarm_tool.db, "Alarms")
        assert "Alarms @ 1.0" in cluster

    def test_render_workspace_summary(self, alarm_tool):
        summary = render_workspace_summary(alarm_tool)
        assert "completeness:" in summary
        assert "dataflows:" in summary
        assert "action structure:" in summary
