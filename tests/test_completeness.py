"""Tests for completeness analysis (checked on demand, never blocking)."""

import pytest

from repro.core import CompletenessError, SeedDatabase


class TestMinimumCardinalities:
    def test_missing_mandatory_relationship(self, fig2_db):
        # paper example (2): Alarms can be entered without its Read/Write
        # relationships — consistency allows it, completeness reports it
        fig2_db.create_object("Data", "Alarms")
        report = fig2_db.check_completeness()
        gaps = report.by_kind("relationship-minimum")
        assert {g.element for g in gaps} == {"Read", "Write"}

    def test_satisfied_after_relating(self, fig1_db):
        # fig1_db has the Read; Write is still missing
        report = fig1_db.check_completeness()
        assert [g.element for g in report.by_kind("relationship-minimum")] == [
            "Write"
        ]
        handler = fig1_db.get_object("AlarmHandler")
        alarms = fig1_db.get_object("Alarms")
        fig1_db.relate("Write", {"to": alarms, "by": handler})
        assert fig1_db.check_completeness().is_complete

    def test_missing_mandatory_sub_object(self, fig2_db):
        action = fig2_db.create_object("Action", "Bare")
        report = fig2_db.check_completeness()
        gaps = report.by_kind("sub-object-minimum")
        assert len(gaps) == 1
        assert gaps[0].element == "Action.Description"
        action.add_sub_object("Description", "now documented")
        assert not fig2_db.check_completeness().by_kind("sub-object-minimum")

    def test_mandatory_body_under_text(self, fig2_db):
        alarms = fig2_db.create_object("Data", "Alarms")
        text = alarms.add_sub_object("Text")
        report = fig2_db.check_completeness()
        assert any(
            g.element == "Data.Text.Body" for g in report.by_kind("sub-object-minimum")
        )

    def test_either_specialization_satisfies_general_minimum(self, fig3_db):
        # paper: "the cardinality 0..* of 'Read by' and 'Write by' allows
        # either a write or a read access to satisfy this condition"
        data = fig3_db.create_object("InputData", "In")
        action = fig3_db.create_object("Action", "Act")
        action.add_sub_object("Description", "x")
        report = fig3_db.check_completeness()
        assert any(
            g.element == "Access" and "by" in g.message
            for g in report.by_kind("relationship-minimum")
        )
        fig3_db.relate("Read", {"from": data, "by": action})
        report = fig3_db.check_completeness()
        assert not any(
            g.element == "Access" and g.item == "Act"
            for g in report.by_kind("relationship-minimum")
        )


class TestUndefinedValues:
    def test_undefined_leaf_reported(self, fig1_db):
        body = fig1_db.get_object("Alarms.Text.Body")
        undefined = body.add_sub_object("Keywords")  # no value
        report = fig1_db.check_completeness()
        gaps = report.by_kind("undefined-value")
        assert [g.item for g in gaps] == [str(undefined.name)]

    def test_defined_values_not_reported(self, fig1_db):
        assert not fig1_db.check_completeness().by_kind("undefined-value")


class TestCovering:
    def test_item_in_covering_class_reported(self, fig3_db):
        fig3_db.create_object("Thing", "Vague")
        report = fig3_db.check_completeness()
        gaps = report.by_kind("covering")
        assert len(gaps) == 1
        assert "must be specialized" in gaps[0].message

    def test_specialized_item_not_reported(self, fig3_db):
        obj = fig3_db.create_object("Thing", "Vague")
        obj.reclassify("Action")
        obj.add_sub_object("Description", "now an action")
        assert not fig3_db.check_completeness().by_kind("covering")

    def test_covering_association(self, fig3_db):
        data = fig3_db.create_object("Data", "D")
        action = fig3_db.create_object("Action", "A")
        action.add_sub_object("Description", "x")
        rel = fig3_db.relate("Access", data=data, by=action)
        report = fig3_db.check_completeness()
        assert any(
            g.element == "Access" for g in report.by_kind("covering")
        )
        with fig3_db.transaction():
            data.reclassify("InputData")
            rel.reclassify("Read")
        assert not fig3_db.check_completeness().by_kind("covering")


class TestMandatoryAttributes:
    def test_missing_mandatory_attribute(self, fig3_db):
        out = fig3_db.create_object("OutputData", "Out")
        action = fig3_db.create_object("Action", "A")
        action.add_sub_object("Description", "x")
        write = fig3_db.relate("Write", {"to": out, "by": action})
        report = fig3_db.check_completeness()
        gaps = report.by_kind("attribute-minimum")
        assert len(gaps) == 1
        assert "NumberOfWrites" in gaps[0].message
        write.set_attribute("NumberOfWrites", 2)
        assert not fig3_db.check_completeness().by_kind("attribute-minimum")


class TestReportApi:
    def test_summary_and_render(self, fig2_db):
        fig2_db.create_object("Data", "Alarms")
        report = fig2_db.check_completeness()
        assert "relationship-minimum: 2" in report.summary()
        assert "Alarms" in report.render()
        assert len(report) == 2
        assert list(report) == report.gaps

    def test_complete_summary(self, fig2_db):
        report = fig2_db.check_completeness()
        assert report.is_complete
        assert report.summary() == "complete"
        assert "no missing information" in report.render()

    def test_require_complete_raises_with_report(self, fig2_db):
        fig2_db.create_object("Data", "Alarms")
        with pytest.raises(CompletenessError) as excinfo:
            fig2_db.require_complete()
        assert excinfo.value.report is not None
        assert len(excinfo.value.report) == 2

    def test_require_complete_passes(self, fig2_db):
        fig2_db.require_complete()  # empty database is complete


class TestPatternsExempt:
    def test_patterns_not_checked(self, fig2_db):
        # an incomplete pattern produces no gaps until inherited
        fig2_db.create_object("Data", "Template", pattern=True)
        assert fig2_db.check_completeness().is_complete
