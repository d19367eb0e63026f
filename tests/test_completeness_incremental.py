"""Incremental completeness vs. the seed's full scan — equivalence forever.

``SeedDatabase.check_completeness`` assembles its report from a
per-item gap map maintained through every mutation path, on rules
compiled once per schema element; ``check_completeness_scan`` is the
retained seed implementation, which re-derives the rules for every
item. These property tests drive randomized mutation sequences —
creations, deletions, renames, reclassification, pattern
marking/inheritance, transactions (committed and rolled back), version
selection, schema migration — and assert at every step that the
maintained report equals the scan as a multiset and a freshly primed
engine's report as an ordered list.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SeedDatabase, figure2_schema, figure3_schema
from repro.core.cardinality import Cardinality
from repro.core.completeness import CompletenessEngine
from repro.core.errors import SeedError
from repro.core.schema import set_covering
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import specialize
from repro.core.values import STRING
from repro.spades import spades_schema


def gap_multiset(report):
    """Order-insensitive, comparable form of a report."""
    return sorted(
        (gap.kind, gap.item, gap.element, gap.message) for gap in report.gaps
    )


def assert_equivalent(db, context=""):
    report = db.check_completeness()
    incremental = gap_multiset(report)
    scan = gap_multiset(db.check_completeness_scan())
    assert incremental == scan, (
        f"incremental completeness diverged from the full scan {context}:\n"
        f"  incremental only: {[g for g in incremental if g not in scan]}\n"
        f"  scan only:        {[g for g in scan if g not in incremental]}"
    )
    # order too: a stale assembled list or a broken key order would
    # pass the multiset comparison above
    fresh = CompletenessEngine(db).check_database()
    assert report.gaps == fresh.gaps, (
        f"maintained report is not the freshly primed one, in order {context}"
    )


class TestBasicIncrements:
    def test_empty_database(self, fig2_db):
        assert_equivalent(fig2_db)
        assert fig2_db.check_completeness().is_complete

    def test_gap_appears_and_heals(self, fig2_db):
        data = fig2_db.create_object("Data", "Alarms")
        text = data.add_sub_object("Text")
        assert_equivalent(fig2_db)  # Body missing, Read missing
        report = fig2_db.check_completeness()
        assert report.by_kind("sub-object-minimum")
        body = text.add_sub_object("Body")
        assert_equivalent(fig2_db)
        body.add_sub_object("Contents", "alarm text")
        action = fig2_db.create_object("Action", "Handler")
        action.add_sub_object("Description", "handles")
        fig2_db.relate("Read", {"from": data, "by": action})
        fig2_db.relate("Write", {"to": data, "by": action})
        assert_equivalent(fig2_db)
        assert fig2_db.check_completeness().is_complete

    def test_undefined_value_tracks_set_value(self, fig2_db):
        data = fig2_db.create_object("Data", "D")
        body = data.add_sub_object("Text").add_sub_object("Body")
        contents = body.add_sub_object("Contents")
        assert_equivalent(fig2_db)
        assert fig2_db.check_completeness().by_kind("undefined-value")
        fig2_db.set_value(contents, "now defined")
        assert_equivalent(fig2_db)
        fig2_db.set_value(contents, None)
        assert_equivalent(fig2_db)
        assert fig2_db.check_completeness().by_kind("undefined-value")

    def test_relationship_minimum_tracks_deletion(self, fig2_db):
        data = fig2_db.create_object("Data", "D")
        action = fig2_db.create_object("Action", "A")
        rel = fig2_db.relate("Read", {"from": data, "by": action})
        assert_equivalent(fig2_db)
        fig2_db.delete(rel)
        assert_equivalent(fig2_db)
        assert any(gap.item == "D" for gap in fig2_db.check_completeness().gaps)

    def test_deleting_object_clears_its_gaps(self, fig2_db):
        data = fig2_db.create_object("Data", "D")
        fig2_db.check_completeness()  # prime with the gap present
        fig2_db.delete(data)
        assert_equivalent(fig2_db)
        assert not any(gap.item == "D" for gap in fig2_db.check_completeness().gaps)

    def test_rename_relabels_gaps(self, fig2_db):
        fig2_db.create_object("Data", "Before")
        fig2_db.check_completeness()
        fig2_db.rename(fig2_db.get_object("Before"), "After")
        assert_equivalent(fig2_db)
        report = fig2_db.check_completeness()
        assert any(gap.item == "After" for gap in report.gaps)
        assert not any(gap.item == "Before" for gap in report.gaps)

    def test_reclassify_and_covering(self, fig3_db):
        thing = fig3_db.create_object("Data", "Vague")
        fig3_db.check_completeness()
        fig3_db.reclassify(thing, "OutputData")
        assert_equivalent(fig3_db)

    def test_mandatory_attribute_gap(self, fig3_db):
        out = fig3_db.create_object("OutputData", "Out")
        action = fig3_db.create_object("Action", "A")
        rel = fig3_db.relate("Write", {"to": out, "by": action})
        assert_equivalent(fig3_db)
        assert fig3_db.check_completeness().by_kind("attribute-minimum")
        fig3_db.set_attribute(rel, "NumberOfWrites", 3)
        assert_equivalent(fig3_db)
        assert not fig3_db.check_completeness().by_kind("attribute-minimum")


class TestTransactionsAndBulkPaths:
    def test_rolled_back_transaction_changes_nothing(self, fig2_db):
        fig2_db.create_object("Data", "Keep")
        before = gap_multiset(fig2_db.check_completeness())
        with pytest.raises(RuntimeError, match="boom"):
            with fig2_db.transaction():
                fig2_db.create_object("Data", "Gone")
                raise RuntimeError("boom")
        assert gap_multiset(fig2_db.check_completeness()) == before
        assert_equivalent(fig2_db)

    def test_committed_transaction_marks_all_touched(self, fig2_db):
        with fig2_db.transaction():
            data = fig2_db.create_object("Data", "D")
            action = fig2_db.create_object("Action", "A")
            action.add_sub_object("Description", "d")
            fig2_db.relate("Read", {"from": data, "by": action})
        assert_equivalent(fig2_db)

    def test_version_select_invalidates(self, fig2_db):
        fig2_db.create_object("Data", "D")
        fig2_db.check_completeness()
        version = fig2_db.create_version()
        fig2_db.create_object("Data", "Later")
        fig2_db.create_version()
        fig2_db.select_version(version)
        assert_equivalent(fig2_db)
        assert not any(gap.item == "Later" for gap in fig2_db.check_completeness().gaps)

    def test_schema_migration_invalidates(self, fig2_db):
        fig2_db.create_object("Data", "D")
        fig2_db.check_completeness()
        fig2_db.migrate_schema(figure3_schema())
        assert_equivalent(fig2_db)

    def test_compiled_rules_follow_the_schema(self, fig3_db):
        # a migration that raises a dependent minimum and sets a
        # covering flag, then a version selection back across the
        # schema boundary: each report must come from the schema the
        # database holds at that moment, never from a cached table
        data = fig3_db.create_object("Data", "D")
        data.add_sub_object("Text").add_sub_object("Body").add_sub_object(
            "Contents", "c"
        )
        fig3_db.create_object("Action", "A").add_sub_object("Description", "d")
        assert_equivalent(fig3_db, "(before the migration)")
        before = fig3_db.create_version()
        stricter = fig3_db.schema.copy("stricter")
        stricter.entity_class("Data").dependent("Text").dependent(
            "Selector"
        ).cardinality = Cardinality.parse("1..1")
        set_covering(stricter.entity_class("Data"))
        fig3_db.migrate_schema(stricter)
        assert_equivalent(fig3_db, "(after the migration)")
        report = fig3_db.check_completeness()
        assert [g.item for g in report.by_kind("sub-object-minimum")] == ["D.Text[0]"]
        assert [g.item for g in report.by_kind("covering")] == ["D"]
        assert fig3_db.completeness._rules_schema is stricter  # noqa: SLF001
        fig3_db.create_version()
        fig3_db.create_object("Data", "Later")
        fig3_db.select_version(before, discard_changes=True)
        assert_equivalent(fig3_db, "(after selecting back across the boundary)")
        assert not any(gap.item == "Later" for gap in fig3_db.check_completeness().gaps)
        fig3_db.migrate_schema(figure3_schema())
        assert_equivalent(fig3_db, "(after migrating back)")
        report = fig3_db.check_completeness()
        assert not report.by_kind("sub-object-minimum")
        assert not report.by_kind("covering")

    def test_image_roundtrip(self, fig2_db):
        from repro.core.storage.serialize import (
            database_from_dict,
            database_to_dict,
        )

        fig2_db.create_object("Data", "D")
        fig2_db.check_completeness()
        loaded = database_from_dict(database_to_dict(fig2_db))
        assert_equivalent(loaded)
        assert gap_multiset(loaded.check_completeness()) == gap_multiset(
            fig2_db.check_completeness()
        )


class TestSchemaChangedInPlace:
    """A primed engine re-primes when the schema changes in place: the
    three in-place mutators only advance the schema generation."""

    @staticmethod
    def assert_report_is_scan(db):
        assert db.check_completeness().gaps == db.check_completeness_scan().gaps
        assert_equivalent(db)

    def test_add_dependent(self):
        db = SeedDatabase(spades_schema(), name="t")
        db.create_object("Action", "A1").add_sub_object("Description", "x")
        db.check_completeness()
        db.schema.entity_class("Action").add_dependent("Owner", "1..1", value_sort=STRING)
        db.create_object("Action", "A2").add_sub_object("Description", "y")
        self.assert_report_is_scan(db)
        owners = db.check_completeness().by_kind("sub-object-minimum")
        assert [(gap.item, gap.element) for gap in owners] == [
            ("A1", "Action.Owner"), ("A2", "Action.Owner"),
        ]

    def test_specialize(self, fig2_db):
        db = fig2_db
        named = db.schema.add_class(EntityClass("Named"))
        named.add_dependent("Label", "1..1", value_sort=STRING)
        action = db.create_object("Action", "A1")
        action.add_sub_object("Description", "x")
        assert not db.check_completeness().by_kind("sub-object-minimum")
        specialize(named, db.schema.entity_class("Action"))
        self.assert_report_is_scan(db)
        assert [gap.element for gap in db.check_completeness().by_kind(
            "sub-object-minimum"
        )] == ["Named.Label"]

    def test_specialize_widens_a_covering(self):
        db = SeedDatabase(spades_schema(), name="t")
        db.create_object("Thing", "T1")
        db.create_object("Module", "M1")
        before = db.check_completeness().by_kind("covering")
        assert before[0].message.endswith("(to one of: Data, Action, Module)")
        interface = db.schema.add_class(EntityClass("Interface"))
        specialize(db.schema.entity_class("Thing"), interface)
        db.create_object("Thing", "T2")
        self.assert_report_is_scan(db)
        assert [gap.message[-len("Module, Interface)"):] for gap in db.check_completeness()
                .by_kind("covering")] == ["Module, Interface)", "Module, Interface)"]


class TestAssembledReportCache:
    """A clean call copies the assembled gap list; every path that
    changes the gap map drops it."""

    @staticmethod
    def warm(db):
        db.create_object("Data", "Kept")
        first = db.check_completeness()
        assert db.completeness.dirty_count() == 0
        return first

    def test_clean_calls_return_equal_but_distinct_lists(self, fig2_db):
        first = self.warm(fig2_db)
        second = fig2_db.check_completeness()
        assert second.gaps == first.gaps and second.gaps
        assert second.gaps is not first.gaps
        # a caller may do what it likes with its report
        first.gaps.clear()
        second.gaps.reverse()
        third = fig2_db.check_completeness()
        assert gap_multiset(third) == gap_multiset(fig2_db.check_completeness_scan())

    def test_commit_after_cache(self, fig2_db):
        self.warm(fig2_db)
        with fig2_db.transaction():
            fig2_db.create_object("Data", "Added")
        assert any(gap.item == "Added" for gap in fig2_db.check_completeness().gaps)
        assert_equivalent(fig2_db, "after a commit on a cached report")
        fig2_db.delete(fig2_db.get_object("Added"))
        assert not any(gap.item == "Added" for gap in fig2_db.check_completeness().gaps)
        assert_equivalent(fig2_db, "after healing a cached report")

    def test_rollback_after_cache(self, fig2_db):
        before = gap_multiset(self.warm(fig2_db))
        with pytest.raises(RuntimeError, match="boom"):
            with fig2_db.transaction():
                fig2_db.create_object("Data", "Gone")
                raise RuntimeError("boom")
        assert gap_multiset(fig2_db.check_completeness()) == before
        assert_equivalent(fig2_db, "after a rollback on a cached report")

    def test_bulk_finalize_after_cache(self, fig2_db):
        self.warm(fig2_db)
        with fig2_db.bulk():
            fig2_db.create_object("Data", "Batched")
            # read-your-writes inside the batch: the scan answers
            assert any(gap.item == "Batched" for gap in fig2_db.check_completeness().gaps)
        assert any(gap.item == "Batched" for gap in fig2_db.check_completeness().gaps)
        assert_equivalent(fig2_db, "after a bulk finalize on a cached report")

    def test_schema_migration_after_cache(self, fig2_db):
        self.warm(fig2_db)
        fig2_db.migrate_schema(figure3_schema())
        assert_equivalent(fig2_db, "after a migration on a cached report")
        fig2_db.create_object("OutputData", "Out")
        assert any(gap.item == "Out" for gap in fig2_db.check_completeness().gaps)
        assert_equivalent(fig2_db)


class TestPatterns:
    def test_pattern_content_invisible_until_inherited(self, fig2_db):
        pattern = fig2_db.create_object("Data", "Template", pattern=True)
        fig2_db.check_completeness()
        text = pattern.add_sub_object("Text")
        assert_equivalent(fig2_db)  # pattern context: no gaps of its own
        inheritor = fig2_db.create_object("Data", "Real")
        fig2_db.check_completeness()
        fig2_db.inherit(pattern, inheritor)
        assert_equivalent(fig2_db)
        # updating the pattern propagates to the inheritor's gaps
        text.add_sub_object("Body")
        assert_equivalent(fig2_db)
        fig2_db.uninherit(pattern, inheritor)
        assert_equivalent(fig2_db)

    def test_inheritor_set_change_updates_pattern_neighbours(self, fig2_db):
        # X (Data) is bound at Read's 1..* role by a pattern
        # relationship to pattern P (Action); X's effective count is
        # one per inheritor of P (virtual expansion), so
        # inherit/uninherit must re-derive X, not just the inheritor
        pattern = fig2_db.create_object("Action", "P", pattern=True)
        x = fig2_db.create_object("Data", "X")
        fig2_db.relate("Read", {"from": x, "by": pattern})
        fig2_db.check_completeness()  # prime: X lacks the participation
        assert any(gap.item == "X" for gap in fig2_db.check_completeness().gaps)
        inheritor = fig2_db.create_object("Action", "I")
        inheritor.add_sub_object("Description", "d")
        fig2_db.check_completeness()
        fig2_db.inherit(pattern, inheritor)
        assert_equivalent(fig2_db, "(after inherit)")
        read_gaps = [
            gap
            for gap in fig2_db.check_completeness().gaps
            if gap.item == "X" and gap.element == "Read"
        ]
        assert not read_gaps  # the virtual participation fills the minimum
        fig2_db.uninherit(pattern, inheritor)
        assert_equivalent(fig2_db, "(after uninherit)")
        # X's gap is back — a stale map here would falsely report it filled
        assert any(
            gap.item == "X" and gap.element == "Read"
            for gap in fig2_db.check_completeness().gaps
        )

    def test_deleting_inheritor_updates_pattern_neighbours(self, fig2_db):
        pattern = fig2_db.create_object("Action", "P", pattern=True)
        x = fig2_db.create_object("Data", "X")
        fig2_db.relate("Read", {"from": x, "by": pattern})
        inheritor = fig2_db.create_object("Action", "I")
        inheritor.add_sub_object("Description", "d")
        fig2_db.inherit(pattern, inheritor)
        fig2_db.check_completeness()  # prime with the participation filled
        fig2_db.delete(inheritor)
        assert_equivalent(fig2_db, "(after deleting the inheritor)")
        assert any(
            gap.item == "X" and gap.element == "Read"
            for gap in fig2_db.check_completeness().gaps
        )

    def test_mark_and_unmark_pattern(self, fig2_db):
        data = fig2_db.create_object("Data", "D")
        fig2_db.check_completeness()
        fig2_db.mark_pattern(data)
        assert_equivalent(fig2_db)  # gaps vanish with pattern status
        assert not any(gap.item == "D" for gap in fig2_db.check_completeness().gaps)
        fig2_db.unmark_pattern(data)
        assert_equivalent(fig2_db)
        assert any(gap.item == "D" for gap in fig2_db.check_completeness().gaps)


# ---------------------------------------------------------------------------
# randomized property test
# ---------------------------------------------------------------------------


def random_step(db: SeedDatabase, rng: random.Random, counter: list[int]) -> None:
    """One random mutation; consistency violations are acceptable no-ops."""
    objects = [o for o in db.objects(include_patterns=True) if o.parent is None]
    roll = rng.random()
    try:
        if roll < 0.3 or not objects:
            counter[0] += 1
            db.create_object(
                rng.choice(["Data", "Action"]),
                f"Obj{counter[0]}",
                pattern=rng.random() < 0.15,
            )
        elif roll < 0.45:
            target = rng.choice(objects)
            if target.class_name == "Data":
                if len(target.sub_objects("Text")) < 16:
                    target.add_sub_object("Text")
            elif not target.sub_objects("Description"):
                target.add_sub_object("Description", "described")
        elif roll < 0.55:
            texts = [
                t
                for o in objects
                if o.class_name == "Data"
                for t in o.sub_objects("Text")
            ]
            if texts:
                text = rng.choice(texts)
                if not text.sub_objects("Body"):
                    body = text.add_sub_object("Body")
                    if rng.random() < 0.5:
                        body.add_sub_object("Contents", "filled")
        elif roll < 0.68:
            data = [o for o in objects if o.class_name == "Data"]
            actions = [o for o in objects if o.class_name == "Action"]
            if data and actions:
                db.relate(
                    rng.choice(["Read", "Write"]),
                    {"from" if rng.random() < 0.5 else "to": rng.choice(data),
                     "by": rng.choice(actions)},
                )
        elif roll < 0.78:
            rels = db.relationships(include_patterns=True)
            if rels:
                db.delete(rng.choice(rels))
        elif roll < 0.88:
            if objects:
                db.delete(rng.choice(objects))
        elif roll < 0.94:
            if objects:
                counter[0] += 1
                db.rename(rng.choice(objects), f"Renamed{counter[0]}")
        else:
            patterns = [o for o in objects if o.is_pattern]
            normals = [o for o in objects if not o.is_pattern]
            if patterns and normals:
                db.inherit(rng.choice(patterns), rng.choice(normals))
    except SeedError:
        pass  # rejected updates must leave the report unchanged


@pytest.mark.parametrize("seed", range(10))
def test_randomized_mutations_stay_equivalent(seed):
    rng = random.Random(seed)
    db = SeedDatabase(figure2_schema(), f"prop-{seed}")
    counter = [0]
    db.check_completeness()  # prime early so increments carry the weight
    for step in range(60):
        random_step(db, rng, counter)
        assert_equivalent(db, context=f"(seed {seed}, step {step})")
        if rng.random() < 0.08:
            db.create_version()
        if rng.random() < 0.04 and len(db.saved_versions()) > 1:
            db.select_version(
                rng.choice(db.saved_versions()), discard_changes=True
            )
            assert_equivalent(db, context=f"(seed {seed}, after select)")
    assert_equivalent(db, context=f"(seed {seed}, final)")


def test_relate_with_wrong_role_fails_cleanly(fig2_db):
    # the random generator above sometimes produces a Read with role
    # "to"; make the expected failure mode explicit
    data = fig2_db.create_object("Data", "D")
    action = fig2_db.create_object("Action", "A")
    with pytest.raises(SeedError):
        fig2_db.relate("Read", {"to": data, "by": action})
    assert_equivalent(fig2_db)


# ---------------------------------------------------------------------------
# narrowed inheritor fan-out (PR 4)
# ---------------------------------------------------------------------------


class TestNarrowedPatternFanOut:
    """Value updates inside a pattern must not dirty inheritor trees."""

    def _inherited_setup(self, db):
        pattern = db.create_object("Data", "Template", pattern=True)
        contents = (
            pattern.add_sub_object("Text")
            .add_sub_object("Body")
            .add_sub_object("Contents", "boilerplate")
        )
        inheritors = []
        for i in range(3):
            inheritor = db.create_object("Data", f"Spec{i}")
            db.inherit(pattern, inheritor)
            inheritors.append(inheritor)
        db.check_completeness()  # prime and settle the dirty set
        return pattern, contents, inheritors

    def test_value_update_in_pattern_skips_inheritors(self, fig2_db):
        pattern, contents, inheritors = self._inherited_setup(fig2_db)
        fig2_db.set_value(contents, "changed boilerplate")
        dirty = set(fig2_db.completeness._dirty)  # noqa: SLF001
        for inheritor in inheritors:
            assert ("o", inheritor.oid) not in dirty, (
                "a value-only pattern update must not re-derive "
                "inheritor sub-trees"
            )
        assert_equivalent(fig2_db, "(after pattern value update)")

    def test_structural_pattern_change_still_fans_out(self, fig2_db):
        pattern, contents, inheritors = self._inherited_setup(fig2_db)
        pattern.add_sub_object("Text")  # structure: inheritor counts change
        dirty = set(fig2_db.completeness._dirty)  # noqa: SLF001
        for inheritor in inheritors:
            assert ("o", inheritor.oid) in dirty
        assert_equivalent(fig2_db, "(after pattern structure change)")

    def test_pattern_sub_object_delete_fans_out(self, fig2_db):
        pattern, contents, inheritors = self._inherited_setup(fig2_db)
        fig2_db.delete(pattern.sub_object("Text"))
        dirty = set(fig2_db.completeness._dirty)  # noqa: SLF001
        for inheritor in inheritors:
            assert ("o", inheritor.oid) in dirty
        assert_equivalent(fig2_db, "(after pattern sub-tree delete)")

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_pattern_value_churn(self, seed):
        """Heavy value flips on shared pattern content stay equivalent."""
        rng = random.Random(seed)
        db = SeedDatabase(figure2_schema(), f"narrow-{seed}")
        patterns = []
        for p in range(3):
            pattern = db.create_object("Data", f"Template{p}", pattern=True)
            body = pattern.add_sub_object("Text").add_sub_object("Body")
            body.add_sub_object("Contents", f"content {p}")
            patterns.append(pattern)
        for i in range(8):
            inheritor = db.create_object("Data", f"Spec{i}")
            db.inherit(rng.choice(patterns), inheritor)
        db.check_completeness()
        flips = 0
        for step in range(40):
            pattern = rng.choice(patterns)
            contents = pattern.sub_object("Text").sub_object("Body").sub_object("Contents")
            flips += 1
            db.set_value(
                contents, None if flips % 3 == 0 else f"flip {flips}"
            )
            if rng.random() < 0.2:
                # occasional structural change keeps the gating honest
                target = rng.choice(patterns)
                if len(target.sub_objects("Text")) < 4:
                    target.add_sub_object("Text")
            assert_equivalent(db, f"(seed {seed}, step {step})")
        assert_equivalent(db, f"(seed {seed}, final)")


# ---------------------------------------------------------------------------
# the dirty fan-out follows only what a touch can change
# ---------------------------------------------------------------------------


def dirty_keys(db):
    return set(db.completeness._dirty)  # noqa: SLF001


class TestDirtyFanOut:
    """Only a relationship's own create/delete/reclassify, a pattern
    flip or an inherits-link change reaches across a relationship."""

    K = 4

    def test_annotating_an_action_dirties_the_sub_object_and_parent(self, fig2_db):
        action = fig2_db.create_object("Action", "A")
        for i in range(self.K):
            fig2_db.relate(
                "Read", {"from": fig2_db.create_object("Data", f"D{i}"), "by": action}
            )
        fig2_db.check_completeness()
        description = action.add_sub_object("Description", "annotated")
        assert dirty_keys(fig2_db) == {("o", description.oid), ("o", action.oid)}
        assert_equivalent(fig2_db, "(after annotating)")

    def test_reclassifying_dirties_the_object_and_its_relationships(self, fig3_db):
        data = fig3_db.create_object("Data", "D")
        flows, actions = [], []
        for i in range(self.K):
            action = fig3_db.create_object("Action", f"A{i}")
            actions.append(action)
            flows.append(fig3_db.relate("Access", data=data, by=action))
        fig3_db.check_completeness()
        fig3_db.reclassify(data, "InputData")
        dirty = dirty_keys(fig3_db)
        assert dirty == {("o", data.oid)} | {("r", rel.rid) for rel in flows}
        assert not dirty & {("o", action.oid) for action in actions}
        assert_equivalent(fig3_db, "(after reclassifying)")

    def test_relationship_reclassification_dirties_its_endpoints(self, fig3_db):
        data = fig3_db.create_object("InputData", "D")
        action = fig3_db.create_object("Action", "A")
        access = fig3_db.relate("Access", data=data, by=action)
        fig3_db.check_completeness()
        fig3_db.reclassify(access, "Read")
        assert dirty_keys(fig3_db) == {
            ("r", access.rid), ("o", data.oid), ("o", action.oid)
        }
        assert_equivalent(fig3_db, "(after reclassifying the relationship)")

    def test_attribute_update_dirties_only_the_relationship(self, fig3_db):
        out = fig3_db.create_object("OutputData", "Out")
        action = fig3_db.create_object("Action", "A")
        write = fig3_db.relate("Write", {"to": out, "by": action})
        fig3_db.check_completeness()
        write.set_attribute("NumberOfWrites", 2)
        assert dirty_keys(fig3_db) == {("r", write.rid)}
        assert_equivalent(fig3_db, "(after setting an attribute)")

    def test_pattern_flip_still_reaches_the_far_endpoints(self, fig2_db):
        data = fig2_db.create_object("Data", "D")
        text = data.add_sub_object("Text")
        actions = [fig2_db.create_object("Action", f"A{i}") for i in range(self.K)]
        flows = [fig2_db.relate("Read", {"from": data, "by": a}) for a in actions]
        fig2_db.check_completeness()
        fig2_db.mark_pattern(data)
        dirty = dirty_keys(fig2_db)
        assert {("o", data.oid), ("o", text.oid)} <= dirty
        assert {("r", rel.rid) for rel in flows} <= dirty
        assert {("o", action.oid) for action in actions} <= dirty
        assert_equivalent(fig2_db, "(after marking a pattern)")

    def test_rename_re_renders_the_whole_sub_tree(self, fig2_db):
        data = fig2_db.create_object("Data", "Before")
        text = data.add_sub_object("Text")
        body = text.add_sub_object("Body")
        contents = body.add_sub_object("Contents")  # undefined value
        fig2_db.check_completeness()
        fig2_db.rename(data, "After")
        assert {
            ("o", node.oid) for node in (data, text, body, contents)
        } <= dirty_keys(fig2_db)
        assert_equivalent(fig2_db, "(after a rename)")
        items = {gap.item for gap in fig2_db.check_completeness()}
        assert "After.Text[0].Body.Contents" in items
        assert not any(item.startswith("Before") for item in items)


# ---------------------------------------------------------------------------
# randomized property test over figure 3: reclassification, covering,
# attributes, pattern marks, transactions
# ---------------------------------------------------------------------------

_FIG3_REFINEMENTS = {
    "Thing": ["Data", "Action"],
    "Data": ["InputData", "OutputData"],
    "Access": ["Read", "Write"],
}


def random_step_fig3(db: SeedDatabase, rng: random.Random, counter: list[int]) -> None:
    """One random figure-3 mutation; rejected updates are no-ops."""
    objects = [o for o in db.objects(include_patterns=True) if o.parent is None]
    relationships = db.relationships(include_patterns=True)
    data = [o for o in objects if o.is_instance_of("Data")]
    actions = [o for o in objects if o.is_instance_of("Action")]
    roll = rng.random()
    try:
        if roll < 0.22 or not objects:
            counter[0] += 1
            db.create_object(
                rng.choice(["Thing", "Data", "InputData", "OutputData", "Action"]),
                f"Obj{counter[0]}",
                pattern=rng.random() < 0.1,
            )
        elif roll < 0.34:
            target = rng.choice(objects)
            if target.is_instance_of("Action"):
                if not target.sub_objects("Description"):
                    target.add_sub_object("Description", "described")
            elif target.is_instance_of("Data"):
                if len(target.sub_objects("Text")) < 3:
                    body = target.add_sub_object("Text").add_sub_object("Body")
                    if rng.random() < 0.5:
                        body.add_sub_object("Contents", "filled")
        elif roll < 0.5:
            if data and actions:
                datum, action = rng.choice(data), rng.choice(actions)
                association = rng.choice(
                    {"InputData": ["Access", "Read"], "OutputData": ["Access", "Write"]}
                    .get(datum.class_name, ["Access"])
                )
                role = {"Access": "data", "Read": "from", "Write": "to"}[association]
                attributes = (
                    {"NumberOfWrites": 1}
                    if association == "Write" and rng.random() < 0.5
                    else None
                )
                db.relate(
                    association, {role: datum, "by": action}, attributes=attributes
                )
        elif roll < 0.56:
            writes = [r for r in relationships if r.association.name == "Write"]
            if writes:
                db.set_attribute(
                    rng.choice(writes), "NumberOfWrites", rng.randint(1, 3)
                )
        elif roll < 0.7:
            refinable = {
                item: _FIG3_REFINEMENTS[name]
                for item in objects + relationships
                if (name := getattr(item, "class_name", None) or item.association.name)
                in _FIG3_REFINEMENTS
            }
            if refinable:
                item = rng.choice(list(refinable))
                with db.transaction():
                    db.reclassify(item, rng.choice(refinable[item]))
                    if rng.random() < 0.3:
                        raise RuntimeError("roll the refinement back")
        elif roll < 0.78:
            item = rng.choice(objects)
            if item.is_pattern:
                db.unmark_pattern(item)
            else:
                db.mark_pattern(item)
        elif roll < 0.84:
            patterns = [o for o in objects if o.is_pattern]
            normals = [o for o in objects if not o.is_pattern]
            if patterns and normals:
                pattern, inheritor = rng.choice(patterns), rng.choice(normals)
                if pattern.oid in inheritor.inherited_patterns:
                    db.uninherit(pattern, inheritor)
                else:
                    db.inherit(pattern, inheritor)
        elif roll < 0.92:
            if relationships and rng.random() < 0.7:
                db.delete(rng.choice(relationships))
            else:
                db.delete(rng.choice(objects))
        else:
            counter[0] += 1
            db.rename(rng.choice(objects), f"Renamed{counter[0]}")
    except (SeedError, RuntimeError):
        pass


@pytest.mark.parametrize("seed", range(8))
def test_randomized_figure3_mutations_stay_equivalent(seed):
    rng = random.Random(seed)
    db = SeedDatabase(figure3_schema(), f"fig3-prop-{seed}")
    counter = [0]
    db.check_completeness()
    for step in range(70):
        random_step_fig3(db, rng, counter)
        assert_equivalent(db, context=f"(seed {seed}, step {step})")
        if rng.random() < 0.06:
            db.create_version()
        if rng.random() < 0.03 and len(db.saved_versions()) > 1:
            db.select_version(rng.choice(db.saved_versions()), discard_changes=True)
            assert_equivalent(db, context=f"(seed {seed}, after select)")
