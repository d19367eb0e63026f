"""The compiled gap kernel vs. the seed's rule-walking derivation.

One kernel per class serves the prime, the refresh and ``object_gaps``:
an object without pattern influence has its own children counted in
place, its participations read from the index maps and, when it is an
independent unindexed object, its simple name used as its dotted name.
``check_database_scan`` re-derives every rule from the schema for every
item. They must agree, gap for gap and in order, wherever the kernel
runs: on the pattern fixtures, on a ``query_mix``-shaped database,
after reopening a journal and after ``invalidate()``.
"""

from __future__ import annotations

import pytest

from repro.core import SeedDatabase
from repro.core.completeness import CompletenessEngine
from repro.core.storage import JournaledDatabase
from repro.core.variants import VariantFamily
from repro.spades import SpadesTool, spades_schema


def assert_kernel_is_scan(db: SeedDatabase, context: str = "") -> None:
    """Prime, refresh and per-item kernels against the scan, in order."""
    scan = db.check_completeness_scan().gaps
    assert db.check_completeness().gaps == scan, f"maintained report {context}"
    assert CompletenessEngine(db).check_database().gaps == scan, f"prime {context}"
    engine = db.completeness
    for obj in db.all_objects_raw():
        assert engine.object_gaps(obj) == engine.object_gaps_scan(obj), (
            f"object_gaps of {obj!r} {context}"
        )
    for rel in db.all_relationships_raw():
        assert engine.relationship_gaps(rel) == engine.relationship_gaps_scan(rel), (
            f"relationship_gaps of {rel!r} {context}"
        )


def assert_simple_names(db: SeedDatabase) -> None:
    """The premise of the kernel's name shortcut."""
    for obj in db.all_objects_raw():
        if obj.parent is None and obj.index is None:
            assert obj.simple_name == str(obj.name)


@pytest.fixture
def figure5_db():
    """Figure 5: a variant family whose common part is shared through
    pattern relationships, a pattern sub-object (the deadline example),
    a pattern relationship to data, and plain items beside them."""
    db = SeedDatabase(spades_schema(), "figure5")
    kernel = db.create_object("Module", "Kernel")
    logging = db.create_object("Module", "Logging")
    family = VariantFamily(db, "Config", variant_class="Action")
    family.add_shared_relationship("AllocatedTo", {"module": kernel}, variant_role="action")
    family.add_shared_relationship("AllocatedTo", {"module": logging}, variant_role="action")
    family.add_shared_sub_object("Description", "shared description")
    alpine = db.create_object("Action", "AlpineConfig")
    desert = db.create_object("Action", "DesertConfig")
    desert.add_sub_object("Note", "its own note, beside the shared description")
    family.add_variant(alpine)
    family.add_variant(desert)
    # a pattern action that reads data: every inheritor reads it too
    reader = db.create_object("Action", "ReaderPattern", pattern=True)
    alarms = db.create_object("InputData", "Alarms")
    db.relate("Read", {"from": alarms, "by": reader}, pattern=True)
    worker = db.create_object("Action", "Worker")
    db.inherit(reader, worker)
    plain = db.create_object("Action", "Plain")
    plain.add_sub_object("Note", "no description yet")
    db.create_object("Thing", "Vague")
    return db, family, reader, worker


class TestPatternFixtures:
    def test_figure5(self, figure5_db):
        db, *__ = figure5_db
        assert_kernel_is_scan(db, "(figure 5)")
        assert_simple_names(db)

    def test_inheritors_come_and_go(self, figure5_db):
        db, family, reader, worker = figure5_db
        late = db.create_object("Action", "LateConfig")
        family.add_variant(late)
        assert_kernel_is_scan(db, "(a variant added)")
        db.uninherit(reader, worker)
        assert_kernel_is_scan(db, "(an inheritor left)")
        db.delete(db.get_object("DesertConfig"))
        assert_kernel_is_scan(db, "(an inheritor deleted)")

    def test_pattern_relationships_and_content_change(self, figure5_db):
        db, family, reader, worker = figure5_db
        extra = db.create_object("OutputData", "Report")
        db.relate("Write", {"to": extra, "by": reader}, pattern=True)
        assert_kernel_is_scan(db, "(a pattern relationship added)")
        pattern = family.pattern_objects[-1]
        db.delete(pattern.sub_object("Description"))
        assert_kernel_is_scan(db, "(a shared sub-object deleted)")
        db.unmark_pattern(db.create_object("Action", "Loose", pattern=True))
        assert_kernel_is_scan(db, "(a pattern unmarked)")

    def test_dependent_names_are_rendered_in_full(self, figure5_db):
        db, *__ = figure5_db
        data = db.create_object("Data", "Notes")
        text = data.add_sub_object("Text")
        text.add_sub_object("Body")  # Body.Contents is missing
        data.add_sub_object("Text")  # a second, indexed Text without a Body
        assert_kernel_is_scan(db, "(dependent gaps)")
        items = {gap.item for gap in db.check_completeness()}
        assert {"Notes.Text[0].Body", "Notes.Text[1]"} <= items


def test_query_mix_database(query_mix_smoke_db):
    db = query_mix_smoke_db
    assert_kernel_is_scan(db, "(query_mix)")
    assert_simple_names(db)
    assert len(db.check_completeness()) > 0


def test_after_journal_open(tmp_path, query_mix_smoke):
    path = tmp_path / "spec.seed"
    journal = JournaledDatabase.open(path, schema=spades_schema(), name="spec")
    query_mix_smoke(SpadesTool(db=journal.db))
    journal.checkpoint()
    journal.db.create_object("Action", "AfterTheImage")  # replayed as a delta
    reopened = JournaledDatabase.open(path)
    assert_kernel_is_scan(reopened.db, "(after open)")
    assert_simple_names(reopened.db)
    gaps = reopened.db.check_completeness().gaps
    assert any(gap.item == "AfterTheImage" for gap in gaps)


def test_after_invalidate(figure5_db):
    db, family, reader, worker = figure5_db
    db.check_completeness()
    db.completeness.invalidate()
    assert_kernel_is_scan(db, "(after invalidate)")
    db.create_object("Action", "Fresh")
    db.completeness.invalidate()
    db.relate("Read", {"from": db.get_object("Alarms"), "by": db.get_object("Fresh")})
    assert_kernel_is_scan(db, "(edits after invalidate)")


def test_the_kernel_counts_only_live_own_children(figure5_db):
    db, *__ = figure5_db
    action = db.create_object("Action", "Counted")
    description = action.add_sub_object("Description", "d")
    db.check_completeness()
    db.delete(description)
    gaps = db.check_completeness().gaps
    assert [gap.kind for gap in gaps if gap.item == "Counted"] == [
        "sub-object-minimum", "relationship-minimum",
    ]
    assert_kernel_is_scan(db, "(a tombstoned child)")
