"""Tests for transactions: deferred checking, atomicity, rollback."""

from collections import Counter

import pytest

from repro.core import (
    ConsistencyError,
    SchemaError,
    SeedDatabase,
    SeedError,
    SeedObject,
    SeedRelationship,
    TransactionError,
    figure3_schema,
)
from repro.core.indexes import IndexLayer
from repro.core.storage import JournaledDatabase, database_to_dict


class TestDeferredChecking:
    def test_mutually_dependent_reclassification(self, fig3_db):
        # the paper's refinement needs both moves or neither:
        # Write.to requires OutputData
        alarms = fig3_db.create_object("Data", "Alarms")
        sensor = fig3_db.create_object("Action", "Sensor")
        sensor.add_sub_object("Description", "x")
        access = fig3_db.relate("Access", data=alarms, by=sensor)
        with pytest.raises(ConsistencyError):
            access.reclassify("Write")  # alone: Alarms is not OutputData
        with fig3_db.transaction():
            alarms.reclassify("OutputData")
            access.reclassify("Write")
        assert alarms.class_name == "OutputData"
        assert access.association_name == "Write"

    def test_transaction_commit_checks_everything(self, fig2_db):
        a = fig2_db.create_object("Action", "A")
        b = fig2_db.create_object("Action", "B")
        a.add_sub_object("Description", "x")
        b.add_sub_object("Description", "x")
        fig2_db.relate("Contained", contained=a, container=b)
        with pytest.raises(ConsistencyError):
            with fig2_db.transaction():
                fig2_db.relate("Contained", contained=b, container=a)
        # the whole transaction rolled back
        assert len(fig2_db.relationships("Contained")) == 1


class TestAtomicity:
    def test_failed_update_leaves_no_trace(self, fig2_db):
        before = fig2_db.statistics()
        with pytest.raises(ConsistencyError):
            fig2_db.relate  # noqa: B018 - just to have a line
            alarms = fig2_db.create_object("Data", "X")
            fig2_db.relate("Read", {"from": alarms, "by": alarms})
        # the object creation succeeded, the bad relate rolled back alone
        assert fig2_db.find_object("X") is not None
        assert fig2_db.relationships() == []
        assert fig2_db.statistics()["relationships"] == 0
        assert before["objects"] + 1 == fig2_db.statistics()["objects"]

    def test_exception_inside_transaction_rolls_back_all(self, fig2_db):
        with pytest.raises(RuntimeError):
            with fig2_db.transaction():
                fig2_db.create_object("Data", "A")
                fig2_db.create_object("Data", "B")
                raise RuntimeError("user code failed")
        assert fig2_db.find_object("A") is None
        assert fig2_db.find_object("B") is None
        assert fig2_db.statistics()["objects"] == 0

    def test_structural_error_in_transaction_undoes_that_op_only(self, fig2_db):
        with fig2_db.transaction():
            fig2_db.create_object("Data", "A")
            with pytest.raises(ConsistencyError):
                fig2_db.create_object("Data", "A")  # duplicate name
            fig2_db.create_object("Data", "B")
        assert fig2_db.find_object("A") is not None
        assert fig2_db.find_object("B") is not None
        assert fig2_db.statistics()["objects"] == 2

    def test_rollback_restores_values(self, fig1_db):
        selector = fig1_db.get_object("Alarms.Text.Selector")
        with pytest.raises(RuntimeError):
            with fig1_db.transaction():
                selector.set_value("Changed")
                raise RuntimeError()
        assert selector.value == "Representation"

    def test_rollback_restores_deletions(self, fig1_db):
        alarms = fig1_db.get_object("Alarms")
        with pytest.raises(RuntimeError):
            with fig1_db.transaction():
                fig1_db.delete(alarms)
                raise RuntimeError()
        assert fig1_db.find_object("Alarms") is not None
        assert fig1_db.get_object("Alarms.Text.Selector").value == "Representation"
        assert len(fig1_db.relationships("Read")) == 1

    def test_rollback_restores_dirty_tracking(self, fig2_db):
        fig2_db.create_object("Data", "Kept")
        fig2_db.create_version()
        assert not fig2_db.has_unsaved_changes()
        with pytest.raises(RuntimeError):
            with fig2_db.transaction():
                fig2_db.create_object("Data", "Gone")
                raise RuntimeError()
        assert not fig2_db.has_unsaved_changes()


class TestTransactionMisuse:
    def test_nested_transactions_rejected(self, fig2_db):
        with pytest.raises(TransactionError, match="nested"):
            with fig2_db.transaction():
                with fig2_db.transaction():
                    pass

    def test_version_ops_inside_transaction_rejected(self, fig2_db):
        with pytest.raises(TransactionError):
            with fig2_db.transaction():
                fig2_db.create_version()
        fig2_db.create_version()
        with pytest.raises(TransactionError):
            with fig2_db.transaction():
                fig2_db.select_version("1.0")

    def test_migrate_inside_transaction_rejected(self, fig2_db, fig2_schema):
        with pytest.raises(TransactionError):
            with fig2_db.transaction():
                fig2_db.migrate_schema(fig2_schema.copy())


class TestPoisonedUnit:
    """An update that raises after changing state poisons its unit."""

    def test_swallowed_post_change_error_commits_nothing(self, tmp_path):
        # relate() registers the relationship, then rejects the unknown
        # attribute; swallowing that used to commit the half-made
        # relationship to the journal while the live database dropped it
        journal = JournaledDatabase.open(
            tmp_path / "j.seed", schema=figure3_schema(), name="poison"
        )
        db = journal.db
        out = db.create_object("OutputData", "Out")
        act = db.create_object("Action", "Act")
        description = act.add_sub_object("Description", "x")
        before, dirty = database_to_dict(db), set(db._dirty)
        with pytest.raises(TransactionError, match="rolled back"):
            with db.transaction():
                with pytest.raises(SchemaError):
                    db.relate(
                        "Write", {"to": out, "by": act}, attributes={"Bogus": 1}
                    )
                db.set_value(description, "y")
        assert database_to_dict(db) == before
        assert db._dirty == dirty
        db.indexes.verify()
        reopened = JournaledDatabase.open(journal.path)
        assert database_to_dict(reopened.db) == before
        assert reopened.db._dirty == dirty

    def test_swallowed_mutation_error_poisons_the_transaction(self, fig2_db):
        handler = fig2_db.create_object("Action", "Handler")
        handler.add_sub_object("Description", "h")
        alarms = fig2_db.create_object("Data", "Alarms")
        before = database_to_dict(fig2_db)
        with pytest.raises(TransactionError, match="rolled back"):
            with fig2_db.transaction():
                fig2_db.create_object("Data", "Kept")
                try:
                    fig2_db.relate(
                        "Read",
                        {"from": alarms, "by": handler},
                        attributes={"nope": 1},
                    )
                except SeedError:
                    pass  # swallowed: the transaction must refuse to commit
        assert database_to_dict(fig2_db) == before
        assert fig2_db.find_object("Kept") is None
        fig2_db.indexes.verify()


def two_thousand_items() -> SeedDatabase:
    """500 data objects, 500 described actions, 500 flows."""
    db = SeedDatabase(figure3_schema(), "spied")
    with db.bulk():
        for i in range(500):
            data = db.create_object("Data", f"D{i}")
            action = db.create_object("Action", f"A{i}")
            action.add_sub_object("Description", f"does {i}")
            db.relate("Access", {"data": data, "by": action})
    return db


@pytest.fixture
def frozen(monkeypatch):
    """Every item ``freeze()`` is called on, while armed."""
    calls = []
    for cls in (SeedObject, SeedRelationship):
        real = cls.freeze
        monkeypatch.setattr(
            cls, "freeze", lambda item, real=real: calls.append(item) or real(item)
        )
    return calls


class TestBeforeImages:
    """A unit logs the before-image of what it changes, nothing else."""

    def test_a_bulk_batch_freezes_no_pre_existing_item(self, frozen):
        db = two_thousand_items()
        existing = set(db.all_objects_raw()) | set(db.all_relationships_raw())
        assert len(existing) == 2000
        frozen.clear()
        with db.bulk():
            for i in range(0, 500, 5):
                data = db.get_object(f"D{i}")
                # the parent and the flow's endpoint are only re-validated
                data.add_sub_object("Text").add_sub_object("Body")
                action = db.create_object("Action", f"New{i}")
                action.add_sub_object("Description", "new")
                db.relate("Access", {"data": data, "by": action})
        assert [item for item in frozen if item in existing] == []

    def test_a_rolled_back_transaction_rebuilds_no_index(self, monkeypatch):
        db = two_thousand_items()
        image, indexes = database_to_dict(db), db.indexes.snapshot()
        rebuilds = []
        real = IndexLayer.rebuild
        monkeypatch.setattr(
            IndexLayer, "rebuild", lambda layer: rebuilds.append(layer) or real(layer)
        )
        d0, a0 = db.get_object("D0"), db.get_object("A0")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.reclassify(d0, "OutputData")
                db.rename(a0, "Renamed")
                db.set_value(a0.sub_object("Description"), "changed")
                db.mark_pattern(db.get_object("D1"))
                db.delete(db.get_object("A2"))
                db.relate(
                    "Write", {"to": d0, "by": a0}, attributes={"NumberOfWrites": 1}
                )
                db.create_object("Data", "Fresh").add_sub_object("Text")
                raise RuntimeError("abandon")
        assert rebuilds == []
        assert database_to_dict(db) == image
        assert db.indexes.snapshot() == indexes
        assert db.get_object("D0") is d0 and db.get_object("A0") is a0

    def test_each_changed_item_is_frozen_once_and_a_created_one_never(
        self, frozen
    ):
        db = two_thousand_items()
        d0, a0 = db.get_object("D0"), db.get_object("A0")
        description = a0.sub_object("Description")
        frozen.clear()
        with db.transaction():
            db.set_value(description, "first")
            db.set_value(description, "second")
            db.rename(a0, "Renamed")
            db.rename(a0, "RenamedAgain")
            # d0's Access flow is touched for re-validation, not frozen
            db.reclassify(d0, "OutputData")
            db.rename(d0, "Output")
            created = db.create_object("Data", "Created")
            db.rename(created, "CreatedAndRenamed")
            db.set_value(created.add_sub_object("Text").add_sub_object("Selector"), "s")
        assert Counter(frozen) == {description: 1, a0: 1, d0: 1}
