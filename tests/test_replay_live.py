"""Replay runs the code the live operation runs: reopen ≡ live.

Every state change has one implementation, in the module that owns the
state; the live call and the journal's replay both call it. The oracle
is the canonical image: after each kind of change, a reopen of the
journal — with no checkpoint since the change — must equal the live
database byte for byte. The cases below: a raw restore
(``SeedDatabase._restore`` with no base, which the replay of an earlier
build's ``restore`` record with a null version runs; unlike
``select_version`` it leaves the version base where it is),
``delete_version`` and ``compact``.

Two more checks pin the shared routines: a migration that fails leaves
every item bound to the old schema's elements (by identity) with a
consistent index layer, and a ``restore`` record, written by the state
kernel, is byte for byte ``RecordFile.encode`` of its dict form.
"""

from __future__ import annotations

import pytest

from repro.core import SchemaBuilder, figure3_schema
from repro.core.cardinality import Cardinality
from repro.core.errors import ConsistencyError, SchemaError
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_to_dict,
    load_database,
)
from repro.core.storage.engine import KNOWN_RECORD_KINDS
from repro.core.storage.serialize import restore_delta_from_db, state_to_dict
from repro.core.versions.compaction import RetentionPolicy


def image(db) -> bytes:
    return RecordFile.encode(database_to_dict(db))


def kinds(path) -> list:
    return [
        event.record.get("kind")
        for event in RecordFile(path).decoded()
        if event.kind == "record"
    ]


def assert_reopen_is_live(journal) -> None:
    assert image(load_database(journal.path)) == image(journal.db)


@pytest.fixture
def journal(tmp_path):
    """Three versions on one line; the database is based on ``3.0``.

    Version 2.0 deletes an action and its flow, so compaction has
    tombstones to collect once 2.0 is squashed away.
    """
    journal = JournaledDatabase.open(
        tmp_path / "live.seed", schema=figure3_schema(), name="live"
    )
    db = journal.db
    alarms = db.create_object("Data", "Alarms")
    handler = db.create_object("Action", "Handler")
    handler.add_sub_object("Description", "handles alarms")
    doomed = db.create_object("Action", "Doomed")
    db.relate("Access", {"data": alarms, "by": doomed})
    db.create_version()
    db.delete(doomed)
    db.create_object("Data", "Reports")
    db.create_version()
    db.relate("Access", {"data": alarms, "by": handler})
    db.create_version()
    assert str(db.versions.current_base) == "3.0"
    return journal


def test_a_raw_restore_replays_without_moving_the_base(journal):
    db = journal.db
    db._restore(*db.version_view("1.0").states())  # noqa: SLF001
    assert str(db.versions.current_base) == "3.0"
    assert_reopen_is_live(journal)
    assert kinds(journal.path)[-1] == "restore"


def test_a_deleted_version_replays(journal):
    db = journal.db
    db.select_version("2.0")
    db.delete_version("3.0")
    assert_reopen_is_live(journal)
    assert kinds(journal.path)[-1] == "delete_version"
    reopened = load_database(journal.path)
    assert [str(v) for v in reopened.saved_versions()] == ["1.0", "2.0"]


def test_a_compaction_replays(journal):
    db = journal.db
    stats = db.compact(RetentionPolicy(keep_last=1, gc_tombstones=True))
    assert stats.squashed_versions and stats.collected_objects
    assert_reopen_is_live(journal)
    assert kinds(journal.path)[-1] == "compact"


def test_a_compaction_that_changes_nothing_appends_nothing(journal):
    before = kinds(journal.path)
    stats = journal.db.compact(RetentionPolicy(squash_chains=False))
    assert not stats.snapshots_created
    assert kinds(journal.path) == before


def test_the_compact_record_holds_the_resolved_policy(journal):
    db = journal.db
    db.compact(RetentionPolicy(keep_last=1, pins=["2.0"]))
    delta = RecordFile(journal.path).decoded()
    record = [e.record for e in delta if e.kind == "record"][-1]
    assert record["kind"] == "compact"
    assert record["delta"]["pins"] == ["2.0"]
    assert record["delta"]["keep_last"] == 1
    assert_reopen_is_live(journal)


def test_a_compaction_without_a_policy_is_refused(journal):
    # the journal never records a policy nobody chose
    before = kinds(journal.path)
    with pytest.raises(TypeError, match="policy"):
        journal.db.compact()  # type: ignore[call-arg]
    assert kinds(journal.path) == before
    assert_reopen_is_live(journal)


def test_every_journaled_kind_is_a_known_kind():
    assert {
        "txn", "schema", "restore", "version", "delete_version", "compact",
        "checkin", "checkin.abort", "image", "image.begin", "image.rec",
        "image.end",
    } == KNOWN_RECORD_KINDS


def missing_class(old):
    """A schema without ``Action``: rebinding fails part-way, after
    ``Alarms`` was bound to the new ``Data``."""
    return SchemaBuilder("tiny").entity_class("Data").build()


def violated(old):
    """A schema under which the existing ``Description`` violates a
    cardinality: rebinding succeeds, validation fails."""
    shrunk = old.copy("shrunk")
    shrunk.entity_class("Action").dependent("Description").cardinality = (
        Cardinality.parse("0..0")
    )
    return shrunk


@pytest.mark.parametrize(
    "broken, error",
    [(missing_class, SchemaError), (violated, ConsistencyError)],
)
def test_a_failed_migration_keeps_the_old_bindings(journal, broken, error):
    db = journal.db
    old = db.schema
    before = image(db)
    with pytest.raises(error):
        db.migrate_schema(broken(old))
    assert db.schema is old
    for obj in db.all_objects_raw():
        assert obj.entity_class is old.entity_class(obj.entity_class.full_name)
    for rel in db.all_relationships_raw():
        assert rel.association is old.association(rel.association.name)
    db.indexes.verify()
    assert image(db) == before
    assert_reopen_is_live(journal)


@pytest.mark.parametrize("version", ["2.0", None])
def test_restore_delta_bytes_are_the_dict_encode(journal, version):
    db = journal.db
    db._restore(*db.version_view("2.0").states())  # noqa: SLF001
    expected = RecordFile.encode({
        "version": version,
        "objects": [
            [obj.oid, state_to_dict("o", obj.freeze())]
            for obj in db.all_objects_raw()
        ],
        "relationships": [
            [rel.rid, state_to_dict("r", rel.freeze())]
            for rel in db.all_relationships_raw()
        ],
        "next_id": db._next_id,  # noqa: SLF001
    })
    assert restore_delta_from_db(db, version) == expected
