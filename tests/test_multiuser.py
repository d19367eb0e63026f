"""Tests for the two-level multi-user extension."""

import pytest

from repro.core import ConsistencyError, LockError, SeedError
from repro.core.errors import CheckInError
from repro.multiuser import SeedServer
from repro.spades import spades_schema


@pytest.fixture
def server():
    server = SeedServer(spades_schema())
    master = server.master
    alarms = master.create_object("Data", "Alarms")
    handler = master.create_object("Action", "AlarmHandler")
    handler.add_sub_object("Description", "handles")
    sensor = master.create_object("Action", "Sensor")
    sensor.add_sub_object("Description", "senses")
    master.relate("Read", {"from": alarms, "by": handler})
    server.create_global_version()
    return server


class TestCheckOutLocks:
    def test_conflicting_checkout_fails_fast(self, server):
        alice = server.connect("alice")
        bob = server.connect("bob")
        alice.check_out("Alarms")
        with pytest.raises(LockError, match="held by 'alice'"):
            bob.check_out("Alarms")

    def test_disjoint_checkouts_coexist(self, server):
        alice = server.connect("alice")
        bob = server.connect("bob")
        alice.check_out("AlarmHandler")
        bob.check_out("Sensor")
        assert alice.has_copy and bob.has_copy

    def test_relationship_copied_only_with_both_ends(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Alarms")
        # the Read touches AlarmHandler, which is not copied
        assert local.relationships("Read") == []
        both = server.connect("bob")
        # checking out both endpoints brings the relationship along —
        # Alarms is locked though, so release alice first
        alice.abandon()
        local = both.check_out("Alarms", "AlarmHandler")
        assert len(local.relationships("Read")) == 1

    def test_double_checkout_rejected(self, server):
        alice = server.connect("alice")
        alice.check_out("Alarms")
        with pytest.raises(SeedError, match="already holds"):
            alice.check_out("Sensor")

    def test_abandon_releases_locks(self, server):
        alice = server.connect("alice")
        alice.check_out("Alarms")
        alice.abandon()
        bob = server.connect("bob")
        bob.check_out("Alarms")  # no conflict anymore

    def test_disconnect_releases_locks(self, server):
        alice = server.connect("alice")
        alice.check_out("Alarms")
        server.disconnect("alice")
        assert len(server.locks) == 0

    def test_duplicate_client_id_rejected(self, server):
        server.connect("alice")
        with pytest.raises(SeedError, match="already connected"):
            server.connect("alice")


class TestCheckIn:
    def test_modifications_travel(self, server):
        alice = server.connect("alice")
        local = alice.check_out("AlarmHandler")
        local.get_object("AlarmHandler.Description").set_value("updated remotely")
        alice.check_in()
        assert (
            server.master.get_object("AlarmHandler.Description").value
            == "updated remotely"
        )
        assert len(server.locks) == 0
        assert not alice.has_copy

    def test_creations_get_fresh_master_ids(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Alarms")
        alarms = local.get_object("Alarms")
        note = alarms.add_sub_object("Note", "from alice")
        translation = alice.check_in()
        assert note.oid in translation
        master_note_oid = translation[note.oid]
        master_alarms = server.master.get_object("Alarms")
        assert [n.value for n in master_alarms.sub_objects("Note")] == ["from alice"]
        assert master_alarms.sub_objects("Note")[0].oid == master_note_oid

    def test_new_independent_objects_travel(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Sensor")
        new = local.create_object("Action", "Filter")
        new.add_sub_object("Description", "filters")
        local.relate(
            "Contained",
            contained=new,
            container=local.get_object("Sensor"),
        )
        alice.check_in()
        assert server.master.find_object("Filter") is not None
        sensor = server.master.get_object("Sensor")
        children = server.master.navigate(sensor, "Contained", "contained")
        assert [c.simple_name for c in children] == ["Filter"]

    def test_deletions_travel(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Alarms", "AlarmHandler")
        local.delete(local.get_object("Alarms"))
        alice.check_in()
        assert server.master.find_object("Alarms") is None
        assert server.master.relationships("Read") == []

    def test_failed_check_in_keeps_copy_and_locks(self, server):
        # build a local state the master will reject: exceed Text max via
        # two sessions is impossible under locks, so use a consistency
        # trick: delete the Description sub-object is completeness-only...
        # instead: alice creates a duplicate name
        alice = server.connect("alice")
        local = alice.check_out("Sensor")
        local.create_object("Action", "AlarmHandler")  # exists centrally!
        with pytest.raises((ConsistencyError, CheckInError)):
            alice.check_in()
        assert alice.has_copy  # copy survives for repair
        assert server.locks.held_by(alice.token)
        assert server.master.find_object("Sensor") is not None

    def test_empty_check_in(self, server):
        alice = server.connect("alice")
        alice.check_out("Alarms")
        assert alice.check_in() == {}

    def test_reclassification_travels(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Alarms")
        local.reclassify(local.get_object("Alarms"), "OutputData")
        alice.check_in()
        assert server.master.get_object("Alarms").class_name == "OutputData"

    def test_sequential_clients_compose(self, server):
        for client_id in ("alice", "bob", "carol"):
            client = server.connect(client_id)
            local = client.check_out("Alarms")
            local.get_object("Alarms").add_sub_object(
                "Note", f"note from {client_id}"
            )
            client.check_in()
        notes = [
            n.value
            for n in server.master.get_object("Alarms").sub_objects("Note")
        ]
        assert notes == ["note from alice", "note from bob", "note from carol"]


class TestLocalAndGlobalVersions:
    def test_local_versions_under_user_control(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Alarms")
        local.get_object("Alarms").add_sub_object("Note", "draft 1")
        v1 = alice.save_local_version()
        local.get_object("Alarms").sub_objects("Note")[0].set_value("draft 2")
        alice.save_local_version()
        assert len(alice.local.saved_versions()) == 2
        view = local.version_view(v1)
        alarms_view = view.find("Alarms")
        notes = [c.value for c in alarms_view.sub_objects("Note")]
        assert notes == ["draft 1"]

    def test_global_versions_under_server_control(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Alarms")
        local.get_object("Alarms").add_sub_object("Note", "change")
        alice.check_in()
        server.create_global_version()
        assert len(server.global_versions()) == 2
        old = server.master.version_view(server.global_versions()[0])
        old_alarms = old.find("Alarms")
        assert old_alarms.sub_objects("Note") == []

    def test_pattern_closure_checked_out(self, server):
        master = server.master
        template = master.create_object("Action", "Template", pattern=True)
        master.create_sub_object(template, "Deadline", "1986-06-01")
        worker = master.get_object("Sensor")
        master.inherit(template, worker)
        alice = server.connect("alice")
        local = alice.check_out("Sensor")
        local_sensor = local.get_object("Sensor")
        import datetime

        deadlines = [
            d.value for d in local_sensor.effective_sub_objects("Deadline")
        ]
        assert deadlines == [datetime.date(1986, 6, 1)]
