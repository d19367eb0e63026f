"""Fault-injected multi-user flows: rollback equivalence and leases.

The rollback tests reuse ``tests/test_bulk.py``'s equivalence style: a
check-in that dies mid-apply must leave the master's canonical image
*and* its index snapshots byte-identical to the pre-check-in state,
with the client's copy and locks intact for a retry. Lease tests drive
an injected fake clock — no wall-clock sleeps anywhere.
"""

from __future__ import annotations

import pytest

from repro.core import ConsistencyError, LockError, faults
from repro.core.errors import CheckInError
from repro.core.faults import FaultPlan, SimulatedCrash
from repro.core.storage import JournaledDatabase, database_to_dict
from repro.multiuser import SeedServer
from repro.spades import spades_schema


def canonical_image(db):
    """The comparable state of a database (name aside)."""
    state = database_to_dict(db)
    state.pop("name")
    return state


def populate(master):
    alarms = master.create_object("Data", "Alarms")
    handler = master.create_object("Action", "AlarmHandler")
    handler.add_sub_object("Description", "handles")
    sensor = master.create_object("Action", "Sensor")
    sensor.add_sub_object("Description", "senses")
    master.relate("Read", {"from": alarms, "by": handler})


@pytest.fixture
def server():
    server = SeedServer(spades_schema())
    populate(server.master)
    return server


@pytest.fixture
def journaled(tmp_path):
    server = SeedServer.open(tmp_path / "central.seed", schema=spades_schema())
    populate(server.master)
    server.checkpoint()
    return server


class FakeClock:
    """A deterministic monotonic clock; tests advance ``now``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# fault-injected check-ins: master rollback equivalence
# ---------------------------------------------------------------------------

class TestCheckInFaults:
    def edit(self, client):
        local = client.check_out("AlarmHandler")
        local.get_object("AlarmHandler.Description").set_value("edited")
        return local

    def assert_untouched(self, server, image_before, index_before):
        assert canonical_image(server.master) == image_before
        assert server.master.indexes.snapshot() == index_before

    def test_io_error_mid_apply_rolls_back_byte_identical(self, server):
        alice = server.connect("alice")
        self.edit(alice)
        image_before = canonical_image(server.master)
        index_before = server.master.indexes.snapshot()
        plan = FaultPlan().fail_io("checkin.apply.mid")
        with plan, pytest.raises(OSError):
            alice.check_in()
        assert plan.triggered
        self.assert_untouched(server, image_before, index_before)
        # the client still holds its copy and its locks...
        assert alice.has_copy
        bob = server.connect("bob")
        with pytest.raises(LockError, match="held by 'alice'"):
            bob.check_out("AlarmHandler")
        # ...so the retry (fault cleared) lands the edit
        alice.check_in()
        value = server.master.get_object("AlarmHandler.Description").value
        assert value == "edited"

    def test_simulated_crash_mid_apply_rolls_back(self, server):
        alice = server.connect("alice")
        self.edit(alice)
        image_before = canonical_image(server.master)
        index_before = server.master.indexes.snapshot()
        with FaultPlan().crash("checkin.apply.mid"):
            with pytest.raises(SimulatedCrash):
                alice.check_in()
        self.assert_untouched(server, image_before, index_before)
        assert alice.has_copy

    def test_journal_append_failure_precedes_apply(self, journaled):
        # write-ahead means a failed append must leave the master
        # untouched: nothing was applied yet
        alice = journaled.connect("alice")
        self.edit(alice)
        image_before = canonical_image(journaled.master)
        with FaultPlan().fail_io("checkin.journal.pre_append"):
            with pytest.raises(OSError):
                alice.check_in()
        assert canonical_image(journaled.master) == image_before
        assert journaled.journal.deltas() == 0
        assert alice.has_copy

    def test_mid_apply_fault_appends_abort_marker(self, journaled):
        alice = journaled.connect("alice")
        self.edit(alice)
        with FaultPlan().fail_io("checkin.apply.mid"):
            with pytest.raises(OSError):
                alice.check_in()
        # the write-ahead delta landed, then was neutralized
        assert journaled.journal.deltas() == 1
        # a reload replays to exactly the live (unchanged) master state
        reopened = JournaledDatabase.open(journaled.journal._file.path)
        assert canonical_image(reopened.db) == canonical_image(journaled.master)
        assert reopened.recovery.aborted_deltas == 1
        assert reopened.recovery.applied_deltas == 0

    def test_successful_checkin_is_durable_without_checkpoint(self, journaled):
        alice = journaled.connect("alice")
        self.edit(alice)
        size_before = journaled.journal._file.size_bytes()
        alice.check_in()
        appended = journaled.journal._file.size_bytes() - size_before
        # O(change), not O(database): the delta is far smaller than an image
        assert 0 < appended < size_before / 2
        reopened = JournaledDatabase.open(journaled.journal._file.path)
        assert canonical_image(reopened.db) == canonical_image(journaled.master)
        assert reopened.recovery.applied_deltas == 1
        value = reopened.db.get_object("AlarmHandler.Description").value
        assert value == "edited"

    def test_empty_checkin_appends_nothing(self, journaled):
        alice = journaled.connect("alice")
        alice.check_out("Sensor")
        size_before = journaled.journal._file.size_bytes()
        alice.check_in()
        assert journaled.journal._file.size_bytes() == size_before
        assert journaled.journal.deltas() == 0

    def test_rejected_checkin_leaves_replayable_journal(self, journaled):
        alice = journaled.connect("alice")
        local = alice.check_out("Sensor")
        local.create_object("Action", "AlarmHandler")  # exists centrally!
        with pytest.raises(ConsistencyError):
            alice.check_in()
        # delta + abort marker: replay skips the rejected check-in
        reopened = JournaledDatabase.open(journaled.journal._file.path)
        assert canonical_image(reopened.db) == canonical_image(journaled.master)
        assert reopened.recovery.aborted_deltas == 1


# ---------------------------------------------------------------------------
# lock leases: expiry, reclaim, renewal
# ---------------------------------------------------------------------------

class TestLockLeases:
    def make_server(self, lease=30.0):
        clock = FakeClock()
        server = SeedServer(spades_schema(), lease_seconds=lease, clock=clock)
        populate(server.master)
        return server, clock

    def test_expired_lease_is_reclaimed_by_conflicting_checkout(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        bob = server.connect("bob")
        with pytest.raises(LockError):
            bob.check_out("Alarms")
        clock.now += 31
        bob.check_out("Alarms")  # alice's lease lapsed: reclaimed
        assert bob.has_copy
        assert server.locks.reclaimed >= 1

    def test_live_lease_is_not_reclaimed(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        clock.now += 20
        server.renew(alice.token)
        clock.now += 20  # 40s total, but only 20s since the renewal
        bob = server.connect("bob")
        with pytest.raises(LockError, match="held by 'alice'"):
            bob.check_out("Alarms")

    def test_expired_client_cannot_check_in_over_the_reclaimer(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        local = alice.check_out("AlarmHandler")
        local.get_object("AlarmHandler.Description").set_value("from alice")
        clock.now += 31
        bob = server.connect("bob")
        bob.check_out("AlarmHandler")
        # alice's stale check-in is rejected, not applied over bob's claim
        with pytest.raises(CheckInError, match="without holding"):
            alice.check_in()
        value = server.master.get_object("AlarmHandler.Description").value
        assert value == "handles"

    def test_renew_after_expiry_touches_nothing(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        clock.now += 31
        # the renew sees no live locks left to touch
        assert server.locks.renew("alice") == 0

    def test_expired_locks_are_not_counted(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        held = len(server.locks)
        assert held > 0
        assert len(server.locks.held_by(alice.token)) == held
        clock.now += 31
        assert len(server.locks) == 0  # expired locks are invisible
        assert server.locks.held_by(alice.token) == []
        bob = server.connect("bob")
        bob.check_out("Alarms")  # reclaims alice's lapsed locks
        assert server.locks.reclaimed >= 1
        assert len(server.locks) == len(server.locks.held_by(bob.token)) > 0

    def test_no_lease_means_no_expiry(self):
        server = SeedServer(spades_schema())
        populate(server.master)
        alice = server.connect("alice")
        alice.check_out("Alarms")
        bob = server.connect("bob")
        with pytest.raises(LockError):
            bob.check_out("Alarms")
