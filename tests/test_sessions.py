"""Sessions: token lifecycle, and the zombie-client regression suite.

PR 7's bugfix targets: (1) a zombie handle — disconnected, or its lease
expired — could previously check in *create-only* packages, because
held-lock validation only inspects modified keys; (2) ``connect`` after
``disconnect`` reused the bare client id as the lock-table key, so a
stale pre-disconnect handle shared (and could release) the reconnected
session's locks. Both are fixed structurally by session tokens; these
tests pin the fixes down.
"""

from __future__ import annotations

import pytest

from _oracles import closure_keys_scan
from repro.core import SeedError
from repro.core.errors import CheckInError, LockError, SessionError
from repro.multiuser import SeedServer, SessionManager
from repro.multiuser.checkin import CheckInPackage
from repro.spades import spades_schema


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


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


class TestSessionManager:
    def test_tokens_are_unique_and_unguessable_shaped(self):
        manager = SessionManager()
        tokens = {manager.open(f"c{i}").token for i in range(50)}
        assert len(tokens) == 50
        assert all("." in token for token in tokens)

    def test_validate_touches_and_counts(self):
        clock = FakeClock()
        manager = SessionManager(clock=clock)
        session = manager.open("alice")
        clock.now = 5.0
        validated = manager.validate(session.token)
        assert validated is session
        assert session.last_seen == 5.0
        assert session.operations == 1

    def test_unknown_and_closed_tokens_rejected(self):
        manager = SessionManager()
        with pytest.raises(SessionError, match="unknown session token"):
            manager.validate("s999.deadbeef")
        session = manager.open("alice")
        manager.close(session.token)
        with pytest.raises(SessionError, match="disconnected"):
            manager.validate(session.token)

    def test_idle_expiry_on_the_fake_clock(self):
        clock = FakeClock()
        manager = SessionManager(session_seconds=60.0, clock=clock)
        session = manager.open("alice")
        clock.now = 59.0
        manager.validate(session.token)  # touch resets idleness
        clock.now = 118.0
        manager.validate(session.token)
        clock.now = 179.0
        with pytest.raises(SessionError, match="expired after 60.0s idle"):
            manager.validate(session.token)
        assert not manager.is_live(session.token)

    def test_one_live_session_per_client_id(self):
        manager = SessionManager()
        first = manager.open("alice")
        with pytest.raises(SessionError, match="already connected"):
            manager.open("alice")
        manager.close(first.token)
        second = manager.open("alice")
        assert second.token != first.token

    def test_expired_session_frees_the_client_id(self):
        clock = FakeClock()
        manager = SessionManager(session_seconds=30.0, clock=clock)
        first = manager.open("alice")
        clock.now = 31.0
        second = manager.open("alice")  # the zombie no longer blocks it
        assert second.token != first.token
        assert manager.client_of(first.token) == "alice"
        assert len(manager) == 1

    def test_closed_session_retention_is_bounded(self):
        manager = SessionManager()
        for i in range(400):
            session = manager.open(f"c{i}")
            manager.close(session.token)
        # older closed sessions are forgotten; recent ones still explain
        with pytest.raises(SessionError, match="unknown session token"):
            manager.validate("s1." + "0" * 16)


class TestZombieCheckIn:
    """Satellite 1: create-only packages need live standing, not luck."""

    def test_disconnected_zombie_cannot_check_in_creations(self, server):
        alice = server.connect("alice")
        local = alice.check_out("Sensor")
        local.create_object("Data", "SneakedIn")  # create-only: no locks
        server.disconnect("alice")
        with pytest.raises(SessionError, match="disconnected"):
            alice.check_in()
        assert server.find_object("SneakedIn") is None

    def test_lease_expired_zombie_cannot_check_in_creations(self):
        clock = FakeClock()
        server = SeedServer(
            spades_schema(), lease_seconds=30.0, clock=clock
        )
        populate(server.master)
        alice = server.connect("alice")
        local = alice.check_out("Sensor")
        local.create_object("Data", "SneakedIn")
        clock.now = 31.0  # lease (and standing) lapse together
        with pytest.raises(CheckInError, match="without holding standing"):
            alice.check_in()
        assert server.find_object("SneakedIn") is None
        # the copy survives client-side, but only a fresh check-out
        # (after abandoning) regains standing
        assert alice.has_copy

    def test_session_expired_zombie_cannot_check_in_creations(self):
        clock = FakeClock()
        server = SeedServer(
            spades_schema(), session_seconds=60.0, clock=clock
        )
        populate(server.master)
        alice = server.connect("alice")
        local = alice.check_out("Sensor")
        local.create_object("Data", "SneakedIn")
        clock.now = 61.0
        with pytest.raises(SessionError, match="expired"):
            alice.check_in()
        assert server.find_object("SneakedIn") is None

    def test_raw_package_without_standing_rejected(self, server):
        """Even a hand-rolled empty-lock package needs standing."""
        session = server.open_session("mallory")
        package = CheckInPackage()
        with pytest.raises(CheckInError, match="no standing"):
            server.apply_check_in(session.token, package)


class TestStaleHandleAfterReconnect:
    """Satellite 2: locks are keyed by token, not reusable client id."""

    def test_stale_handle_cannot_use_the_reconnected_session(self, server):
        stale = server.connect("alice")
        stale.check_out("Alarms")
        server.disconnect("alice")
        fresh = server.connect("alice")  # same id, fresh token
        assert fresh.token != stale.token
        local = fresh.check_out("Alarms")  # stale locks died on disconnect
        with pytest.raises(SessionError):
            stale.check_in()
        with pytest.raises(SessionError):
            stale.abandon()
        # the fresh session's locks and copy are untouched by the zombie
        assert server.locks.held_by(fresh.token)
        local.get_object("Alarms").set_value(None)
        fresh.check_in()

    def test_stale_handle_cannot_check_out_into_the_new_namespace(
        self, server
    ):
        stale = server.connect("alice")
        server.disconnect("alice")
        server.connect("alice")
        with pytest.raises(SessionError):
            stale.check_out("Sensor")

    def test_lock_conflicts_still_name_the_client(self, server):
        alice = server.connect("alice")
        alice.check_out("Alarms")
        bob = server.connect("bob")
        with pytest.raises(LockError, match="held by 'alice'") as excinfo:
            bob.check_out("Alarms")
        # the conflict names the user, never the opaque credential
        assert alice.token not in str(excinfo.value)


class TestClosureEquivalence:
    """Satellite 4: the incidence-index closure equals the full scan."""

    def make_rich_server(self):
        server = SeedServer(spades_schema())
        master = server.master
        template = master.create_object(
            "Action", "HandlerTemplate", pattern=True
        )
        template.add_sub_object("Description", "template text")
        objs = {}
        for i in range(6):
            data = master.create_object("Data", f"Data{i}")
            action = master.create_object("Action", f"Action{i}")
            objs[i] = (data, action)
            master.relate("Read", {"from": data, "by": action})
            if i:
                master.relate(
                    "Write", {"to": data, "by": objs[i - 1][1]}
                )
            if i % 2 == 0:
                # even actions inherit the template (and its sub-tree)
                master.inherit(template, action)
            else:
                action.add_sub_object("Description", f"does {i}")
        return server

    @pytest.mark.parametrize(
        "names",
        [
            ("Data0",),
            ("Action0",),  # pulls the inherited pattern closure
            ("Data1", "Action1"),
            ("Data2", "Action1", "Action3"),
            ("Data0", "Action0", "Data1", "Action1", "Data2", "Action2"),
        ],
    )
    def test_closure_keys_equals_scan(self, names):
        server = self.make_rich_server()
        roots = server.resolve_roots(names)
        via_index = server.closure_keys(roots)
        via_scan = closure_keys_scan(server, roots)
        assert [o.oid for o in via_index[0]] == [o.oid for o in via_scan[0]]
        assert via_index[1] == via_scan[1]

    def test_checkout_still_copies_relationships_between_endpoints(self):
        server = self.make_rich_server()
        alice = server.connect("alice")
        local = alice.check_out("Data1", "Action1", "Action0")
        # Read(Data1, Action1) both ends in; Write(Data1, Action0) too
        assert len(local.relationships("Read")) == 1
        assert len(local.relationships("Write")) == 1
