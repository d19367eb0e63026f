"""The wire service: sessions over sockets, MVCC reads, background GC.

These tests start the service on background threads (one accepting,
one per connection) and drive it with blocking
:class:`~repro.multiuser.service.ServiceClient` sockets — the same
deployment shape as ``repro serve``. The headline property is MVCC: a
pinned snapshot read completes *while* a check-in is applying (the
apply holds the write lock on its connection's thread; a reader's
thread never takes it), and a pinned view stays consistent-as-of-pin no
matter how many check-ins land after it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import threading
import time
import warnings

import pytest

from repro.core.errors import (
    LockError,
    SeedError,
    SessionError,
    VersionError,
)
from repro.multiuser import SeedServer, SeedService, ServiceClient
from repro.multiuser import server as server_module
from repro.multiuser.checkin import package_to_dict
from repro.multiuser.protocol import (
    ERROR_CODES,
    MAX_REQUEST_BYTES,
    READ_QUERY_FIELDS,
    REQUEST_FIELDS,
    encode_message,
)
from repro.spades import spades_schema
from repro.core.values import STRING


def populate(master):
    alarms = master.create_object("Data", "Alarms")
    handler = master.create_object("Action", "AlarmHandler")
    handler.add_sub_object("Description", "handles")
    sensor = master.create_object("Action", "Sensor")
    sensor.add_sub_object("Description", "senses")
    master.relate("Read", {"from": alarms, "by": handler})


def make_server(**kwargs):
    server = SeedServer(spades_schema(), **kwargs)
    populate(server.master)
    server.create_global_version()
    return server


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def service():
    with SeedService(make_server()) as running:
        yield running


class TestWireRoundTrip:
    def test_check_out_modify_check_in(self, service):
        with ServiceClient.for_service(service, "alice") as alice:
            local = alice.check_out("AlarmHandler")
            local.get_object("AlarmHandler.Description").set_value("wired")
            local.create_object("Data", "WireData")
            translation = alice.check_in()
        master = service.server.master
        assert master.get_object("AlarmHandler.Description").value == "wired"
        created = master.find_object("WireData")
        assert created is not None
        assert created.oid in translation.values()

    def test_ping_and_stats(self, service):
        with ServiceClient.for_service(service, "alice") as alice:
            assert alice.ping()
            stats = alice.stats()
            assert stats["clients"] == ["alice"]
            assert stats["checkins_applied"] == 0

    def test_abandon_releases_over_the_wire(self, service):
        with ServiceClient.for_service(service, "alice") as alice:
            alice.check_out("Alarms")
            alice.abandon()
            assert not alice.has_copy
            assert len(service.server.locks) == 0

    def test_bulk_check_in_over_the_wire(self, service):
        with ServiceClient.for_service(service, "loader") as loader:
            local = loader.check_out()
            for i in range(40):
                obj = local.create_object("Data", f"Bulk{i}")
                local.set_value(obj, None)
            translation = loader.check_in()
        master = service.server.master
        assert len(translation) == 40
        assert master.find_object("Bulk39") is not None
        assert service.server.checkins_applied == 1

    def test_an_old_clients_bulk_field_is_accepted(self, service):
        class OldClient(ServiceClient):
            """Sends ``bulk``, a check-in field the table no longer names."""

            def _submit_package(self, package):
                result = self._call(
                    "check_in", package=package_to_dict(package), bulk=True
                )
                return dict(result["translation"])

        with OldClient.for_service(service, "old") as old:
            old.check_out().create_object("Data", "FromAnOldClient")
            translation = old.check_in()
        assert len(translation) == 1
        assert service.server.master.find_object("FromAnOldClient") is not None


class TestWireErrors:
    def test_zombie_token_maps_to_session_error(self, service):
        alice = ServiceClient.for_service(service, "alice")
        alice.check_out("Sensor")
        alice.local.create_object("Data", "SneakedIn")
        token = alice.token
        alice.disconnect()
        # resurrect the handle with its dead credential: every op fails
        alice.token = token
        alice._local = alice._local  # zombie still "holds" its copy
        with pytest.raises(SessionError, match="disconnected"):
            alice._call("renew")
        with pytest.raises(SessionError, match="disconnected"):
            alice._call("check_out", names=["Alarms"])
        assert service.server.find_object("SneakedIn") is None
        alice.close()

    def test_lock_conflict_maps_to_lock_error(self, service):
        with ServiceClient.for_service(service, "alice") as alice, \
                ServiceClient.for_service(service, "bob") as bob:
            alice.check_out("Alarms")
            with pytest.raises(LockError, match="held by 'alice'"):
                bob.check_out("Alarms")

    def test_duplicate_client_id_over_the_wire(self, service):
        with ServiceClient.for_service(service, "alice"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(SessionError, match="already connected"):
                    ServiceClient.for_service(service, "alice")
                gc.collect()  # the refused client's socket, if it leaked
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_unknown_op_is_a_seed_error(self, service):
        with ServiceClient.for_service(service, "alice") as alice:
            with pytest.raises(SeedError, match="unknown operation"):
                alice._call("self_destruct")

    def test_socket_drop_closes_the_session(self, service):
        walker = ServiceClient.for_service(service, "walker")
        walker.check_out("Alarms")
        assert service.server.clients() == ["walker"]
        walker.close()  # no disconnect: the socket just dies
        assert wait_until(lambda: service.server.clients() == [])
        assert len(service.server.locks) == 0


class TestRequestSizeLimit:
    """A frame's size is a stated limit, not a buffer's default."""

    def test_large_bulk_check_in_applies_over_the_wire(self, service):
        # 600 objects (a ~77 KB frame) used to reset the connection
        with ServiceClient.for_service(service, "loader") as loader:
            local = loader.check_out()
            for i in range(2000):
                local.create_object("Data", f"Big{i}")
            translation = loader.check_in()
            assert loader.ping()
        assert len(translation) == 2000
        assert service.server.master.find_object("Big1999") is not None
        assert service.server.checkins_applied == 1

    def test_oversized_frame_gets_typed_error_and_connection_survives(
        self, service
    ):
        with ServiceClient.for_service(service, "alice") as alice:
            alice.check_out("Alarms")
            alice.local.create_object("Data", "AfterTheFlood")
            # one frame just past the limit, newline-terminated
            alice._file.write(b"x" * (MAX_REQUEST_BYTES + 1) + b"\n")
            alice._file.flush()
            response = json.loads(alice._file.readline())
            assert response["ok"] is False
            assert response["error"] == "seed"
            assert response["message"].startswith("request too large")
            # same socket, same session, same locks: all still usable
            assert alice.ping()
            assert service.server.clients() == ["alice"]
            assert len(service.server.locks) > 0
            alice.check_in()
        assert service.server.master.find_object("AfterTheFlood") is not None

    def test_oversized_frame_maps_to_seed_error_in_the_client(self, service):
        with ServiceClient.for_service(service, "alice") as alice:
            with pytest.raises(SeedError, match="request too large"):
                alice._call("ping", padding="x" * (MAX_REQUEST_BYTES + 1))
            assert alice.ping()

    def test_write_lock_is_free_while_an_oversized_frame_is_discarded(
        self, service
    ):
        with ServiceClient.for_service(service, "slow") as slow, \
                ServiceClient.for_service(service, "bob") as bob:
            # an over-limit frame with no newline yet: the service is
            # mid-discard on this connection ...
            slow._file.write(b"x" * (MAX_REQUEST_BYTES + 4096))
            slow._file.flush()
            # ... while a writer on another connection goes through
            # connect -> check-out -> check-in, all under the write lock
            assert not service._write_lock.locked()
            local = bob.check_out("Alarms")
            local.create_object("Data", "Meanwhile")
            bob.check_in()
            assert service.server.master.find_object("Meanwhile") is not None
            # ending the frame yields the typed error; then business as usual
            slow._file.write(b"tail\n" + encode_message({"op": "ping"}))
            slow._file.flush()
            assert json.loads(slow._file.readline())["ok"] is False
            assert json.loads(slow._file.readline()) == {
                "ok": True, "result": {"pong": True},
            }


# ---------------------------------------------------------------------------
# the request table: every malformed envelope, derived from the table
# ---------------------------------------------------------------------------

#: a well-typed value per type tag, and values no tag but "object" admits
WELL_TYPED = {
    "str": "x", "object": {"kind": "count"}, "[str]": ["Alarms"],
}
ILL_TYPED = (None, 7, ["x", 7], {"a": {"b": 1}})


def _malformed(where, fields, put):
    """Cases for one field table: each required field missing, each
    field ill-typed. *put* builds the frame with one field replaced
    (or, given ``...``, left out)."""
    for name, tag in fields.items():
        if not tag.endswith("?"):
            yield f"{where}-{name}-missing", put(name, ...), (where, name)
        for bad in ILL_TYPED:
            if bad is None and tag.endswith("?"):
                continue  # null is how an optional field is left out
            named = name
            if tag == "object" and isinstance(bad, dict) and name == "query":
                named = "kind"  # an object: refused one level down
            yield f"{where}-{name}-{type(bad).__name__}", put(name, bad), (where, named)


def malformed_requests():
    """(label, frame, substrings the error message must contain)."""
    for op, fields in REQUEST_FIELDS.items():
        good = {"op": op, **{n: WELL_TYPED[t.rstrip("?")] for n, t in fields.items()}}

        def put(name, value, good=good):
            frame = {k: v for k, v in good.items() if k != name}
            return frame if value is ... else {**frame, name: value}

        yield from _malformed(op, fields, put)
    for kind, fields in READ_QUERY_FIELDS.items():
        query = {"kind": kind, **{n: WELL_TYPED[t.rstrip("?")] for n, t in fields.items()}}

        def put(name, value, query=query):
            inner = {k: v for k, v in query.items() if k != name}
            if value is not ...:
                inner[name] = value
            return {"op": "read", "version": "x", "query": inner}

        yield from _malformed("read", fields, put)
    yield "unknown-op", {"op": "self_destruct"}, ("unknown operation", "self_destruct")
    yield "ill-typed-op", {"op": ["ping"]}, ("unknown operation",)
    yield "non-object-frame", [1, 2], ("JSON object",)
    yield (
        "unknown-read-kind",
        {"op": "read", "version": "x", "query": {"kind": "drop"}},
        ("read", "unknown kind", "drop"),
    )


MALFORMED = list(malformed_requests())


@pytest.fixture(scope="module")
def journaled_service(tmp_path_factory):
    """A journal-bound service with one client holding locks."""
    path = tmp_path_factory.mktemp("wire") / "central.seed"
    server = SeedServer.open(path, schema=spades_schema())
    populate(server.master)
    with SeedService(server) as running:
        with ServiceClient.for_service(running, "holder", timeout=5.0) as holder:
            holder.check_out("Alarms")
            yield running, holder, path


class TestRequestTable:
    @pytest.mark.parametrize(
        "frame, mentions",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_envelope_gets_a_typed_error(
        self, journaled_service, frame, mentions
    ):
        service, holder, path = journaled_service
        if isinstance(frame, dict) and frame.get("token") == WELL_TYPED["str"]:
            # a live credential: only the rest of the envelope is wrong
            frame = {**frame, "token": holder.token}
        locks, journal_bytes = len(service.server.locks), path.stat().st_size
        assert locks > 0
        holder._file.write(encode_message(frame))
        holder._file.flush()
        response = json.loads(holder._file.readline())
        assert response["ok"] is False
        assert response["error"] in ERROR_CODES
        for text in mentions:
            assert text in response["message"], response["message"]
        # same connection, same session, same locks, same journal
        assert holder.ping()
        assert holder.stats()["live_locks"] == locks
        assert holder.has_copy and holder.renew() == locks
        assert path.stat().st_size == journal_bytes

    def test_requests_are_checked_before_the_write_lock(self, journaled_service):
        service, holder, __ = journaled_service
        lock = service._write_lock
        assert lock.acquire(timeout=5)
        try:
            for frame in (
                {"op": "connect"},
                {"op": "check_out", "token": holder.token, "names": "Alarms"},
                {"op": "check_in", "token": holder.token, "package": []},
                {"op": "abandon"},
            ):
                holder._file.write(encode_message(frame))
                holder._file.flush()
                # answered while the lock is held (a 5 s socket timeout
                # would fail the readline otherwise)
                assert json.loads(holder._file.readline())["ok"] is False
        finally:
            lock.release()
        assert holder.renew() > 0


class TestMVCCReads:
    def test_pinned_reads_are_consistent_as_of_pin(self, service):
        with ServiceClient.for_service(service, "reader") as reader, \
                ServiceClient.for_service(service, "writer") as writer:
            reader.pin()
            before = reader.counts()
            assert reader.find("Later") is None
            local = writer.check_out()
            local.create_object("Data", "Later")
            writer.check_in()
            # the pin predates the commit: same answers as before
            assert reader.counts() == before
            assert reader.find("Later") is None
            reader.pin()  # a fresh pin sees the commit
            assert reader.find("Later") is not None
            assert reader.counts()[0] == before[0] + 1

    def test_reads_complete_while_a_check_in_is_applying(self, service):
        server = service.server
        in_apply = threading.Event()
        release = threading.Event()
        original = server.apply_check_in

        def stalled_apply(*args, **kwargs):
            in_apply.set()
            assert release.wait(timeout=10), "test deadlock"
            return original(*args, **kwargs)

        server.apply_check_in = stalled_apply
        try:
            with ServiceClient.for_service(service, "reader") as reader, \
                    ServiceClient.for_service(service, "writer") as writer:
                reader.pin()
                expected = reader.counts()
                local = writer.check_out()
                local.create_object("Data", "MidApply")
                done = []

                def commit():
                    writer.check_in()
                    done.append(True)

                thread = threading.Thread(target=commit)
                thread.start()
                assert in_apply.wait(timeout=10)
                # the apply is in flight (holding the write lock) and
                # stalled — snapshot reads still answer, consistently
                for _ in range(3):
                    assert reader.counts() == expected
                assert not done
                release.set()
                thread.join(timeout=10)
                assert done
        finally:
            release.set()
            server.apply_check_in = original

    def test_evicted_pin_errors_and_repins(self, monkeypatch):
        monkeypatch.setattr(server_module, "DEFAULT_SNAPSHOT_CACHE", 2)
        server = make_server()
        with SeedService(server) as service:
            with ServiceClient.for_service(service, "reader") as reader, \
                    ServiceClient.for_service(service, "writer") as writer:
                stale = reader.pin()
                for i in range(3):  # each commit publishes a snapshot
                    local = writer.check_out()
                    local.create_object("Data", f"Churn{i}")
                    writer.check_in()
                with pytest.raises(VersionError, match="no longer pinned"):
                    reader.counts()
                assert reader.pin() != stale
                assert reader.find("Churn2") is not None


    def test_pin_answers_the_same_until_the_cache_moves_past_it(self, service):
        """Each check-in publishes a successor of the reader's pinned
        view and edits the very objects the reader reads: the pin's
        answers stay byte-identical for the further publications the
        view cache holds beside it, and the next one evicts it."""

        def answers(reader):
            return json.dumps(
                [
                    reader.find("AlarmHandler.Description"),
                    reader.find("Sensor"),
                    reader.find("Alarms"),
                    reader.objects("Data"),
                    reader.objects("Action"),
                    reader.objects(),
                    reader.counts(),
                ],
                sort_keys=True,
            ).encode()

        def edit(writer, round_number):
            names = ["AlarmHandler", "Alarms"] + ["Sensor"] * (round_number <= 2)
            local = writer.check_out(*names)
            local.get_object("AlarmHandler.Description").set_value(
                f"round {round_number}"
            )
            if round_number == 2:
                local.delete(local.get_object("Sensor"))
            else:
                local.create_object("Data", f"Alarms{round_number}")
            writer.check_in()

        cache = server_module.DEFAULT_SNAPSHOT_CACHE
        with ServiceClient.for_service(service, "reader") as reader, \
                ServiceClient.for_service(service, "writer") as writer:
            pinned = reader.pin()
            before = answers(reader)
            assert b"handles" in before
            for round_number in range(cache - 1):
                edit(writer, round_number)
                assert answers(reader) == before
            assert reader.pinned == pinned
            assert pinned in writer.stats()["pinned"]
            edit(writer, cache - 1)  # one view too many: the pin, the oldest, goes
            with pytest.raises(VersionError, match="no longer pinned"):
                reader.counts()
            assert reader.pin() != pinned
            assert reader.find("AlarmHandler.Description")["value"] == f"round {cache - 1}"
            assert reader.find("Sensor") is None


class TestPublication:
    """A check-in publishes what it changed; a pin never waits for the
    write lock; no check-in mints a version or a second record."""

    def test_a_pin_does_not_wait_for_the_write_lock(self, service):
        with ServiceClient.for_service(service, "reader") as reader:
            first = reader.pin()  # publishes: nothing was published yet
            pinned = []
            with service._write_lock:  # noqa: SLF001 - a writer mid-apply
                thread = threading.Thread(target=lambda: pinned.append(reader.pin()))
                thread.start()
                thread.join(timeout=10)
                assert pinned == [first]
                assert reader.counts() == (5, 1)
            assert reader.stats()["ops"]["pin"]["lock_wait_s"] == 0

    def test_a_check_in_publishes_and_mints_no_version(self, service):
        server = service.server
        versions = server.global_versions()
        with ServiceClient.for_service(service, "reader") as reader, \
                ServiceClient.for_service(service, "writer") as writer:
            before = reader.pin()
            local = writer.check_out("Sensor")
            local.get_object("Sensor.Description").set_value("published")
            writer.check_in()
            after = reader.pin()
            assert after != before
            assert reader.find("Sensor.Description")["value"] == "published"
            assert writer.stats()["published"] == after
        assert server.global_versions() == versions

    def test_a_journaled_check_in_appends_one_record(self, tmp_path):
        server = SeedServer.open(tmp_path / "one.seed", schema=spades_schema())
        populate(server.master)
        with SeedService(server) as running:
            with ServiceClient.for_service(running, "writer") as writer:
                writer.pin()
                local = writer.check_out("Alarms")
                local.create_object("Data", "OneRecord")
                records = server.journal._file.records  # noqa: SLF001
                before = len(list(records()))
                writer.check_in()
                kinds = [record["kind"] for record in list(records())[before:]]
        assert kinds == ["checkin"]

    def test_a_pin_publishes_what_the_owner_changed_directly(self, service):
        server = service.server
        with ServiceClient.for_service(service, "reader") as reader:
            first = reader.pin()
            with service._write_lock:  # noqa: SLF001 - the owner's own edit
                with server.master.transaction():
                    server.master.create_object("Data", "Direct")
            assert server.publication_stale()
            second = reader.pin()
            assert second != first
            assert reader.find("Direct") is not None
            assert not server.publication_stale()
            migrated = server.master.schema.copy("tagged")
            migrated.entity_class("Data").add_dependent(
                "Tag", "0..1", value_sort=STRING
            )
            with service._write_lock:  # noqa: SLF001
                server.master.migrate_schema(migrated)
            third = reader.pin()
            assert third != second
            assert server.snapshot(third).schema is server.master.schema
            assert reader.pin() == third  # nothing changed: no publication

    def test_a_global_version_id_is_no_snapshot_id(self, service):
        with ServiceClient.for_service(service, "reader") as reader:
            reader.pin()
            assert service.server.global_versions()
            reader.pinned = "1.0"
            with pytest.raises(VersionError, match="master.version_view"):
                reader.counts()

    def test_a_pinned_reader_survives_an_explicit_maintain(self):
        server = make_server()
        with SeedService(server) as service:
            with ServiceClient.for_service(service, "reader") as reader, \
                    ServiceClient.for_service(service, "writer") as writer:
                reader.pin()
                before = reader.counts()
                for name in ("AfterPin", "AndAgain"):
                    local = writer.check_out()
                    local.create_object("Data", name)
                    writer.check_in()
                    server.create_global_version()
                with service._write_lock:  # noqa: SLF001
                    server.maintain()
                assert server.maintenance_runs == 1
                # the publication is no version: the squash cannot touch
                # it, and the reader's view answers as of its pin
                assert reader.counts() == before
                reader.pin()
                assert reader.find("AndAgain") is not None


class TestThreadPerConnection:
    """Each connection is served on its own thread: the counters every
    thread writes stay exact, the connection cap holds, and a stop
    leaves no thread or socket behind."""

    def test_counters_are_exact_under_concurrent_clients(self, service):
        clients = [ServiceClient.for_service(service) for _ in range(4)]
        clients[0].pin()
        errors = []

        def hammer(client):
            try:
                client.pinned = clients[0].pinned
                for _ in range(200):
                    assert client.ping()
                    assert client.find("Alarms") is not None
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(c,)) for c in clients]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more chances to lose an update
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            stats = clients[0].stats()  # counted once its answer is out
            assert stats["requests_served"] == 1 + 4 * 400
            assert stats["reads_served"] == 4 * 200
            assert stats["ops"]["ping"]["count"] == 4 * 200
            assert stats["ops"]["read"]["count"] == 4 * 200
        finally:
            for client in clients:
                client.close()

    def test_connections_past_the_cap_get_a_typed_error(
        self, service, monkeypatch
    ):
        from repro.multiuser import protocol

        monkeypatch.setattr(protocol, "MAX_CONNECTIONS", 2)
        first = ServiceClient.for_service(service, "first")
        second = ServiceClient.for_service(service, "second")
        try:
            with pytest.raises(SeedError, match="too many connections"):
                ServiceClient.for_service(service, "third")
            assert first.stats()["connections_refused"] == 1
            assert service.server.clients() == ["first", "second"]
            second.close()
            assert wait_until(lambda: len(service._connections) == 1)
            with ServiceClient.for_service(service, "fourth") as fourth:
                assert fourth.ping()
        finally:
            first.close()
            second.close()

    def test_stats_split_a_check_in_into_server_time_and_lock_wait(
        self, service
    ):
        with ServiceClient.for_service(service, "writer") as writer:
            for expected in (1, 2, 3):
                local = writer.check_out()
                local.create_object("Data", f"Split{expected}")
                writer.check_in()
                entry = writer.stats()["ops"]["check_in"]
                assert entry["count"] == expected
                assert 0 <= entry["lock_wait_s"] <= entry["server_s"]
            assert writer.stats()["ops"]["check_out"]["count"] == 3

    def test_stop_leaves_no_connection_thread_or_socket(self):
        service = SeedService(make_server())
        service.start_in_thread()
        clients = [ServiceClient.for_service(service, f"c{i}") for i in range(3)]
        try:
            assert wait_until(lambda: len(service._connections) == 3)
            sockets = [conn.sock for conn in service._connections]
            sockets.append(service._listener)
            threads = list(service._connections.values())
            service.stop_in_thread()
            assert not any(thread.is_alive() for thread in threads)
            assert not service._acceptor.is_alive()
            assert all(sock.fileno() == -1 for sock in sockets)
            assert service._connections == {}
            assert service.server.clients() == []  # sessions closed
        finally:
            for client in clients:
                client.close()

    def test_dispatch_never_suspends(self):
        from repro.multiuser.service import _run_to_completion

        async def answer():
            return 42

        assert _run_to_completion(answer()) == 42
        with pytest.raises(RuntimeError, match="suspended"):
            _run_to_completion(asyncio.sleep(0))
