"""The networked multi-user service: many clients, one central server.

:class:`SeedService` exposes a :class:`~repro.multiuser.server.SeedServer`
over a socket (JSON-lines protocol, :mod:`repro.multiuser.protocol`),
serving each accepted connection on its own blocking thread. The
concurrency model mirrors the paper's two-level sketch:

* **writes are serialized** — connect/disconnect, renew, check-out,
  check-in with its snapshot publication, abandon and pin run under
  one ``threading.Lock``, on the thread that read their frame; the
  master database is single-writer by construction;
* **reads never wait for writers** — retrieval runs against *pinned
  snapshot views* (fully materialized, immutable
  :class:`~repro.core.versions.view.VersionView` objects) without the
  lock, so a reader holding a pin keeps getting consistent answers on
  its own thread while a check-in — even a large or stalled one — is
  applying on another;
* **maintenance runs between check-ins** — the connection whose
  check-in is the ``maintain_every``-th since the last pass sends its
  acknowledgement, then runs a
  :meth:`~repro.multiuser.server.SeedServer.maintain` pass (compaction
  + tombstone GC) under the write lock before it reads its next frame,
  with every pinned snapshot protected.

No lock is held while a frame is read or an answer sent. Past
:data:`~repro.multiuser.protocol.MAX_CONNECTIONS` open connections, a
new one gets one typed error frame and is closed. ``stats`` reports per
op kind the requests, their server seconds (parsed frame to encoded
answer) and the seconds of it spent waiting for the write lock.

Sessions close with their socket: a connection dropping (client crash,
network cut) closes every session it opened, releasing locks — the
detectable half of zombie handling; lease expiry covers the silent
half. A session token is only honoured on the connection that minted
it would be stricter than the paper needs — tokens are the credential,
so any connection may present one (the in-process tests do).

:class:`ServiceClient` is the blocking wire client: the same check-out /
work-local / check-in surface as the in-process
:class:`~repro.multiuser.client.SeedClient` — both are the one
:class:`~repro.multiuser.client.CopyHolder` state machine; this one
reaches the server through :meth:`ServiceClient._call`.
"""

from __future__ import annotations

import socket
import threading
from time import perf_counter, sleep
from typing import Any, BinaryIO, Optional

from repro.core.errors import SeedError
from repro.core.schema.schema import Schema
from repro.core.storage.serialize import decode_value, encode_value
from repro.multiuser import protocol
from repro.multiuser.checkin import (
    CheckInPackage,
    package_from_dict,
    package_to_dict,
)
from repro.multiuser.client import CopyHolder
from repro.multiuser.protocol import (
    MAX_REQUEST_BYTES,
    REQUEST_FIELDS,
    check_request,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    raise_remote_error,
    ticket_from_dict,
    ticket_to_dict,
)
from repro.multiuser.server import CheckOutTicket, SeedServer

__all__ = ["SeedService", "ServiceClient"]

#: accepted check-ins between maintenance passes (0 = never)
DEFAULT_MAINTAIN_EVERY = 8


def _view_object_summary(obj) -> dict[str, Any]:
    """The JSON summary of one snapshot-view object."""
    return {
        "oid": obj.oid,
        "name": str(obj.name),
        "class_name": obj.class_name,
        "value": encode_value(obj.value),
        "is_pattern": obj.is_pattern,
    }


def _run_to_completion(coroutine) -> Any:
    """The result of a coroutine that never suspends (else an error)."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("a service coroutine suspended; nothing resumes it")


def _read_frame(rfile: BinaryIO) -> bytes:
    """One request line, ``b""`` at EOF (a partial last line as is). A
    frame over the limit is discarded through its newline (outside the
    write lock, like every read), then raises the typed error; the next
    frame parses cleanly.
    """
    line = rfile.readline(MAX_REQUEST_BYTES + 1)
    if len(line) <= MAX_REQUEST_BYTES or line.endswith(b"\n"):
        return line
    while line and not line.endswith(b"\n"):
        line = rfile.readline(MAX_REQUEST_BYTES)
    raise SeedError(f"request too large: over {MAX_REQUEST_BYTES} bytes")


def _shut(sock: socket.socket) -> None:
    """Wake whatever blocks on *sock* (accept or recv) in another thread."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed by its thread, or never connected


class _Connection:
    """One accepted socket and what its thread tracks between frames.

    ``with conn:`` holds the service's write lock for one request: the
    wait is added to the request's, and once :meth:`SeedService.stop`
    has drained the service the write is refused instead.
    """

    __slots__ = ("service", "sock", "tokens", "op", "lock_wait", "maintain_due")

    def __init__(self, service: "SeedService", sock: socket.socket) -> None:
        self.service = service
        self.sock = sock
        self.tokens: set[str] = set()  #: sessions this connection opened
        self.op: Optional[str] = None  #: the op of the checked request
        self.lock_wait = 0.0  #: its seconds waiting for the write lock
        self.maintain_due = False  #: run a pass once the ack is out

    def __enter__(self) -> None:
        lock = self.service._write_lock
        if not lock.acquire(blocking=False):  # only a wait is timed
            started = perf_counter()
            lock.acquire()
            self.lock_wait += perf_counter() - started
        if self.service._stopped:
            lock.release()
            raise SeedError("service is stopping: the write was refused")

    def __exit__(self, *exc_info) -> None:
        self.service._write_lock.release()


class SeedService:
    """Serve a :class:`SeedServer` to concurrent wire clients."""

    def __init__(
        self,
        server: SeedServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        maintain_every: int = DEFAULT_MAINTAIN_EVERY,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port  # 0 = ephemeral; real port known once started
        self.maintain_every = maintain_every
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._write_lock = threading.Lock()
        self._stopped = False  #: set by stop(): every later write is refused
        self._accepted_since_maintain = 0
        self._counter_lock = threading.Lock()
        self._connections: dict[_Connection, threading.Thread] = {}
        # -- service counters (stats op / `repro serve` log); the write
        # lock guards the maintenance ones, the counter lock the rest --
        self.requests_served = 0
        self.reads_served = 0
        self.connections_refused = 0
        self.maintenance_scheduled = 0
        self.maintenance_failures = 0
        self.maintenance_error: Optional[str] = None  #: the last failure
        #: op -> [requests, server seconds, write-lock wait seconds]
        self._op_times = {op: [0, 0.0, 0.0] for op in REQUEST_FIELDS}

    # -- lifecycle -----------------------------------------------------------

    def start_in_thread(self) -> "SeedService":
        """Bind (ephemeral port resolved) and accept on a background thread."""
        if self._listener is not None:
            raise SeedError("service is already started")
        family = socket.getaddrinfo(self.host, self.port, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((self.host, self.port), family=family)
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            name="seed-service", daemon=True,
        )
        self._acceptor.start()
        return self

    def stop(
        self,
        *,
        drain_timeout_s: Optional[float] = None,
        final_checkpoint: bool = False,
    ) -> None:
        """Graceful shutdown: refuse, drain, optionally save, close.

        New connections are refused first. Then the write lock is taken:
        holding it proves no check-in or maintenance pass is mid-apply,
        and every write that reaches it later — a maintenance pass still
        due included — is refused. *drain_timeout_s* bounds each wait so
        a hung apply cannot wedge shutdown: its work is abandoned (the
        master rolls back on failure as usual, and an un-acked check-in's
        journal record replays on the next open). With *final_checkpoint*
        (the ``repro serve`` SIGTERM/SIGINT path) a drained journal-bound
        server appends a final checkpoint and compacts the journal; either
        way it closes the journal's file handle. Last, every open
        connection is shut down and its thread joined, which closes the
        sessions it opened.
        """
        listener, self._listener = self._listener, None
        if listener is None:
            return
        # refuse new connections; in-flight requests keep running
        _shut(listener)
        listener.close()
        self._acceptor.join()
        drained = self._write_lock.acquire(
            timeout=-1 if drain_timeout_s is None else drain_timeout_s
        )
        self._stopped = True
        try:
            if drained and self.server.journal is not None:
                if final_checkpoint:
                    self.server.journal.save_point()
                self.server.journal.close()
        finally:
            if drained:
                self._write_lock.release()
        # connections still open (clients that never closed their
        # socket): wake their threads so session cleanup runs now
        with self._counter_lock:
            connections = dict(self._connections)
        for conn in connections:
            _shut(conn.sock)
        for thread in connections.values():
            thread.join(drain_timeout_s)

    stop_in_thread = stop  # the name sync callers and the benchmark use

    def __enter__(self) -> "SeedService":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the service is listening on."""
        return (self.host, self.port)

    # -- connection handling -------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, __ = listener.accept()
            except OSError:
                if self._listener is not listener:
                    return  # stop() shut the listener
                sleep(0.1)  # out of descriptors, say: back off, then retry
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._counter_lock:
                refused = len(self._connections) >= protocol.MAX_CONNECTIONS
                if refused:
                    self.connections_refused += 1
                else:
                    conn = _Connection(self, sock)
                    thread = self._connections[conn] = threading.Thread(
                        target=self._serve, args=(conn,),
                        name="seed-connection", daemon=True,
                    )
            if refused:
                try:
                    sock.sendall(encode_message(error_response(SeedError(
                        f"too many connections: {protocol.MAX_CONNECTIONS} are open"
                    ))))
                except OSError:  # pragma: no cover - the peer already left
                    pass
                sock.close()
            else:
                thread.start()

    def _serve(self, conn: _Connection) -> None:
        """Serve one connection until EOF, its peer vanishing, or stop()."""
        rfile = conn.sock.makefile("rb")
        try:
            while True:
                conn.op = None
                try:
                    line = _read_frame(rfile)
                    if not line:
                        break  # EOF: client closed (or crashed)
                    request = decode_message(line)
                    started = perf_counter()
                    conn.lock_wait = 0.0
                    response = _run_to_completion(self._dispatch(request, conn))
                except SeedError as exc:
                    response = error_response(exc)
                except Exception as exc:  # pragma: no cover - defensive
                    response = error_response(SeedError(str(exc)))
                frame = encode_message(response)
                with self._counter_lock:
                    self.requests_served += 1
                    if conn.op is not None:
                        times = self._op_times[conn.op]
                        times[0] += 1
                        times[1] += perf_counter() - started
                        times[2] += conn.lock_wait
                        if conn.op == "read" and response["ok"]:
                            self.reads_served += 1
                try:
                    conn.sock.sendall(frame)
                finally:  # the ack first; then the pass, sent or not
                    if conn.maintain_due:
                        conn.maintain_due = False
                        self._maintain()
        except OSError:
            pass  # stop() or a vanished peer: on to session cleanup
        finally:
            rfile.close()
            # a dropped socket closes every session it opened: the
            # detectable zombie — its locks and standing are released
            # now rather than waiting for the lease to lapse
            with self._write_lock:
                for token in conn.tokens:
                    if self.server.sessions.is_live(token):
                        self.server.close_session(token)
            conn.sock.close()
            with self._counter_lock:
                del self._connections[conn]

    async def _dispatch(
        self, request: dict[str, Any], conn: _Connection
    ) -> dict[str, Any]:
        # the one place a request's shape is checked — before any lock
        check_request(request)
        conn.op = request["op"]
        return getattr(self, f"_op_{conn.op}")(request, conn)

    # -- session ops (serialized writers) ------------------------------------

    def _op_ping(self, request, conn) -> dict[str, Any]:
        return ok_response({"pong": True})

    def _op_connect(self, request, conn) -> dict[str, Any]:
        with conn:
            session = self.server.open_session(request["client_id"])
        conn.tokens.add(session.token)
        return ok_response({"token": session.token})

    def _op_disconnect(self, request, conn) -> dict[str, Any]:
        token = request["token"]
        with conn:
            self.server.close_session(token)
        conn.tokens.discard(token)
        return ok_response({"closed": True})

    def _op_renew(self, request, conn) -> dict[str, Any]:
        with conn:
            renewed = self.server.renew(request["token"])
        return ok_response({"renewed": renewed})

    # -- check-out / check-in (serialized writers) ---------------------------

    def _op_check_out(self, request, conn) -> dict[str, Any]:
        with conn:
            ticket = self.server.check_out(request["token"], request["names"])
        return ok_response({"ticket": ticket_to_dict(ticket)})

    def _op_check_in(self, request, conn) -> dict[str, Any]:
        try:
            package = package_from_dict(request["package"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SeedError(
                f"check_in: field 'package' is malformed: {exc!r}"
            ) from None
        with conn:
            # a rejected apply raises before anything is published
            translation = self.server.apply_check_in(request["token"], package)
            version = self.server.publish_snapshot()
            self._accepted_since_maintain += 1
            if (
                self.maintain_every
                and self._accepted_since_maintain >= self.maintain_every
            ):
                self._accepted_since_maintain = 0
                self.maintenance_scheduled += 1
                conn.maintain_due = True
        return ok_response(
            {
                "translation": [
                    [local, master] for local, master in translation.items()
                ],
                "version": str(version),
            }
        )

    def _op_abandon(self, request, conn) -> dict[str, Any]:
        with conn:
            self.server.abandon(request["token"])
        return ok_response({"abandoned": True})

    # -- MVCC reads (never queue on the write lock) --------------------------

    def _op_pin(self, request, conn) -> dict[str, Any]:
        """Publish-or-reuse the current snapshot; returns its version.

        Publication may create a version (a write), so it serializes
        with the writers; subsequent ``read`` ops against the pinned
        version run lock-free.
        """
        with conn:
            version = self.server.publish_snapshot()
        return ok_response({"version": str(version)})

    def _op_read(self, request, conn) -> dict[str, Any]:
        # cached-only: a read never materializes a view concurrently
        # with a writer; an evicted pin errors and the client re-pins
        view = self.server.snapshot(request["version"], build=False)
        query = request["query"]
        kind = query["kind"]
        if kind == "find":
            obj = view.find(query["name"])
            found = None if obj is None else _view_object_summary(obj)
            return ok_response({"object": found})
        if kind == "objects":
            objects = view.objects(query.get("class_name"))
            return ok_response(
                {"objects": [_view_object_summary(obj) for obj in objects]}
            )
        return ok_response(  # kind == "count": the table admits no other
            {
                "objects": view.object_count(),
                "relationships": view.relationship_count(),
            }
        )

    def _op_stats(self, request, conn) -> dict[str, Any]:
        server = self.server
        with conn:  # the session and lock tables hold still
            published = server.latest_snapshot()
            result = {
                "clients": server.clients(),
                "live_sessions": len(server.sessions),
                "live_locks": len(server.locks),
                "checkins_applied": server.checkins_applied,
                "checkins_rejected": server.checkins_rejected,
                "maintenance_runs": server.maintenance_runs,
                "maintenance_failures": self.maintenance_failures,
                "maintenance_error": self.maintenance_error,
                "published": None if published is None else str(published),
                "pinned": server.pinned_snapshots(),
            }
        with self._counter_lock:
            result.update(
                requests_served=self.requests_served,
                reads_served=self.reads_served,
                connections_refused=self.connections_refused,
                ops={
                    op: {"count": n, "server_s": busy, "lock_wait_s": wait}
                    for op, (n, busy, wait) in self._op_times.items()
                },
            )
        return ok_response(result)

    # -- maintenance between check-ins ---------------------------------------

    def _maintain(self) -> None:
        """The pass a check-in made due; a failure is counted, not raised."""
        with self._write_lock:
            if self._stopped:
                return  # the journal is closed; the pass is dropped
            try:
                self.server.maintain()
            except Exception as exc:  # the connection keeps serving
                self.maintenance_failures += 1
                self.maintenance_error = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# the blocking wire client
# ---------------------------------------------------------------------------

class ServiceClient(CopyHolder):
    """A client of a remote :class:`SeedService` (blocking socket).

    The update surface is the in-process
    :class:`~repro.multiuser.client.SeedClient`'s — the shared
    :class:`~repro.multiuser.client.CopyHolder`, reaching the server
    through :meth:`_call`: ``connect`` mints the session, ``check_out``
    materializes a local :class:`~repro.core.database.SeedDatabase`
    copy from the wire ticket, ``check_in`` diffs it against the
    baseline and ships the package. The
    read surface is MVCC: ``pin`` publishes-or-reuses a snapshot and
    subsequent ``find``/``objects``/``counts`` answer from that pinned
    version until ``pin`` is called again — consistent-as-of-pin by
    construction. One socket per client; instances are not shared
    across threads (each worker opens its own).
    """

    def __init__(
        self,
        host: str,
        port: int,
        schema: Schema,
        *,
        client_id: Optional[str] = None,
        timeout: Optional[float] = 30.0,
    ) -> None:
        super().__init__()
        self.schema = schema
        self.client_id = client_id
        self.token: Optional[str] = None
        self.pinned: Optional[str] = None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        if client_id is not None:
            try:
                self.connect(client_id)
            except BaseException:
                # nobody gets a handle to close: a refused session
                # (a duplicate client id, say) must not leak the socket
                self.close()
                raise

    @classmethod
    def for_service(
        cls, service: SeedService, client_id: Optional[str] = None, **kwargs
    ) -> "ServiceClient":
        """Connect to a started (possibly thread-hosted) service."""
        host, port = service.address
        return cls(
            host, port, service.server.master.schema,
            client_id=client_id, **kwargs,
        )

    # -- wire plumbing -------------------------------------------------------

    def _call(self, op: str, **params: Any) -> dict[str, Any]:
        request = {"op": op, **params}
        if self.token is not None and "token" not in request:
            request["token"] = self.token
        self._file.write(encode_message(request))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise SeedError("service closed the connection")
        response = decode_message(line)
        if not response.get("ok"):
            raise_remote_error(response)
        return response["result"]

    def close(self) -> None:
        """Close the socket (the service closes the session with it)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- session -------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._call("ping").get("pong"))

    def connect(self, client_id: str) -> str:
        """Open the session; returns (and stores) the token credential."""
        result = self._call("connect", client_id=client_id)
        self.client_id = client_id
        self.token = result["token"]
        return self.token

    def disconnect(self) -> None:
        """Close the session (locks released, standing dropped)."""
        self._call("disconnect")
        self.token = None
        self._drop_copy()

    def renew(self) -> int:
        """Keep the session, its lock leases, and standing alive."""
        return self._call("renew")["renewed"]

    # -- check-out / check-in: CopyHolder, reached over the wire -------------

    _origin = "wire"

    def _fetch_ticket(self, names: tuple[str, ...]) -> CheckOutTicket:
        result = self._call("check_out", names=list(names))
        return ticket_from_dict(result["ticket"])

    def _submit_package(self, package: CheckInPackage) -> dict[int, int]:
        result = self._call("check_in", package=package_to_dict(package))
        return dict(result["translation"])

    def _release_copy(self) -> None:
        self._call("abandon")

    # -- MVCC reads ----------------------------------------------------------

    def pin(self) -> str:
        """Pin the current published snapshot; reads answer from it."""
        self.pinned = self._call("pin")["version"]
        return self.pinned

    def _read(self, query: dict[str, Any]) -> dict[str, Any]:
        if self.pinned is None:
            self.pin()
        return self._call("read", version=self.pinned, query=query)

    def find(self, name: str) -> Optional[dict[str, Any]]:
        """The pinned view's object summary for *name* (or None)."""
        found = self._read({"kind": "find", "name": name})["object"]
        if found is not None:
            found["value"] = decode_value(found["value"])
        return found

    def objects(self, class_name: Optional[str] = None) -> list[dict[str, Any]]:
        """Summaries of the pinned view's objects (optionally by class)."""
        objects = self._read(
            {"kind": "objects", "class_name": class_name}
        )["objects"]
        for obj in objects:
            obj["value"] = decode_value(obj["value"])
        return objects

    def counts(self) -> tuple[int, int]:
        """(objects, relationships) in the pinned view."""
        result = self._read({"kind": "count"})
        return result["objects"], result["relationships"]

    def stats(self) -> dict[str, Any]:
        """Service counters (diagnostics)."""
        return self._call("stats")
