"""The networked multi-user service: many clients, one central server.

:class:`SeedService` exposes a :class:`~repro.multiuser.server.SeedServer`
over a socket (JSON-lines protocol, :mod:`repro.multiuser.protocol`) on
an asyncio event loop. The concurrency model mirrors the paper's
two-level sketch:

* **writes are serialized** — connect/disconnect, check-out, check-in,
  abandon, and snapshot publication queue on one ``asyncio.Lock``; the
  master database is single-writer by construction;
* **reads never wait for writers** — retrieval runs against *pinned
  snapshot views* (fully materialized, immutable
  :class:`~repro.core.versions.view.VersionView` objects), so a reader
  holding a pin keeps getting consistent answers while a check-in —
  even a large one — is applying. The check-in itself runs
  in a thread executor, so the event loop keeps answering reads
  mid-apply;
* **maintenance runs between check-ins** — every ``maintain_every``
  accepted check-ins the service queues a background
  :meth:`~repro.multiuser.server.SeedServer.maintain` pass (compaction
  + tombstone GC) on the same write lock, with every pinned snapshot
  protected.

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

import asyncio
import socket
import threading
from typing import Any, Optional

from repro.core.errors import SeedError
from repro.core.schema.schema import Schema
from repro.core.storage.serialize import decode_value, encode_value
from repro.multiuser.checkin import (
    CheckInPackage,
    package_from_dict,
    package_to_dict,
)
from repro.multiuser.client import CopyHolder
from repro.multiuser.protocol import (
    MAX_REQUEST_BYTES,
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

#: accepted check-ins between background maintenance passes (0 = never)
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
        self.port = port  # 0 = ephemeral; real port known after start()
        self.maintain_every = maintain_every
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._write_lock: Optional[asyncio.Lock] = None
        self._maintenance_task: Optional[asyncio.Task] = None
        self._accepted_since_maintain = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: set[asyncio.Task] = set()
        # -- service counters (stats op / `repro serve` log) --
        self.requests_served = 0
        self.reads_served = 0
        self.maintenance_scheduled = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (ephemeral port resolved)."""
        if self._asyncio_server is not None:
            raise SeedError("service is already started")
        self._loop = asyncio.get_running_loop()
        self._write_lock = asyncio.Lock()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_REQUEST_BYTES,
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def stop(
        self,
        *,
        drain_timeout_s: Optional[float] = None,
        final_checkpoint: bool = False,
    ) -> None:
        """Graceful shutdown: refuse, drain, optionally flush, close.

        New connections are refused first; then in-flight work is
        drained by waiting for pending maintenance and acquiring the
        write lock (holding it proves no check-in or maintenance pass
        is mid-apply). *drain_timeout_s* bounds each wait so a hung
        apply cannot wedge shutdown — on timeout the work is abandoned
        (its executor thread finishes on its own; the master rolls back
        on failure as usual, and an un-acked check-in's journal record
        replays on the next open). A drained journal-bound server
        always flushes the group-commit buffer — shutdown is a hard
        durability barrier, so buffered commits are never lost to a
        clean stop even without a checkpoint. With *final_checkpoint*,
        it additionally appends a final checkpoint and compacts the
        journal before the remaining connections are closed — the
        ``repro serve`` SIGTERM/SIGINT path. Either way a drained stop
        then closes the journal's file handle
        (:meth:`~repro.core.storage.engine.JournaledDatabase.close`).
        """
        if self._asyncio_server is None:
            return
        # refuse new connections; in-flight requests keep running
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        self._asyncio_server = None
        if self._maintenance_task is not None:
            try:
                if drain_timeout_s is None:
                    await self._maintenance_task
                else:
                    await asyncio.wait_for(
                        self._maintenance_task, drain_timeout_s
                    )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass  # pragma: no cover - hung/raced maintenance
            self._maintenance_task = None
        drained = True
        try:
            if drain_timeout_s is None:
                await self._write_lock.acquire()
            else:
                await asyncio.wait_for(
                    self._write_lock.acquire(), drain_timeout_s
                )
        except asyncio.TimeoutError:  # pragma: no cover - hung apply
            drained = False
        try:
            if drained and self.server.journal is not None:
                if final_checkpoint:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.server.journal.save_point
                    )
                else:
                    # shutdown drain is a durability barrier even
                    # without a checkpoint: flush buffered group
                    # commits so a clean stop never loses them
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.server.journal.flush
                    )
                self.server.journal.close()
        finally:
            if drained:
                self._write_lock.release()
        # connections still open (clients that never closed their
        # socket): cancel their handlers so session cleanup runs now
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled — the CLI path."""
        if self._asyncio_server is None:
            await self.start()
        await self._asyncio_server.serve_forever()

    # Thread-hosted lifecycle: tests and sync callers run the event loop
    # in a daemon thread and drive it with blocking wire clients.

    def start_in_thread(self) -> "SeedService":
        """Run the service on a fresh event loop in a background thread."""
        if self._thread is not None:
            raise SeedError("service thread is already running")
        loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover - bind failure
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="seed-service", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:  # pragma: no cover - bind failure
            self._thread = None
            raise failure[0]
        return self

    def stop_in_thread(self) -> None:
        """Stop the thread-hosted service and join the thread."""
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SeedService":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop_in_thread()

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the service is listening on."""
        return (self.host, self.port)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        opened_tokens: set[str] = set()
        self._connections.add(asyncio.current_task())
        try:
            while True:
                try:
                    line = await self._read_frame(reader)
                    if not line:
                        break  # EOF: client closed (or crashed)
                    request = decode_message(line)
                    response = await self._dispatch(request, opened_tokens)
                except SeedError as exc:
                    response = error_response(exc)
                except Exception as exc:  # pragma: no cover - defensive
                    response = error_response(SeedError(str(exc)))
                self.requests_served += 1
                writer.write(encode_message(response))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass  # shutdown or a vanished peer: on to session cleanup
        finally:
            self._connections.discard(asyncio.current_task())
            # a dropped socket closes every session it opened: the
            # detectable zombie — its locks and standing are released
            # now rather than waiting for the lease to lapse
            zombies = [
                token
                for token in opened_tokens
                if self.server.sessions.is_live(token)
            ]
            if zombies:
                async with self._write_lock:
                    for token in zombies:
                        if self.server.sessions.is_live(token):
                            self.server.close_session(token)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> bytes:
        """One request line, ``b""`` at EOF. A frame over the limit is
        discarded through its newline (outside the write lock, like every
        read), then raises the typed error; the next frame parses cleanly.
        """
        oversized = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # EOF (a partial last line, as readline)
            except asyncio.LimitOverrunError as exc:
                await reader.readexactly(exc.consumed)  # buffered: discard
                oversized = True
                continue
            if oversized:
                raise SeedError(
                    f"request too large: over {MAX_REQUEST_BYTES} bytes"
                )
            return line

    async def _dispatch(
        self, request: dict[str, Any], opened_tokens: set[str]
    ) -> dict[str, Any]:
        # the one place a request's shape is checked — before any lock
        check_request(request)
        handler = getattr(self, f"_op_{request['op']}")
        return await handler(request, opened_tokens)

    # -- session ops (serialized writers) ------------------------------------

    async def _op_ping(self, request, opened_tokens) -> dict[str, Any]:
        return ok_response({"pong": True})

    async def _op_connect(self, request, opened_tokens) -> dict[str, Any]:
        async with self._write_lock:
            session = self.server.open_session(request["client_id"])
        opened_tokens.add(session.token)
        return ok_response({"token": session.token})

    async def _op_disconnect(self, request, opened_tokens) -> dict[str, Any]:
        token = request["token"]
        async with self._write_lock:
            self.server.close_session(token)
        opened_tokens.discard(token)
        return ok_response({"closed": True})

    async def _op_renew(self, request, opened_tokens) -> dict[str, Any]:
        async with self._write_lock:
            renewed = self.server.renew(request["token"])
        return ok_response({"renewed": renewed})

    # -- check-out / check-in (serialized writers) ---------------------------

    async def _op_check_out(self, request, opened_tokens) -> dict[str, Any]:
        async with self._write_lock:
            ticket = self.server.check_out(request["token"], request["names"])
        return ok_response({"ticket": ticket_to_dict(ticket)})

    async def _op_check_in(self, request, opened_tokens) -> dict[str, Any]:
        token = request["token"]
        try:
            package = package_from_dict(request["package"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SeedError(
                f"check_in: field 'package' is malformed: {exc!r}"
            ) from None

        def apply_and_publish():
            # a rejected apply raises before anything is published
            translation = self.server.apply_check_in(token, package)
            return translation, self.server.publish_snapshot()

        async with self._write_lock:
            # apply and publish in the executor, one hand-off: the event
            # loop stays free to serve pinned snapshot reads while the
            # master mutates
            loop = asyncio.get_running_loop()
            translation, version = await loop.run_in_executor(
                None, apply_and_publish
            )
        self._accepted_since_maintain += 1
        if (
            self.maintain_every
            and self._accepted_since_maintain >= self.maintain_every
        ):
            self._accepted_since_maintain = 0
            self._queue_maintenance()
        return ok_response(
            {
                "translation": [
                    [local, master] for local, master in translation.items()
                ],
                "version": str(version),
            }
        )

    async def _op_abandon(self, request, opened_tokens) -> dict[str, Any]:
        async with self._write_lock:
            self.server.abandon(request["token"])
        return ok_response({"abandoned": True})

    # -- MVCC reads (never queue on the write lock) --------------------------

    async def _op_pin(self, request, opened_tokens) -> dict[str, Any]:
        """Publish-or-reuse the current snapshot; returns its version.

        Publication may create a version (a write), so it serializes
        with the writers; subsequent ``read`` ops against the pinned
        version run lock-free.
        """
        async with self._write_lock:
            version = self.server.publish_snapshot()
        return ok_response({"version": str(version)})

    async def _op_read(self, request, opened_tokens) -> dict[str, Any]:
        # cached-only: a read never materializes a view concurrently
        # with a writer; an evicted pin errors and the client re-pins
        view = self.server.snapshot(request["version"], build=False)
        query = request["query"]
        kind = query["kind"]
        self.reads_served += 1
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

    async def _op_stats(self, request, opened_tokens) -> dict[str, Any]:
        server = self.server
        published = server.latest_snapshot()
        return ok_response(
            {
                "clients": server.clients(),
                "live_sessions": len(server.sessions),
                "live_locks": len(server.locks),
                "checkins_applied": server.checkins_applied,
                "checkins_rejected": server.checkins_rejected,
                "maintenance_runs": server.maintenance_runs,
                "requests_served": self.requests_served,
                "reads_served": self.reads_served,
                "published": None if published is None else str(published),
                "pinned": server.pinned_snapshots(),
            }
        )

    # -- background maintenance ----------------------------------------------

    def _queue_maintenance(self) -> None:
        """Queue a compaction pass on the write lock (between check-ins)."""
        if self._maintenance_task is not None and not self._maintenance_task.done():
            return  # one pass at a time; the next check-in re-queues
        self.maintenance_scheduled += 1
        self._maintenance_task = asyncio.get_running_loop().create_task(
            self._run_maintenance()
        )

    async def _run_maintenance(self) -> None:
        loop = asyncio.get_running_loop()
        async with self._write_lock:
            await loop.run_in_executor(None, self.server.maintain)


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
