"""The central SEED server of the two-level multi-user architecture.

The paper's sketch ("Open problems"): "One central server runs the
complete database and several clients use the server for retrieval
operations, but take local copies for making updates. Data that has been
copied to a client for update has a write lock in the central database.
When a client sends an updated copy back to the server, the server puts
the modified data into the central database in a single transaction.
Versions are kept both locally and globally under control of the user
and the server, respectively."

:class:`SeedServer` implements that architecture. Since PR 7 it is a
real concurrent service core rather than an in-process sketch:

**Sessions.** Every :meth:`connect` mints a session token
(:mod:`repro.multiuser.sessions`); check-out, check-in, renewal, and
abandon all authenticate the token first. Locks and check-out standing
are keyed by token — never by the reusable client id — which
structurally closes the zombie-client holes: a disconnected handle, a
lease-expired one, or a stale pre-disconnect handle after a reconnect
cannot check in anything (create-only packages included) or touch the
successor session's locks.

**MVCC snapshot reads.** :meth:`publish_snapshot` publishes a
consistent read view of the master's current state; :meth:`snapshot`
serves pinned views from a bounded cache. A publication is not a
version: the master's state sink reports every item a commit, a
rollback or a restore may have written (check-ins and direct master
transactions alike), and the next publication lays the live states of
just those items over the view published before it
(:meth:`VersionManager.view
<repro.core.versions.manager.VersionManager.view>` with ``changed``),
at O(pages + change) and with nothing written to the journal. It is
named by a server-local snapshot id (``p1``, ``p2``, ...), which no
restart keeps. A view's tables are paged
(:mod:`repro.core.versions.view`): the successor copies the page
directories and the pages the change wrote, and shares every other
page, the frozen item states and every child and incidence list with
the pinned view, which never changes. Reads against a pinned view
therefore never block on (and are never torn by) an in-flight
check-in, ``bulk()`` batch or publication. A check-out ticket takes
its frozen states from the standing publication too. The wire layer
(:mod:`repro.multiuser.service`) serves each connection on its own
thread: a check-in applies and publishes under the write lock, while
the other connections' threads pin and read without it (a pin takes
it only to publish a change made outside a wire check-in,
:meth:`publication_stale`).

**Global versions** are the ones people make ("kept ... globally
under control of the user and the server"):
:meth:`create_global_version` and the ``repro`` commands; no check-in
mints one, and ``master.version_view`` reads them. :meth:`maintain`
compacts the version store (chain squashing and tombstone GC) on
demand.

Durability: bind a
:class:`~repro.core.storage.engine.JournaledDatabase` (``journal=`` or
:meth:`open`) and accepted check-ins are durable at O(change) via
write-ahead deltas, one fsync'd ``checkin`` record each — and so
are *direct* master transactions, through
the journal's post-commit txn sink (suspended while a check-in package
applies, since the check-in delta already covers those commits).
:meth:`maintain` additionally enforces the journal's ``byte_budget``
so a long-lived server's journal stays bounded.
Liveness is unchanged from PR 6: pass ``lease_seconds`` and a crashed
client's locks — and, since PR 7, its check-out standing — expire
together.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.core import faults
from repro.core.database import SeedDatabase
from repro.core.errors import CheckInError, SeedError, VersionError
from repro.core.objects import ObjectState, SeedObject
from repro.core.relationships import RelationshipState
from repro.core.schema.schema import Schema
from repro.core.storage.engine import JournaledDatabase
from repro.core.versions.compaction import CompactionStats, DEFAULT_MAINTENANCE
from repro.core.versions.store import ItemKey
from repro.core.versions.version_id import VersionId
from repro.core.versions.view import VersionView
from repro.multiuser.locks import LockTable
from repro.multiuser.sessions import Session, SessionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multiuser.client import SeedClient

__all__ = ["CheckOutTicket", "SeedServer"]

#: publications kept readable (oldest evicted first, never the standing
#: one). A reader's pin survives this many later check-ins; a view costs
#: only the pages no neighbour shares, so the window is kept wide
DEFAULT_SNAPSHOT_CACHE = 16


@dataclass
class CheckOutTicket:
    """Everything a client needs to materialize its local copy.

    Pure data (frozen item states), so it serializes over the wire
    (:mod:`repro.multiuser.protocol`) exactly as it hands off
    in-process. ``keys`` are the write locks granted to the session;
    ``next_id_floor`` keeps locally created ids clear of every master
    id so check-in translation is unambiguous.
    """

    objects: list[tuple[int, ObjectState]]
    relationships: list[tuple[int, RelationshipState]]
    keys: list[ItemKey]
    next_id_floor: int


class SeedServer:
    """The central database plus sessions, locks, snapshots, versions."""

    def __init__(
        self,
        schema: Optional[Schema] = None,
        name: str = "central",
        *,
        journal: Optional[JournaledDatabase] = None,
        lease_seconds: Optional[float] = None,
        session_seconds: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if journal is not None:
            self.journal: Optional[JournaledDatabase] = journal
            self.master = journal.db
        else:
            if schema is None:
                raise SeedError("SeedServer needs a schema or a journal")
            self.journal = None
            self.master = SeedDatabase(schema, name)
        self.sessions = SessionManager(
            session_seconds=session_seconds, clock=clock
        )
        self.locks = LockTable(
            lease_seconds=lease_seconds,
            clock=clock,
            # conflicts must name the user, not the opaque credential
            owner_alias=lambda token: self.sessions.client_of(token) or token,
        )
        #: in-process client handles by client id (live sessions only)
        self._clients: dict[str, "SeedClient"] = {}
        #: session token -> standing expiry (None = leaseless standing);
        #: standing is the right to check a copy back in
        self._standing: dict[str, Optional[float]] = {}
        #: the newest publications by snapshot id, oldest first
        self._views: "OrderedDict[str, VersionView]" = OrderedDict()
        #: the standing publication's snapshot id
        self._published: Optional[str] = None
        self._publications = 0
        #: keys of items whose state may have changed since the standing
        #: publication, fed by the master's state sink (beside a
        #: journal's image fragments)
        touched: set[ItemKey] = set()
        self._touched = touched
        fragments = self.master._state_sink  # noqa: SLF001 - the seam

        def report(key: ItemKey) -> None:
            touched.add(key)
            fragments(key)

        self.master._state_sink = touched.add if fragments is None else report  # noqa: SLF001
        # -- service counters (diagnostics, surfaced by `repro serve`) --
        self.checkins_applied = 0
        self.checkins_rejected = 0
        self.maintenance_runs = 0

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        schema: Optional[Schema] = None,
        name: str = "central",
        lease_seconds: Optional[float] = None,
        session_seconds: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        strict: bool = False,
        byte_budget: Optional[int] = None,
    ) -> "SeedServer":
        """A journal-bound server: open (or create) the journal at *path*.

        *clock* drives the session and lock leases only.
        """
        journal = JournaledDatabase.open(
            path, schema=schema, name=name, strict=strict,
            byte_budget=byte_budget,
        )
        return cls(
            journal=journal,
            lease_seconds=lease_seconds,
            session_seconds=session_seconds,
            clock=clock,
        )

    def checkpoint(self) -> int:
        """Append a full image to the journal; returns the file size."""
        if self.journal is None:
            raise SeedError("server has no journal to checkpoint to")
        return self.journal.checkpoint()

    # -- session lifecycle ---------------------------------------------------

    def connect(self, client_id: str) -> "SeedClient":
        """Open a session and hand out an in-process client handle.

        Wire clients use :meth:`open_session` (via the service) instead;
        both paths mint the same kind of session. A client id with a
        live session cannot connect twice; after :meth:`disconnect` the
        id is free again — and gets a *fresh token*, so the previous
        handle's locks and standing stay out of reach.
        """
        from repro.multiuser.client import SeedClient

        session = self.open_session(client_id)
        client = SeedClient(self, client_id, session.token)
        self._clients[client_id] = client
        return client

    def open_session(self, client_id: str) -> Session:
        """Authenticate a client and mint its session token."""
        return self.sessions.open(client_id)

    def disconnect(self, client_id: str) -> None:
        """Drop a client's live session; locks released, work abandoned."""
        session = self.sessions.find_live(client_id)
        self._clients.pop(client_id, None)
        if session is not None:
            self.close_session(session.token)

    def close_session(self, token: str) -> None:
        """End the session behind *token*; its locks and standing die."""
        session = self.sessions.close(token)
        self._clients.pop(session.client_id, None)
        self.locks.release(token)
        self._standing.pop(token, None)

    def renew(self, token: str) -> int:
        """Touch the session and extend its lock leases and standing.

        Returns the number of locks renewed. A dead session raises
        :class:`~repro.core.errors.SessionError`; locks whose lease
        already lapsed are not renewed (the client must check out
        again).
        """
        self.sessions.validate(token)
        renewed = self.locks.renew(token)
        if token in self._standing:
            self._standing[token] = self.locks.default_expiry()
        return renewed

    def clients(self) -> list[str]:
        """Client ids with live sessions (in-process and wire alike)."""
        return sorted(session.client_id for session in self.sessions.live())

    # -- retrieval (live master; see snapshot() for MVCC reads) -------------

    def find_object(self, name: str) -> Optional[SeedObject]:
        """Retrieval passthrough to the live master database."""
        return self.master.find_object(name)

    def objects(self, class_name: Optional[str] = None) -> list[SeedObject]:
        """Retrieval passthrough to the live master database."""
        return self.master.objects(class_name)

    # -- MVCC snapshot reads -------------------------------------------------

    def publish_snapshot(self) -> str:
        """Publish a consistent read view of the master; returns its
        snapshot id.

        When an item may have changed since the standing publication (or
        none exists), the live states of the changed items are laid over
        it: a successor view at O(pages + change), with no version and
        no journal record. Readers pin whatever is published; a view is
        immutable, so pinned reads proceed while the next check-in
        applies.
        """
        if not self.publication_stale():
            return self._published
        self._publications += 1
        snapshot = f"p{self._publications}"
        base = self._views.get(self._published)
        self._views[snapshot] = self.master.versions.view(snapshot, base, self._touched)
        self._touched.clear()
        # cached before it stands: a lock-free pin may read it at once
        self._published = snapshot
        while len(self._views) > DEFAULT_SNAPSHOT_CACHE:
            self._views.popitem(last=False)  # the oldest; never the newest
        return snapshot

    def publication_stale(self) -> bool:
        """True when the master may differ from the standing publication:
        nothing is published yet, a commit, rollback or restore touched
        an item since (a direct master transaction included), or the
        schema migrated. Safe to ask without the write lock."""
        base = self._views.get(self._published)
        return (
            base is None
            or bool(self._touched)
            or base.schema is not self.master.schema
        )

    def latest_snapshot(self) -> Optional[str]:
        """The standing publication's snapshot id (None before the first)."""
        return self._published

    def snapshot(self, version: Optional[str] = None) -> VersionView:
        """A pinned read view: the publication standing now (published
        first if the master changed), or the cached publication
        *version* — a snapshot id (``p<N>``), never a global version id
        (``master.version_view`` reads those). Nothing is ever rebuilt,
        so a read never materializes anything beside a writer: an
        evicted pin raises :class:`~repro.core.errors.VersionError`, and
        the reader pins afresh."""
        key = self.publish_snapshot() if version is None else version
        view = self._views.get(key)
        if view is None:
            raise VersionError(
                f"snapshot {key} is no longer pinned (cache holds the "
                f"newest {DEFAULT_SNAPSHOT_CACHE} publications); pin a fresh "
                "one (a global version is read with master.version_view)"
            )
        return view

    def pinned_snapshots(self) -> list[str]:
        """Snapshot ids of the cached publications."""
        return list(self._views)

    # -- maintenance ---------------------------------------------------------

    def maintain(self) -> CompactionStats:
        """Compact the version store (nothing schedules this).

        Runs chain squashing, snapshot consolidation, and tombstone GC
        under :data:`~repro.core.versions.compaction.DEFAULT_MAINTENANCE`.
        A publication is no version, so pinned readers are untouched.
        When the journal carries a ``byte_budget``, the journal file is
        bounded too.
        """
        stats = self.master.compact(DEFAULT_MAINTENANCE)
        if self.journal is not None and self.journal.byte_budget is not None:
            self.journal.enforce_budget()
        self.maintenance_runs += 1
        return stats

    # -- check-out -----------------------------------------------------------

    def closure(
        self, names: Iterable[str]
    ) -> tuple[list[SeedObject], list[ItemKey]]:
        """The copy set of a check-out: the named objects' roots with
        their sub-trees, and every relationship among the copied
        objects.

        A copy must be self-contained to be checked for consistency
        locally, so every pattern a copied object inherits joins the
        copy set (with *its* sub-tree and relationships, recursively).
        One walk of each sub-tree finds those patterns and lists the
        objects. Returns (objects, item keys incl. relationships).
        Relationships with only one endpoint in the set are *not*
        copied (they remain retrievable from the server and updatable
        by whoever owns the other end's lock set). Collected through
        the incidence index — O(copied objects + their incident
        relationships), not O(all relationships in the master).
        """
        master = self.master
        objects: list[SeedObject] = []
        oids: set[int] = set()
        frontier = [
            master.get_object(name, include_patterns=True) for name in names
        ]
        while frontier:
            root = frontier.pop().root
            if root.oid in oids:
                continue
            for node in root.walk():
                oids.add(node.oid)
                objects.append(node)
                frontier.extend(master.patterns.patterns_of(node))
        keys: list[ItemKey] = [("o", obj.oid) for obj in objects]
        copied_rids: set[int] = set()
        for obj in objects:
            for rel in master.relationships_of_object(obj, include_patterns=True):
                if rel.rid in copied_rids:
                    continue
                if all(bound.oid in oids for bound in rel.bound_objects()):
                    copied_rids.add(rel.rid)
        # ascending rid = master creation order, identical to the scan
        keys.extend(("r", rid) for rid in sorted(copied_rids))
        return objects, keys

    def check_out(self, token: str, names: Iterable[str]) -> CheckOutTicket:
        """Lock the named objects' closure for the session behind *token*.

        Validates the session, resolves the closure, acquires the write
        locks (all or nothing), records check-out *standing* (stamped
        with the same lease expiry as the locks), and returns the
        frozen copy set. In-process and wire clients both materialize
        their local database from this ticket. States come from the
        standing publication; only an item changed since, or one it
        does not show, is frozen here.
        """
        session = self.sessions.validate(token)
        if token in self._standing:
            raise SeedError(
                f"client {session.client_id!r} already holds a copy; check "
                "it in or abandon it first"
            )
        objects, keys = self.closure(names)
        self.locks.acquire(token, keys)
        self._standing[token] = self.locks.default_expiry()
        master = self.master
        published = self._views.get(self._published)
        current = published is not None and published.schema is master.schema

        def frozen(key: ItemKey, item) -> object:
            state = None
            if current and key not in self._touched:
                state = published.state_of(key)
            return item.freeze() if state is None else state

        relationships = master._relationships  # noqa: SLF001
        count = len(objects)
        return CheckOutTicket(
            objects=[
                (obj.oid, frozen(key, obj)) for key, obj in zip(keys, objects)
            ],
            relationships=[
                (key[1], frozen(key, relationships[key[1]]))
                for key in keys[count:]
            ],
            keys=keys,
            # fresh local ids must not collide with *any* master id
            next_id_floor=master._next_id + 1_000_000,  # noqa: SLF001
        )

    def abandon(self, token: str) -> None:
        """Release the session's locks and standing; nothing is applied."""
        self.sessions.validate(token)
        if token not in self._standing:
            raise SeedError("session has no checked-out copy to abandon")
        self.locks.release(token)
        self._standing.pop(token, None)

    # -- check-in ----------------------------------------------------------------------

    def apply_check_in(
        self, token: str, changes: "CheckInPackage"
    ) -> dict[int, int]:
        """Apply a session's updated copy in a single master transaction.

        Standing is validated first — the zombie-client fix: the caller
        must present a *live* session token (not disconnected, not
        expired) that still holds unexpired check-out standing, so a
        create-only package from a zombie handle is rejected before the
        held-lock validation (which only ever saw modified keys) runs.

        Returns the id translation map (local id -> master id) for items
        the client created. The package replays through the master's
        operational interface inside one :meth:`SeedDatabase.transaction`
        whatever its size: its rollback costs O(items the package
        changed), never O(master). Any consistency violation or
        stale-copy conflict rolls everything back in place — the master
        is left unchanged (surviving handles stay valid) and the client
        keeps its locks and standing (it can fix the copy and retry).
        """
        session = self.sessions.validate(token)
        client_id = session.client_id
        if token not in self._standing:
            raise CheckInError(
                f"client {client_id!r} has no checked-out copy to check in "
                "(no standing: check out first)"
            )
        if self.locks.is_expired(self._standing[token]):
            raise CheckInError(
                f"client {client_id!r} checked in without holding standing: "
                "its lease expired and the locks may have been reclaimed; "
                "abandon and check out again"
            )
        held = set(self.locks.held_by(token))
        for key in changes.changed_existing_keys():
            if key not in held:
                raise CheckInError(
                    f"client {client_id!r} modified {key} without holding "
                    "its lock"
                )
        seq = None
        if self.journal is not None and not changes.is_empty():
            # write-ahead: the delta is durable before the master
            # mutates, so an acknowledged check-in survives a crash
            if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
                faults.fire("checkin.journal.pre_append")
            seq = self.journal.append_delta(package_to_dict(changes))
        suspend = (
            self.journal.suspended_txn_sink()
            if self.journal is not None
            # the check-in delta above already covers these commits
            else nullcontext()
        )
        try:
            with suspend, self.master.transaction():
                translation = changes.apply_to(self.master)
        except BaseException:
            self.checkins_rejected += 1
            if seq is not None:
                # neutralize the journaled delta; if *this* append is
                # lost to a crash too, replay re-fails the delta
                # deterministically — same committed state either way
                self.journal.append_abort(seq)
                if self.journal.byte_budget is not None:
                    self.journal.enforce_budget()
            raise
        self.locks.release(token)
        self._standing.pop(token, None)
        self.checkins_applied += 1
        if self.journal is not None and self.journal.byte_budget is not None:
            # safe trigger point: the delta's effects are applied, so a
            # checkpoint taken by enforcement already contains them
            self.journal.enforce_budget()
        return translation

    # -- global versions -------------------------------------------------------------------

    def create_global_version(self) -> VersionId:
        """Snapshot the central database (server-controlled versions);
        the one way a server mints a version."""
        return self.master.create_version()

    def global_versions(self) -> list[VersionId]:
        """All server-side versions."""
        return self.master.saved_versions()


# imported late to avoid a cycle in type checking; re-exported for typing
from repro.multiuser.checkin import (  # noqa: E402  (cycle guard)
    CheckInPackage,
    package_to_dict,
)
