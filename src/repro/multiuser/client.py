"""SEED clients: local copies for update, check-in to the server.

"several clients use the server for retrieval operations, but take
local copies for making updates" — a :class:`SeedClient` checks out a
set of objects (with their sub-trees, the relationships among them, and
any patterns they inherit), works on a private
:class:`~repro.core.database.SeedDatabase` copy with full SEED semantics
(consistency checking, local versions, transactions), and checks the
updated copy back in as one server-side transaction.

Every client is bound to a **session token** minted at
:meth:`~repro.multiuser.server.SeedServer.connect`; the server
authenticates the token on each check-out, check-in, renewal, and
abandon. A handle that outlives its session — its client disconnected,
its session or lease expired, or its client id reconnected and got a
fresh token — fails every operation with
:class:`~repro.core.errors.SessionError` instead of acting on locks it
no longer owns. The copy-holding state machine itself is
:class:`CopyHolder`, shared with the wire client
(:class:`~repro.multiuser.service.ServiceClient`): the two differ only
in how they reach the server.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.bulk import load_item_states
from repro.core.database import SeedDatabase
from repro.core.errors import SeedError
from repro.core.objects import ObjectState, SeedObject
from repro.core.relationships import RelationshipState
from repro.core.schema.schema import Schema
from repro.core.versions.store import ItemKey
from repro.core.versions.version_id import VersionId
from repro.multiuser.checkin import CheckInPackage, build_package

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multiuser.server import CheckOutTicket, SeedServer

__all__ = ["CopyHolder", "SeedClient", "materialize_ticket"]


def materialize_ticket(
    schema: Schema, name: str, ticket: "CheckOutTicket"
) -> SeedDatabase:
    """A fresh local database holding a check-out ticket's copy set.

    One-shot: the ticket's frozen states are handed to the shared bulk
    state materializer, which wires parents, name index, incidence,
    patterns, and indexes in a single pass (checkout at index-rebuild
    speed — no per-item maintenance). Shared by the in-process client
    and the wire client: the ticket is pure data either way.
    """
    local = SeedDatabase(schema, name)
    load_item_states(
        local,
        iter(ticket.objects),
        iter(ticket.relationships),
        next_id_floor=ticket.next_id_floor,
    )
    # unsaved: the copy's first local version holds every item, so that
    # selecting it restores the copy
    local._dirty.update(ticket.keys)  # noqa: SLF001
    return local


class CopyHolder:
    """The copy-holding state machine of a client, kept once.

    Check-out materializes a private local database, remembers the
    baseline it was copied from, and from then on collects the key of
    every item the copy's state sink reports; check-in diffs just those
    items against that baseline and ships the package; abandon drops
    it. A subclass says only how the server is reached —
    :meth:`_fetch_ticket`, :meth:`_submit_package`,
    :meth:`_release_copy` — and what the copy is built from: ``schema``
    (the master's) and ``_origin`` (the local database is named
    ``<origin>@<client id>``).
    """

    def __init__(self) -> None:
        self._local: Optional[SeedDatabase] = None
        self._baseline_objects: dict[int, ObjectState] = {}
        self._baseline_relationships: dict[int, RelationshipState] = {}
        #: keys of the local items written since materialization
        self._changed: set[ItemKey] = set()

    # -- how the server is reached (the subclass's whole job) ---------------

    def _fetch_ticket(self, names: tuple[str, ...]) -> "CheckOutTicket":
        """Check *names* out under the session; the frozen copy set."""
        raise NotImplementedError

    def _submit_package(self, package: CheckInPackage) -> dict[int, int]:
        """Check *package* in; the local → master id translation."""
        raise NotImplementedError

    def _release_copy(self) -> None:
        """Give the locks back without applying anything."""
        raise NotImplementedError

    # -- check-out ------------------------------------------------------------

    @property
    def local(self) -> SeedDatabase:
        """The local copy; only available between check-out and check-in."""
        if self._local is None:
            raise SeedError(
                f"client {self.client_id!r} has no checked-out copy"
            )
        return self._local

    @property
    def has_copy(self) -> bool:
        """True while a local copy is checked out."""
        return self._local is not None

    def check_out(self, *names: str) -> SeedDatabase:
        """Copy the named objects (closure) for local update.

        The closure comprises the objects' sub-trees, every relationship
        among copied objects, and every pattern a copied object inherits
        (with *its* sub-tree and relationships, recursively) — a copy
        must be self-contained to be checked for consistency locally.
        Write locks are taken centrally under the session token; a
        conflicting check-out raises
        :class:`~repro.core.errors.LockError` with the holder at once;
        a caller that wants to wait calls again once the holder
        releases, checks in, or lets its lease expire.
        """
        if self._local is not None:
            raise SeedError(
                f"client {self.client_id!r} already holds a copy; check it "
                "in or abandon it first"
            )
        ticket = self._fetch_ticket(names)
        self._local = materialize_ticket(
            self.schema, f"{self._origin}@{self.client_id}", ticket
        )
        self._baseline_objects = dict(ticket.objects)
        self._baseline_relationships = dict(ticket.relationships)
        self._changed = set()
        self._local._state_sink = self._changed.add  # noqa: SLF001
        return self._local

    # -- check-in ---------------------------------------------------------------------

    def check_in(self) -> dict[int, int]:
        """Send the updated copy back; the server applies it atomically.

        Returns the id translation map for locally created items. On
        success the local copy is dropped and all locks are released; on
        failure (consistency violation or stale data) the copy and locks
        survive so the client can repair and retry.
        """
        package = build_package(
            self.local,
            self._baseline_objects,
            self._baseline_relationships,
            self._changed,
        )
        translation = self._submit_package(package)
        self._drop_copy()
        return translation

    def abandon(self) -> None:
        """Discard the local copy and release all locks (nothing applied)."""
        if self._local is None:
            raise SeedError(f"client {self.client_id!r} has no copy to abandon")
        self._release_copy()
        self._drop_copy()

    def _drop_copy(self) -> None:
        self._local = None
        self._baseline_objects = {}
        self._baseline_relationships = {}
        self._changed = set()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "holding copy" if self.has_copy else "idle"
        return f"<{type(self).__name__} {self.client_id!r} ({state})>"


class SeedClient(CopyHolder):
    """One user's session-bound handle on the central database."""

    def __init__(
        self, server: "SeedServer", client_id: str, token: str
    ) -> None:
        super().__init__()
        self._server = server
        self._origin = server.master.name
        self.client_id = client_id
        #: the session credential; every server operation presents it
        self.token = token

    @property
    def schema(self) -> Schema:
        return self._server.master.schema

    def _fetch_ticket(self, names: tuple[str, ...]) -> "CheckOutTicket":
        return self._server.check_out(self.token, names)

    def _submit_package(self, package: CheckInPackage) -> dict[int, int]:
        return self._server.apply_check_in(self.token, package)

    def _release_copy(self) -> None:
        self._server.abandon(self.token)

    # -- retrieval ----------------------------------------------------------

    def find_object(self, name: str) -> Optional[SeedObject]:
        """Retrieval against the live central database (read-only use!)."""
        return self._server.find_object(name)

    def snapshot(self, version=None):
        """A pinned MVCC read view (see :meth:`SeedServer.snapshot`)."""
        return self._server.snapshot(version)

    # -- session ------------------------------------------------------------

    def renew(self) -> int:
        """Keep the session and its lock leases (and standing) alive."""
        return self._server.renew(self.token)

    # -- local versions ("kept locally under control of the user") -------------------------

    def save_local_version(self) -> VersionId:
        """Snapshot the local copy (user-controlled local versions)."""
        return self.local.create_version()
