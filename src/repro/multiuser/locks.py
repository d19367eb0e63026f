"""Write locks for the two-level multi-user architecture.

"Data that has been copied to a client for update has a write lock in
the central database." The lock table is item-granular: every object or
relationship checked out for update is locked by exactly one owner;
conflicting check-outs fail fast with :class:`~repro.core.errors.
LockError` rather than blocking (the paper sketches no queueing; a
client that wants to wait checks out again).

Owners are opaque strings. Since PR 7 the server keys locks by **session
token** (one per ``connect``), never by the reusable client id — a stale
pre-disconnect handle therefore cannot touch, or release by checking in,
the locks of the session that reconnected under the same client id (see
:mod:`repro.multiuser.sessions`).

Lease semantics (multi-user liveness)
-------------------------------------

A crashed client must not hold its write locks forever. When the table
is built with ``lease_seconds``, every lock carries an expiry on the
injectable ``clock``:

* an **expired** lock is invisible — ``holder`` reports it free, and a
  conflicting :meth:`LockTable.acquire` *reclaims* it (purged, counted
  in :attr:`LockTable.reclaimed`);
* a live client keeps its locks alive by touching them all with
  :meth:`LockTable.renew` (check-in does not renew — a client that lets
  its lease lapse must expect to lose the race);
* a client whose lease expired can no longer check in changes to the
  reclaimed items: the server's held-lock validation no longer sees the
  lock, so the stale check-in is rejected rather than clobbering
  whoever reclaimed it.

The ``clock`` is any ``() -> float`` (default ``time.monotonic``);
tests inject a fake clock so lease expiry is deterministic — no
wall-clock sleeps.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

from repro.core.errors import LockError
from repro.core.versions.store import ItemKey

__all__ = ["LockTable"]


class LockTable:
    """Item-granular write locks, keyed like the version store."""

    def __init__(
        self,
        *,
        lease_seconds: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        owner_alias: Optional[Callable[[str], str]] = None,
    ) -> None:
        #: key -> (holder, expiry on the clock, or None = no lease)
        self._locks: dict[ItemKey, tuple[str, Optional[float]]] = {}
        self._lease = lease_seconds
        self._clock = clock if clock is not None else time.monotonic
        #: renders an owner for error messages (the server maps session
        #: tokens back to client ids so conflicts name the *user*, not
        #: the opaque credential); identity when absent
        self._owner_alias = owner_alias
        #: expired locks reclaimed by later acquisitions
        self.reclaimed = 0

    def _alias(self, owner: str) -> str:
        if self._owner_alias is None:
            return owner
        return self._owner_alias(owner)

    # -- lease plumbing -----------------------------------------------------

    def default_expiry(self) -> Optional[float]:
        """Expiry on this table's clock for a lease granted now.

        ``None`` when the table has no default lease. The server stamps
        check-out *standing* with the same expiry as the locks it grants
        — so a client whose lease lapsed loses not only its locks but
        also the right to inject create-only packages.
        """
        return None if self._lease is None else self._clock() + self._lease

    def is_expired(self, expiry: Optional[float]) -> bool:
        """True when *expiry* (from :meth:`default_expiry`) has passed."""
        return expiry is not None and expiry <= self._clock()

    def _live_holder(self, key: ItemKey) -> Optional[str]:
        """The holder of *key* if the lock has not expired, else None."""
        entry = self._locks.get(key)
        if entry is None:
            return None
        holder, expires = entry
        if expires is not None and expires <= self._clock():
            return None
        return holder

    # -- acquisition --------------------------------------------------------

    def acquire(self, client_id: str, keys: Iterable[ItemKey]) -> None:
        """Lock *keys* for *client_id*, all or nothing.

        Re-acquiring one's own lock is idempotent (and refreshes its
        lease); any key held — with an unexpired lease — by a different
        client fails the whole acquisition (no partial locks are left
        behind). Keys whose lease expired are reclaimed on the spot.
        """
        wanted = list(keys)
        conflicts = [
            (key, holder)
            for key in wanted
            if (holder := self._live_holder(key)) is not None
            and holder != client_id
        ]
        if conflicts:
            description = ", ".join(
                f"{key} held by {self._alias(holder)!r}"
                for key, holder in conflicts
            )
            raise LockError(
                f"client {self._alias(client_id)!r} cannot lock: {description}"
            )
        expiry = self.default_expiry()
        for key in wanted:
            entry = self._locks.get(key)
            if entry is not None and self._live_holder(key) is None:
                self.reclaimed += 1  # expired lock of a dead client
            self._locks[key] = (client_id, expiry)

    def renew(self, client_id: str) -> int:
        """Extend the lease on every lock *client_id* still holds; returns
        the count. A lock whose lease already expired is not renewed —
        the client must assume it lost the item and check out again.
        """
        to_renew = self.held_by(client_id)
        expiry = self.default_expiry()
        for key in to_renew:
            self._locks[key] = (client_id, expiry)
        return len(to_renew)

    def release(self, client_id: str) -> int:
        """Release all of the client's locks; returns the count."""
        to_release = self.held_by(client_id)
        for key in to_release:
            del self._locks[key]
        return len(to_release)

    # -- queries ------------------------------------------------------------

    def holder(self, key: ItemKey) -> Optional[str]:
        """The client holding *key*'s lock (lease unexpired), or None."""
        return self._live_holder(key)

    def held_by(self, client_id: str) -> list[ItemKey]:
        """All keys locked by *client_id* (expired leases excluded)."""
        return [
            key
            for key in self._locks
            if self._live_holder(key) == client_id
        ]

    def __len__(self) -> int:
        """Count of live (unexpired) locks."""
        return sum(1 for key in self._locks if self._live_holder(key) is not None)
