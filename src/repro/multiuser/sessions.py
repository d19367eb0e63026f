"""Sessions: authenticated standing on the central server.

The PR-6 sketch identified clients by their bare ``client_id`` string,
which opened two holes the paper's production architecture must close:

* a **zombie** handle — one whose client disconnected, or whose lease
  expired — could still check in *create-only* packages, because the
  held-lock validation only inspects ``changed_existing_keys()``;
* ``connect`` after ``disconnect`` reused the same ``client_id`` as the
  lock-table key, so a stale pre-disconnect handle shared (and its
  check-in released!) the reconnected session's locks.

Both are identity bugs, and the structural fix is the same: every
``connect`` mints a :class:`Session` with a fresh, unguessable **token**,
every check-out / check-in / renewal authenticates the token against the
:class:`SessionManager` first, and the lock table is keyed by token —
never by the reusable client id. A disconnected or lease-expired session
fails validation with :class:`~repro.core.errors.SessionError` before
any package is even inspected, and a reconnected client id gets a new
token, so its predecessor's locks and standing are unreachable.

Sessions share the server's injectable ``clock`` (the lock table's lease
clock), so tests drive expiry deterministically. Token generation is
also injectable; the default combines a monotone counter (uniqueness)
with random hex (unguessability — the authentication stub the ROADMAP
asks for: possession of the token *is* the credential).
"""

from __future__ import annotations

import secrets
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.errors import SessionError

__all__ = ["Session", "SessionManager"]

#: closed sessions retained (FIFO) for precise error messages
_CLOSED_RETAINED = 256


@dataclass
class Session:
    """One authenticated connection of one client."""

    token: str
    client_id: str
    opened_at: float
    #: refreshed on every validated operation (and by ``renew``)
    last_seen: float
    closed: bool = False
    #: operations authenticated against this session (diagnostics)
    operations: int = field(default=0, repr=False)

    def __str__(self) -> str:  # pragma: no cover - trivial
        state = "closed" if self.closed else "live"
        return f"session {self.token!r} of client {self.client_id!r} ({state})"


class SessionManager:
    """Mints, validates, and expires session tokens.

    ``session_seconds`` bounds idleness: a session untouched for longer
    fails validation exactly like a closed one (``None`` = no expiry —
    lock leases still bound the damage a silent client can do). The
    ``clock`` is any ``() -> float``; share it with the lock table so
    one fake clock drives both in tests.
    """

    def __init__(
        self,
        *,
        session_seconds: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._live_by_client: dict[str, str] = {}  # client_id -> token
        self._session_seconds = session_seconds
        self._clock = clock if clock is not None else time.monotonic
        self._minted = 0
        self._closed_retained = 0

    # -- lifecycle ----------------------------------------------------------

    def open(self, client_id: str) -> Session:
        """Mint a session for *client_id*; one live session per id."""
        live = self.find_live(client_id)
        if live is not None:
            raise SessionError(
                f"client id {client_id!r} is already connected "
                f"(token {live.token!r})"
            )
        self._minted += 1
        # the serial makes a token unique; the random half is the credential
        token = f"s{self._minted}.{secrets.token_hex(8)}"
        now = self._clock()
        session = Session(
            token=token, client_id=client_id, opened_at=now, last_seen=now
        )
        self._sessions[token] = session
        self._live_by_client[client_id] = token
        return session

    def close(self, token: str) -> Session:
        """End a session (idempotent for already-closed tokens)."""
        session = self._sessions.get(token)
        if session is None:
            raise SessionError(f"unknown session token {token!r}")
        if not session.closed:
            session.closed = True
            if self._live_by_client.get(session.client_id) == token:
                del self._live_by_client[session.client_id]
            self._closed_retained += 1
            self._trim_closed()
        return session

    def _trim_closed(self) -> None:
        """Bound memory: drop the oldest closed sessions beyond the cap."""
        if self._closed_retained <= _CLOSED_RETAINED:
            return
        for token in list(self._sessions):
            if self._closed_retained <= _CLOSED_RETAINED:
                break
            if self._sessions[token].closed:
                del self._sessions[token]
                self._closed_retained -= 1

    # -- validation ---------------------------------------------------------

    def _expired(self, session: Session) -> bool:
        return (
            self._session_seconds is not None
            and session.last_seen + self._session_seconds <= self._clock()
        )

    def validate(self, token: str) -> Session:
        """The live session behind *token*, or :class:`SessionError`.

        Every server operation calls this first — the zombie-client fix:
        a closed or expired session is rejected before the operation's
        own checks (lock validation, package inspection) ever run.
        """
        session = self._sessions.get(token)
        if session is None:
            raise SessionError(f"unknown session token {token!r}")
        if session.closed:
            raise SessionError(
                f"session of client {session.client_id!r} was disconnected; "
                "reconnect for a fresh token"
            )
        if self._expired(session):
            raise SessionError(
                f"session of client {session.client_id!r} expired after "
                f"{self._session_seconds}s idle; reconnect for a fresh token"
            )
        session.last_seen = self._clock()
        session.operations += 1
        return session

    def is_live(self, token: str) -> bool:
        """True when *token* would pass :meth:`validate` right now."""
        session = self._sessions.get(token)
        return (
            session is not None
            and not session.closed
            and not self._expired(session)
        )

    # -- queries ------------------------------------------------------------

    def client_of(self, token: str) -> Optional[str]:
        """The client id behind *token* (live, closed, or expired)."""
        session = self._sessions.get(token)
        return None if session is None else session.client_id

    def find_live(self, client_id: str) -> Optional[Session]:
        """The live unexpired session of *client_id*, if any."""
        token = self._live_by_client.get(client_id)
        if token is None:
            return None
        session = self._sessions[token]
        if self._expired(session):
            return None
        return session

    def live(self) -> list[Session]:
        """All live unexpired sessions, oldest first."""
        return [
            session
            for session in self._sessions.values()
            if not session.closed and not self._expired(session)
        ]

    def __len__(self) -> int:
        return len(self.live())
