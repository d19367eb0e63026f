"""Multi-user extension: the paper's two-level client/server sketch.

"SEED is currently a single user system only. ... We only have some
rough ideas concerning a two level approach" — this package implements
those ideas: :class:`~repro.multiuser.server.SeedServer` (central
database, session tokens, write locks keyed by session, MVCC snapshot
views, global versions), :class:`~repro.multiuser.client.SeedClient`
(local copies for update, check-in as one transaction), the wire
service (:class:`~repro.multiuser.service.SeedService` /
:class:`~repro.multiuser.service.ServiceClient`, JSON lines over a
socket), and the supporting session manager, lock table, and check-in
packages.
"""

from repro.multiuser.checkin import (
    CheckInPackage,
    build_package,
    package_from_dict,
    package_to_dict,
)
from repro.multiuser.client import SeedClient, materialize_ticket
from repro.multiuser.locks import LockTable
from repro.multiuser.server import CheckOutTicket, SeedServer
from repro.multiuser.service import SeedService, ServiceClient
from repro.multiuser.sessions import Session, SessionManager

__all__ = [
    "CheckInPackage",
    "build_package",
    "package_from_dict",
    "package_to_dict",
    "SeedClient",
    "materialize_ticket",
    "LockTable",
    "CheckOutTicket",
    "SeedServer",
    "SeedService",
    "ServiceClient",
    "Session",
    "SessionManager",
]
