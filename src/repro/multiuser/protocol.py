"""Wire protocol for the multi-user service: JSON lines over a socket.

One request or response per line, UTF-8 JSON, newline-terminated — the
simplest framing that a line-buffered reader on either side can parse
incrementally. Requests carry an ``op`` plus parameters (and the session
``token`` for every authenticated operation); responses are either

``{"ok": true, "result": ...}``

or

``{"ok": false, "error": "<code>", "message": "..."}``

where ``error`` is a symbolic code mapped from the server-side exception
class (:data:`ERROR_CODES`). The client raises the matching exception
class again (:func:`raise_remote_error`), so wire clients see the same
error surface as in-process clients — ``SessionError`` for a zombie
token is an ``SessionError`` on both sides of the socket.

The request table
-----------------

What a request may look like is declared once, in
:data:`REQUEST_FIELDS` (op → field → type tag) and
:data:`READ_QUERY_FIELDS` (the ``read`` op's query kind → field → type
tag), and checked once, by :func:`check_request`, which the service
calls on every decoded frame before it takes any lock or touches the
server. A type tag is a key of ``_FIELD_TYPES`` — ``str`` (non-empty),
``object``, ``[str]`` — and a trailing ``?`` makes the field optional
(absent or ``null``). Fields the table does not name are ignored (an
older client's ``check_in`` field ``bulk`` among them); a missing or
ill-typed field, an unknown op and an unknown query kind are each a
:class:`SeedError` (wire code ``seed``) naming the op and the field:

================  =====================================================
op                fields
================  =====================================================
``ping``          —
``connect``       ``client_id`` str
``disconnect``    ``token`` str
``renew``         ``token`` str
``check_out``     ``token`` str, ``names`` [str]
``check_in``      ``token`` str, ``package`` object
``abandon``       ``token`` str
``pin``           —
``read``          ``version`` str, ``query`` object with ``kind`` one
                  of ``find`` (``name`` str), ``objects``
                  (``class_name`` str?), ``count``
``stats``         —
================  =====================================================

Payload codecs reuse the one state codec of
:mod:`repro.core.storage.serialize`: a check-out ticket travels as the
same frozen-state dictionaries images and write-ahead deltas use, and a
check-in package travels as its ``package_to_dict`` form. Item keys — tuples
``("o", id)`` / ``("r", id)`` in memory — become two-element lists in
JSON and are restored on decode.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.errors import (
    CheckInError,
    ConsistencyError,
    LockError,
    SeedError,
    SessionError,
    VersionError,
)
from repro.core.storage.serialize import state_from_dict, state_to_dict
from repro.multiuser.server import CheckOutTicket

__all__ = [
    "ERROR_CODES",
    "MAX_CONNECTIONS",
    "MAX_REQUEST_BYTES",
    "REQUEST_FIELDS",
    "READ_QUERY_FIELDS",
    "check_request",
    "encode_message",
    "decode_message",
    "error_response",
    "ok_response",
    "raise_remote_error",
    "ticket_to_dict",
    "ticket_from_dict",
]

#: symbolic wire code -> exception class; the generic "seed" entry is
#: both the fallback encoding for unlisted SeedError subclasses and the
#: decoding for codes a newer server might send an older client
ERROR_CODES: dict[str, type[SeedError]] = {
    "session": SessionError,
    "lock": LockError,
    "checkin": CheckInError,
    "consistency": ConsistencyError,
    "version": VersionError,
    "seed": SeedError,
}

_CLASS_TO_CODE = {cls: code for code, cls in ERROR_CODES.items()}

#: the largest request frame the service reads — ~100 000 created
#: objects of a large check-in (~130 bytes each); a longer frame gets a
#: typed "request too large" error on a connection that stays usable
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: the most connections the service serves at once — each is one OS
#: thread, so a peer must not be able to start them without bound. A
#: team is a handful of people with a writer and a reader each; 64
#: leaves room for scripts and reconnects, and a connection past it
#: gets one typed error frame and is closed
MAX_CONNECTIONS = 64


#: op -> field -> type tag: the shape of every request the service
#: accepts (see "The request table" in the module docstring)
REQUEST_FIELDS: dict[str, dict[str, str]] = {
    "ping": {},
    "connect": {"client_id": "str"},
    "disconnect": {"token": "str"},
    "renew": {"token": "str"},
    "check_out": {"token": "str", "names": "[str]"},
    "check_in": {"token": "str", "package": "object"},
    "abandon": {"token": "str"},
    "pin": {},
    "read": {"version": "str", "query": "object"},
    "stats": {},
}

#: ``read`` query kind -> field -> type tag
READ_QUERY_FIELDS: dict[str, dict[str, str]] = {
    "find": {"name": "str"},
    "objects": {"class_name": "str?"},
    "count": {},
}

#: type tag -> (what an error message calls it, the test)
_FIELD_TYPES = {
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "[str]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
    ),
}


def _check_fields(where: str, data: dict, fields: dict[str, str]) -> None:
    for name, tag in fields.items():
        value = data.get(name)
        if value is None:
            if not tag.endswith("?"):
                raise SeedError(f"{where}: field {name!r} is required")
            continue
        expected, accepts = _FIELD_TYPES[tag.rstrip("?")]
        if not accepts(value):
            raise SeedError(
                f"{where}: field {name!r} must be {expected}, "
                f"got {type(value).__name__}"
            )


def check_request(request: dict[str, Any]) -> None:
    """Check a decoded request against the request table.

    Raises :class:`SeedError` naming the op and the offending field;
    returns normally only for a request every ``_op_*`` handler can
    read its fields from without looking at their types again.
    """
    op = request.get("op")
    fields = REQUEST_FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        raise SeedError(f"unknown operation {op!r}")
    _check_fields(op, request, fields)
    if op == "read":
        query = request["query"]
        _check_fields("read query", query, {"kind": "str"})
        kind_fields = READ_QUERY_FIELDS.get(query["kind"])
        if kind_fields is None:
            raise SeedError(f"read query: unknown kind {query['kind']!r}")
        _check_fields(f"read query {query['kind']!r}", query, kind_fields)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_message(message: dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the newline terminator."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; raises :class:`SeedError` on malformed input."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise SeedError(f"malformed wire frame: {exc}") from None
    if not isinstance(message, dict):
        raise SeedError(
            f"wire frame must be a JSON object, got {type(message).__name__}"
        )
    return message


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------

def ok_response(result: Any) -> dict[str, Any]:
    """A success response envelope."""
    return {"ok": True, "result": result}


def error_response(exc: BaseException) -> dict[str, Any]:
    """Map a server-side exception onto the wire error envelope.

    The most specific registered class wins (walks the MRO, so e.g. a
    bespoke ``LockError`` subclass still travels as ``"lock"``).
    """
    code = "seed"
    for cls in type(exc).__mro__:
        if cls in _CLASS_TO_CODE:
            code = _CLASS_TO_CODE[cls]
            break
    return {"ok": False, "error": code, "message": str(exc)}


def raise_remote_error(response: dict[str, Any]) -> None:
    """Re-raise the exception a ``{"ok": false}`` response describes."""
    cls = ERROR_CODES.get(response.get("error", "seed"), SeedError)
    raise cls(response.get("message", "remote error"))


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------

def ticket_to_dict(ticket: CheckOutTicket) -> dict[str, Any]:
    """JSON form of a check-out ticket (frozen states + keys + floor)."""
    return {
        "objects": [
            [oid, state_to_dict("o", state)]
            for oid, state in ticket.objects
        ],
        "relationships": [
            [rid, state_to_dict("r", state)]
            for rid, state in ticket.relationships
        ],
        "keys": [[kind, item_id] for kind, item_id in ticket.keys],
        "next_id_floor": ticket.next_id_floor,
    }


def ticket_from_dict(data: dict[str, Any]) -> CheckOutTicket:
    """Inverse of :func:`ticket_to_dict`."""
    return CheckOutTicket(
        objects=[
            (oid, state_from_dict("o", state))
            for oid, state in data["objects"]
        ],
        relationships=[
            (rid, state_from_dict("r", state))
            for rid, state in data["relationships"]
        ],
        keys=[(kind, item_id) for kind, item_id in data["keys"]],
        next_id_floor=data["next_id_floor"],
    )
