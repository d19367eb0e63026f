"""Test-side reference implementations the product is compared with.

Each recomputes by a full scan what the product keeps incrementally or
reaches through an index:

- :func:`brute_value_counts` — ``IndexLayer.value_counts``;
- :func:`brute_participation_distinct` —
  ``IndexLayer.distinct_participants``;
- :func:`closure_keys_scan` — ``SeedServer.closure_keys``;
- :func:`encode_state` — one state's bytes through the state kernel,
  which must equal ``RecordFile.encode(state_to_dict(kind, state))``.
"""

from __future__ import annotations

from typing import Any

from repro.core.indexes import value_key
from repro.core.storage import serialize
from repro.multiuser.server import SeedServer


def brute_value_counts(db) -> dict[str, dict[tuple, int]]:
    """Full-scan recount of the per-class value histograms.

    The reference :attr:`IndexLayer.value_counts` must equal after any
    sequence of mutations — covers exactly the objects the extents
    hold (live, pattern-context included), defined values only.
    """
    counts: dict[str, dict[tuple, int]] = {}
    for obj in db.all_objects_raw():
        if obj.deleted or obj.value is None:
            continue
        bucket = counts.setdefault(obj.entity_class.full_name, {})
        key = value_key(obj.value)
        bucket[key] = bucket.get(key, 0) + 1
    return counts


def brute_participation_distinct(db) -> dict[tuple[str, int], int]:
    """Full-scan recount of the distinct-participant counters."""
    participants: dict[tuple[str, int], set[int]] = {}
    for rel in db.all_relationships_raw():
        if rel.deleted or rel.in_pattern_context:
            continue
        for element in rel.association.kind_chain():
            for position in (0, 1):
                participants.setdefault((element.name, position), set()).add(
                    rel.bound_at(position).oid
                )
    return {key: len(oids) for key, oids in participants.items()}


def closure_keys_scan(server: SeedServer, roots: list) -> tuple[list, list]:
    """Reference implementation of ``SeedServer.closure_keys``: one pass
    over every relationship in the master instead of the incidence
    index."""
    objects, oids = SeedServer._closure_objects(roots)  # noqa: SLF001
    keys = [("o", obj.oid) for obj in objects]
    for rel in server.master.relationships(include_patterns=True):
        endpoint_oids = [obj.oid for obj in rel.bound_objects()]
        if all(oid in oids for oid in endpoint_oids):
            keys.append(("r", rel.rid))
    return objects, keys


def encode_state(kind: str, state: Any) -> bytes:
    """Canonical JSON bytes of one frozen item state through the state
    kernel: byte for byte ``RecordFile.encode(state_to_dict(kind, state))``."""
    return serialize._encode_state(kind, state)[0]  # noqa: SLF001
