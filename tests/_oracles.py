"""Test-side reference implementations the product is compared with.

Each recomputes by a full scan what the product keeps incrementally or
reaches through an index:

- :func:`brute_value_counts` — ``IndexLayer.value_counts``;
- :func:`brute_participation_distinct` —
  ``IndexLayer.distinct_participants``;
- :func:`closure_keys_scan` — ``SeedServer.closure``;
- :func:`full_diff_package` — ``build_package``, from every item of
  the local copy;
- :func:`freeze_all_ticket` — the states of ``SeedServer.check_out``'s
  ticket, each frozen from the master;
- :func:`cold_live_view` — a published snapshot, built from every live
  item of the master;
- :func:`encode_state` — one state's bytes through the state kernel,
  which must equal ``RecordFile.encode(state_to_dict(kind, state))``.
"""

from __future__ import annotations

from typing import Any

from repro.core.indexes import value_key
from repro.core.storage import serialize
from repro.core.versions.view import VersionView
from repro.multiuser.checkin import CheckInPackage
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


def closure_keys_scan(server: SeedServer, names) -> tuple[list, list]:
    """Reference implementation of ``SeedServer.closure``: the roots are
    resolved first, each root's sub-tree is walked again to list the
    objects, and the relationships come from one pass over every
    relationship in the master instead of the incidence index."""
    master = server.master
    roots: list = []
    seen: set[int] = set()
    frontier = [master.get_object(name, include_patterns=True) for name in names]
    while frontier:
        root = frontier.pop().root
        if root.oid in seen:
            continue
        seen.add(root.oid)
        roots.append(root)
        for node in root.walk():
            frontier.extend(master.patterns.patterns_of(node))
    objects: list = []
    oids: set[int] = set()
    for root in roots:
        for node in root.walk():
            if node.oid not in oids:
                oids.add(node.oid)
                objects.append(node)
    keys = [("o", obj.oid) for obj in objects]
    for rel in master.relationships(include_patterns=True):
        endpoint_oids = [obj.oid for obj in rel.bound_objects()]
        if all(oid in oids for oid in endpoint_oids):
            keys.append(("r", rel.rid))
    return objects, keys


def full_diff_package(local, baseline_objects, baseline_relationships) -> CheckInPackage:
    """Reference implementation of ``build_package``: every item of the
    local copy frozen and compared with the check-out baseline, in
    registry order."""
    package = CheckInPackage()
    for obj in local.all_objects_raw():
        state = obj.freeze()
        before = baseline_objects.get(obj.oid)
        if before is None:
            if not state.deleted:
                package.created_objects.append((obj.oid, state))
        elif state != before:
            package.modified_objects.append((obj.oid, before, state))
    for rel in local.all_relationships_raw():
        state = rel.freeze()
        before = baseline_relationships.get(rel.rid)
        if before is None:
            if not state.deleted:
                package.created_relationships.append((rel.rid, state))
        elif state != before:
            package.modified_relationships.append((rel.rid, before, state))
    return package


def freeze_all_ticket(master, keys) -> tuple[list, list]:
    """Reference for a check-out ticket's states: ``(objects,
    relationships)`` as ``(id, state)`` lists, every state frozen from
    the master."""
    objects = [
        (item_id, master._objects[item_id].freeze())  # noqa: SLF001
        for kind, item_id in keys
        if kind == "o"
    ]
    relationships = [
        (item_id, master._relationships[item_id].freeze())  # noqa: SLF001
        for kind, item_id in keys
        if kind == "r"
    ]
    return objects, relationships


def cold_live_view(master, label: str = "live") -> VersionView:
    """Reference for a published snapshot: a view built cold from every
    item of the master, each frozen now."""
    states = [(("o", obj.oid), obj.freeze()) for obj in master.all_objects_raw()]
    states += [
        (("r", rel.rid), rel.freeze()) for rel in master.all_relationships_raw()
    ]
    return VersionView(label, master.schema, states)


def encode_state(kind: str, state: Any) -> bytes:
    """Canonical JSON bytes of one frozen item state through the state
    kernel: byte for byte ``RecordFile.encode(state_to_dict(kind, state))``."""
    return serialize._encode_state(kind, state)[0]  # noqa: SLF001
