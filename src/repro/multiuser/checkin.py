"""Check-in packages: the updated copy a client sends back to the server.

A package is a pure-data description of what the client changed relative
to its check-out baseline: created items, modified items, deletions.
``apply_to`` replays it against the master database inside the server's
single check-in transaction, translating client-local ids of created
items to fresh master ids.

Packages also serialise (:func:`package_to_dict` /
:func:`package_from_dict`, carrying states in the image state codec of
:mod:`repro.core.storage.serialize`): a journal-bound server appends each package
as a write-ahead ``{"kind": "checkin"}`` delta record before applying
it, making accepted check-ins durable at O(change) cost; the engine
replays the same records on load. ``apply_to`` is deterministic given
the master state (fresh ids come from the master's counter, stale-copy
guards compare full frozen states), which is what makes replay
equivalent to the live application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import faults
from repro.core.database import SeedDatabase
from repro.core.errors import CheckInError
from repro.core.objects import ObjectState
from repro.core.relationships import RelationshipState
from repro.core.storage.serialize import state_from_dict, state_to_dict
from repro.core.versions.store import ItemKey

__all__ = [
    "CheckInPackage",
    "build_package",
    "package_to_dict",
    "package_from_dict",
]


@dataclass
class CheckInPackage:
    """All changes of one client session, in applicable form."""

    #: (local oid, state) of objects created locally, parents first
    created_objects: list[tuple[int, ObjectState]] = field(default_factory=list)
    #: (local rid, state) of relationships created locally
    created_relationships: list[tuple[int, RelationshipState]] = field(
        default_factory=list
    )
    #: (master oid, before, after) of modified pre-existing objects
    modified_objects: list[tuple[int, ObjectState, ObjectState]] = field(
        default_factory=list
    )
    #: (master rid, before, after) of modified pre-existing relationships
    modified_relationships: list[
        tuple[int, RelationshipState, RelationshipState]
    ] = field(default_factory=list)

    def is_empty(self) -> bool:
        """True when the client changed nothing."""
        return not (
            self.created_objects
            or self.created_relationships
            or self.modified_objects
            or self.modified_relationships
        )

    def changed_existing_keys(self) -> list[ItemKey]:
        """Keys of pre-existing items the package touches (lock check)."""
        keys: list[ItemKey] = [("o", oid) for oid, __, __ in self.modified_objects]
        keys.extend(("r", rid) for rid, __, __ in self.modified_relationships)
        return keys

    # ------------------------------------------------------------------

    def apply_to(self, master: SeedDatabase) -> dict[int, int]:
        """Replay the changes against *master*; returns the id map.

        Must run inside a master transaction (the server guarantees it).
        """
        id_map: dict[int, int] = {}

        def translate(local_id: Optional[int]) -> Optional[int]:
            if local_id is None:
                return None
            return id_map.get(local_id, local_id)

        # 1. created objects, parents before children (ids ascend locally)
        for local_oid, state in sorted(self.created_objects):
            if state.parent_oid is None:
                obj = master.create_object(
                    state.class_name, state.name, pattern=state.is_pattern
                )
            else:
                parent = master.object_by_oid(translate(state.parent_oid))
                obj = master.create_sub_object(
                    parent,
                    state.name,
                    index=state.index if state.index is not None else None,
                )
                if state.is_pattern:
                    master.mark_pattern(obj)
            if state.value is not None:
                master.set_value(obj, state.value)
            id_map[local_oid] = obj.oid
        # 2. created relationships
        for local_rid, state in sorted(self.created_relationships):
            bindings = {
                role: master.object_by_oid(translate(oid))
                for role, oid in state.bindings
            }
            rel = master.relate(
                state.association_name,
                bindings,
                attributes=dict(state.attributes),
                pattern=state.is_pattern,
            )
            id_map[local_rid] = rel.rid
        if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
            # mid-apply failpoint: creations done, modifications pending
            faults.fire("checkin.apply.mid")
        # 3. inherits links of created objects (after all objects exist)
        for local_oid, state in self.created_objects:
            if state.inherited_pattern_oids:
                inheritor = master.object_by_oid(id_map[local_oid])
                for pattern_oid in state.inherited_pattern_oids:
                    master.inherit(
                        master.object_by_oid(translate(pattern_oid)), inheritor
                    )
        # 4. modifications of pre-existing objects
        for master_oid, before, after in self.modified_objects:
            obj = master.object_by_oid(master_oid)
            if after.deleted:
                # cascades from earlier deletions in this package may
                # have tombstoned the object already — that is the same
                # outcome, not a conflict
                if not obj.deleted:
                    if obj.freeze() != before:
                        raise CheckInError(
                            f"object #{master_oid} changed on the server "
                            "since check-out (stale copy)"
                        )
                    master.delete(obj)
                continue
            if obj.freeze() != before:
                raise CheckInError(
                    f"object #{master_oid} changed on the server since "
                    "check-out (stale copy)"
                )
            if after.class_name != before.class_name:
                master.reclassify(
                    obj,
                    after.class_name.split(".")[-1]
                    if "." in after.class_name
                    else after.class_name,
                    allow_generalize=True,
                )
            if after.name != before.name and obj.parent is None:
                master.rename(obj, after.name)
            if after.value != before.value:
                master.set_value(obj, after.value)
            if after.is_pattern != before.is_pattern:
                if after.is_pattern:
                    master.mark_pattern(obj)
                else:
                    master.unmark_pattern(obj)
            if after.inherited_pattern_oids != before.inherited_pattern_oids:
                removed = set(before.inherited_pattern_oids) - set(
                    after.inherited_pattern_oids
                )
                added = set(after.inherited_pattern_oids) - set(
                    before.inherited_pattern_oids
                )
                for pattern_oid in removed:
                    master.uninherit(master.object_by_oid(pattern_oid), obj)
                for pattern_oid in added:
                    master.inherit(
                        master.object_by_oid(translate(pattern_oid)), obj
                    )
        # 5. modifications of pre-existing relationships
        for master_rid, before, after in self.modified_relationships:
            rel = master._relationships.get(master_rid)  # noqa: SLF001
            if rel is None:
                raise CheckInError(
                    f"relationship #{master_rid} vanished from the server "
                    "since check-out (stale copy)"
                )
            if after.deleted:
                if not rel.deleted:  # may be gone already via a cascade
                    if rel.freeze() != before:
                        raise CheckInError(
                            f"relationship #{master_rid} changed on the "
                            "server since check-out (stale copy)"
                        )
                    master.delete(rel)
                continue
            if rel.freeze() != before:
                raise CheckInError(
                    f"relationship #{master_rid} changed on the server "
                    "since check-out (stale copy)"
                )
            if after.association_name != before.association_name:
                master.reclassify(rel, after.association_name, allow_generalize=True)
            before_attrs = dict(before.attributes)
            after_attrs = dict(after.attributes)
            for name in set(before_attrs) - set(after_attrs):
                master.set_attribute(rel, name, None)
            for name, value in after_attrs.items():
                if before_attrs.get(name) != value:
                    master.set_attribute(rel, name, value)
        return id_map


# ---------------------------------------------------------------------------
# serialisation (write-ahead check-in deltas)
# ---------------------------------------------------------------------------

#: package field -> the item kind of its entries; created entries are
#: ``[id, state]``, modified ones ``[id, before, after]``
_PACKAGE_FIELDS = {
    "created_objects": "o",
    "created_relationships": "r",
    "modified_objects": "o",
    "modified_relationships": "r",
}


def package_to_dict(package: CheckInPackage) -> dict:
    """JSON-compatible form of a package (the journal delta payload)."""
    return {
        field: [
            [item_id, *(state_to_dict(kind, state) for state in states)]
            for item_id, *states in getattr(package, field)
        ]
        for field, kind in _PACKAGE_FIELDS.items()
    }


def package_from_dict(data: dict) -> CheckInPackage:
    """Inverse of :func:`package_to_dict` (the journal replay path)."""
    return CheckInPackage(
        **{
            field: [
                (item_id, *(state_from_dict(kind, state) for state in states))
                for item_id, *states in data[field]
            ]
            for field, kind in _PACKAGE_FIELDS.items()
        }
    )


def build_package(
    local: SeedDatabase,
    baseline_objects: dict[int, ObjectState],
    baseline_relationships: dict[int, RelationshipState],
) -> CheckInPackage:
    """Diff a client's local copy against its check-out baseline."""
    package = CheckInPackage()
    for obj in local.all_objects_raw():
        state = obj.freeze()
        before = baseline_objects.get(obj.oid)
        if before is None:
            if not state.deleted:  # created-then-deleted never leaves the client
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
