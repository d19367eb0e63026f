"""Canonical dict serialisation of schemas and databases.

``schema_to_dict``/``schema_from_dict`` and ``database_to_dict``/
``database_from_dict`` produce/consume plain JSON-compatible structures
covering the *entire* database state: schema (including generalization
links, covering conditions, attribute declarations, and attached
procedure names), live items, tombstones, the delta version store
(including compaction's snapshot markers, so squashed/consolidated
chains round-trip), the version tree, pattern links, and the dirty
set — a load is a faithful resumption point.

There is one frozen-state path. Item states cross every boundary —
images, ``txn``/``restore``/``version`` deltas, check-in packages, wire
tickets — through one codec (:func:`state_to_dict` /
:func:`state_from_dict`), and reach live records one way: every loader
here hands decoded states to :func:`repro.core.bulk.wire_item_states`
(wholesale loads via ``load_item_states``), which applies them with the
records' ``thaw``. :func:`database_from_records` is the one image
decoder; :func:`database_from_dict` only re-shapes a monolithic image
into that stream.

A state is encoded once, by one kernel: :func:`encode_state` writes a
frozen state's canonical JSON straight from its fields, byte for byte
what ``RecordFile.encode(state_to_dict(kind, state))`` writes (the
oracle). The ``txn`` and ``version`` deltas are joined from its bytes,
and so is :class:`ImageFragments`, the journal's image encoder: it
keeps each item's and cell's encoded bytes — filled from the bytes a
``txn`` or ``version`` record has just written, dropped where state is
written otherwise — and produces the monolithic record of
:func:`database_to_dict` and the records of :func:`iter_image_records`
byte for byte, encoding only what is not cached.

Attached procedures serialise by *name*; loading re-binds them against a
:class:`~repro.core.schema.attached.ProcedureRegistry` (the process-wide
default unless one is passed). Unknown names are an error — silently
dropping integrity code would be worse.

Values serialise natively when JSON-compatible; ``datetime.date`` values
are tagged (``{"$date": "1986-02-05"}``).
"""

from __future__ import annotations

import datetime
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Iterator, KeysView, Optional

from repro.core.bulk import load_item_states, wire_item_states
from repro.core.database import SeedDatabase
from repro.core.errors import StorageError
from repro.core.objects import ObjectState, SeedObject
from repro.core.relationships import RelationshipState, SeedRelationship
from repro.core.schema.association import Association, Attribute, Role
from repro.core.schema.attached import ProcedureRegistry, default_registry
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import specialize
from repro.core.schema.schema import Schema
from repro.core.storage.recordfile import RecordFile
from repro.core.values import sort_by_name
from repro.core.versions.store import ItemKey, VersionStore
from repro.core.versions.version_id import VersionId

__all__ = [
    "schema_to_dict",
    "schema_from_dict",
    "database_to_dict",
    "database_from_dict",
    "ImageFragments",
    "iter_image_records",
    "database_from_records",
    "ingest_image_records",
    "txn_delta_from_txn",
    "apply_txn_delta",
    "schema_delta_from_migration",
    "apply_schema_delta",
    "restore_delta_from_db",
    "apply_restore_delta",
    "version_delta_from_db",
    "apply_version_delta",
    "state_to_dict",
    "state_from_dict",
    "encode_state",
]

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Encode one stored value into a JSON-compatible form."""
    if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        return {"$date": value.isoformat()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise StorageError(f"cannot serialise value of type {type(value).__name__}")


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        if set(encoded) == {"$date"}:
            return datetime.date.fromisoformat(encoded["$date"])
        raise StorageError(f"unknown tagged value: {sorted(encoded)}")
    return encoded


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def _class_to_dict(entity_class: EntityClass) -> dict:
    return {
        "name": entity_class.name,
        "doc": entity_class.doc,
        "sort": entity_class.value_sort.name if entity_class.value_sort else None,
        "cardinality": str(entity_class.cardinality)
        if entity_class.cardinality
        else None,
        "covering": entity_class.covering,
        "procedures": [proc.name for proc in entity_class.attached_procedures],
        "dependents": [
            _class_to_dict(dependent) for dependent in entity_class.dependents
        ],
    }


def schema_to_dict(schema: Schema) -> dict:
    """Serialise a schema (inverse: :func:`schema_from_dict`)."""
    return {
        "name": schema.name,
        "classes": [_class_to_dict(c) for c in schema.classes],
        "class_generalizations": [
            {"general": c.general.name, "special": c.name}
            for c in schema.classes
            if c.general is not None
        ],
        "associations": [
            {
                "name": a.name,
                "doc": a.doc,
                "acyclic": a.acyclic,
                "covering": a.covering,
                "procedures": [proc.name for proc in a.attached_procedures],
                "roles": [
                    {
                        "name": role.name,
                        "target": role.target.name,
                        "cardinality": str(role.cardinality),
                    }
                    for role in a.roles
                ],
                "attributes": [
                    {
                        "name": attr.name,
                        "sort": attr.sort.name,
                        "cardinality": str(attr.cardinality),
                        "doc": attr.doc,
                    }
                    for attr in a.attributes
                ],
            }
            for a in schema.associations
        ],
        "association_generalizations": [
            {"general": a.general.name, "special": a.name}
            for a in schema.associations
            if a.general is not None
        ],
    }


def _class_from_dict(
    data: dict, registry: ProcedureRegistry
) -> EntityClass:
    entity_class = EntityClass(
        data["name"],
        value_sort=sort_by_name(data["sort"]) if data["sort"] else None,
        doc=data.get("doc", ""),
    )
    entity_class.covering = data.get("covering", False)
    for proc_name in data.get("procedures", ()):
        entity_class.attach(registry.get(proc_name))
    _attach_dependents(entity_class, data.get("dependents", ()), registry)
    return entity_class


def _attach_dependents(
    parent: EntityClass, dependents: Any, registry: ProcedureRegistry
) -> None:
    for data in dependents:
        child = parent.add_dependent(
            data["name"],
            data["cardinality"],
            value_sort=sort_by_name(data["sort"]) if data["sort"] else None,
            doc=data.get("doc", ""),
        )
        child.covering = data.get("covering", False)
        for proc_name in data.get("procedures", ()):
            child.attach(registry.get(proc_name))
        _attach_dependents(child, data.get("dependents", ()), registry)


def schema_from_dict(
    data: dict, registry: Optional[ProcedureRegistry] = None
) -> Schema:
    """Rebuild a schema from its dict form."""
    registry = registry or default_registry()
    schema = Schema(data["name"])
    for class_data in data["classes"]:
        schema.add_class(_class_from_dict(class_data, registry))
    for assoc_data in data["associations"]:
        roles = [
            Role(
                role["name"],
                schema.entity_class(role["target"]),
                role["cardinality"],
            )
            for role in assoc_data["roles"]
        ]
        association = Association(
            assoc_data["name"],
            roles[0],
            roles[1],
            acyclic=assoc_data.get("acyclic", False),
            doc=assoc_data.get("doc", ""),
        )
        association.covering = assoc_data.get("covering", False)
        for proc_name in assoc_data.get("procedures", ()):
            association.attach(registry.get(proc_name))
        for attr in assoc_data.get("attributes", ()):
            association.add_attribute(
                Attribute(
                    attr["name"],
                    sort_by_name(attr["sort"]),
                    attr["cardinality"],
                    doc=attr.get("doc", ""),
                )
            )
        schema.add_association(association)
    for link in data.get("class_generalizations", ()):
        specialize(
            schema.entity_class(link["general"]), schema.entity_class(link["special"])
        )
    for link in data.get("association_generalizations", ()):
        specialize(
            schema.association(link["general"]), schema.association(link["special"])
        )
    return schema.check()


# ---------------------------------------------------------------------------
# item states
# ---------------------------------------------------------------------------

def _object_state_to_dict(state: ObjectState) -> dict:
    return {
        "class": state.class_name,
        "name": state.name,
        "index": state.index,
        "parent": state.parent_oid,
        "value": encode_value(state.value),
        "deleted": state.deleted,
        "pattern": state.is_pattern,
        "inherits": list(state.inherited_pattern_oids),
    }


def _object_state_from_dict(data: dict) -> ObjectState:
    return ObjectState(
        class_name=data["class"],
        name=data["name"],
        index=data["index"],
        parent_oid=data["parent"],
        value=decode_value(data["value"]),
        deleted=data["deleted"],
        is_pattern=data["pattern"],
        inherited_pattern_oids=tuple(data["inherits"]),
    )


def _relationship_state_to_dict(state: RelationshipState) -> dict:
    return {
        "association": state.association_name,
        "bindings": [[role, oid] for role, oid in state.bindings],
        "attributes": [
            [name, encode_value(value)] for name, value in state.attributes
        ],
        "deleted": state.deleted,
        "pattern": state.is_pattern,
    }


def _relationship_state_from_dict(data: dict) -> RelationshipState:
    return RelationshipState(
        association_name=data["association"],
        bindings=tuple((role, oid) for role, oid in data["bindings"]),
        attributes=tuple(
            (name, decode_value(value)) for name, value in data["attributes"]
        ),
        deleted=data["deleted"],
        is_pattern=data["pattern"],
    )


# The one state<->dict codec, by item kind (``"o"`` / ``"r"``): images,
# every journaled delta kind, check-in packages and wire tickets all
# carry states in this form.

_STATE_KEYS = {
    "o": frozenset(
        "class name index parent value deleted pattern inherits".split()
    ),
    "r": frozenset("association bindings attributes deleted pattern".split()),
}
#: long spellings written by pre-PR-12 ``checkin`` journal records
_LEGACY_STATE_KEYS = {
    "class_name": "class",
    "parent_oid": "parent",
    "is_pattern": "pattern",
    "inherited_pattern_oids": "inherits",
    "association_name": "association",
}


def state_to_dict(kind: str, state: Any) -> dict:
    """JSON-compatible form of one frozen item state."""
    if kind == "o":
        return _object_state_to_dict(state)
    return _relationship_state_to_dict(state)


def state_from_dict(kind: str, data: dict) -> Any:
    """Inverse of :func:`state_to_dict`; legacy long key names are
    accepted, unknown or missing keys raise ``StorageError``."""
    keys = _STATE_KEYS[kind]
    if data.keys() != keys:
        data = {_LEGACY_STATE_KEYS.get(key, key): data[key] for key in data}
        if data.keys() != keys:
            raise StorageError(
                f"malformed item state: missing keys {sorted(keys - data.keys())}, "
                f"unknown keys {sorted(data.keys() - keys)}"
            )
    if kind == "o":
        return _object_state_from_dict(data)
    return _relationship_state_from_dict(data)


def _decoded(kind: str, pairs: Iterable) -> Iterator[tuple[int, Any]]:
    """``[id, state dict]`` pairs of a delta as ``(id, state)`` tuples."""
    return ((item_id, state_from_dict(kind, data)) for item_id, data in pairs)


# ---------------------------------------------------------------------------
# the state kernel: a frozen state's canonical JSON, written from its fields
# ---------------------------------------------------------------------------
#
# What ``RecordFile.encode(state_to_dict(kind, state))`` writes, without
# the dict and without the generic encoder's per-call set-up: keys in the
# order ``sort_keys=True`` puts them, strings escaped by the same function
# the encoder uses. Every state a journal record or an image carries is
# encoded here; ``state_to_dict`` + ``RecordFile.encode`` is the oracle.

def _json_scalar(value: Any) -> str:
    """The canonical JSON of one field value.

    ``True``/``False`` are tested before ``int``: ``int.__repr__(True)``
    is ``'True'``. Floats, subclasses and containers take the generic
    encoder, which spells them the way it always has.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is int:
        return repr(value)
    return RecordFile.encode(value).decode("ascii")


def _json_value(value: Any) -> str:
    """The canonical JSON of a stored value (:func:`encode_value`)."""
    if type(value) is str:
        return _quote(value)
    return _json_scalar(encode_value(value))


def _object_json(state: ObjectState) -> tuple[str, int]:
    head = '{"class":%s,"deleted":%s,"index":%s,"inherits":[%s],"name":%s' % (
        _json_scalar(state.class_name),
        _json_scalar(state.deleted),
        _json_scalar(state.index),
        ",".join(map(_json_scalar, state.inherited_pattern_oids)),
        _json_scalar(state.name),
    )
    return head + ',"parent":%s,"pattern":%s,"value":%s}' % (
        _json_scalar(state.parent_oid),
        _json_scalar(state.is_pattern),
        _json_value(state.value),
    ), len(head)


def _relationship_json(state: RelationshipState) -> tuple[str, int]:
    text = (
        '{"association":%s,"attributes":[%s],"bindings":[%s],'
        '"deleted":%s,"pattern":%s}'
    ) % (
        _json_scalar(state.association_name),
        ",".join([
            "[%s,%s]" % (_json_scalar(name), _json_value(value))
            for name, value in state.attributes
        ]),
        ",".join([
            "[%s,%s]" % (_json_scalar(role), _json_scalar(oid))
            for role, oid in state.bindings
        ]),
        _json_scalar(state.deleted),
        _json_scalar(state.is_pattern),
    )
    return text, len(text) - 1


def _encode_state(kind: str, state: Any) -> tuple[bytes, int]:
    """The state kernel: :func:`encode_state`'s bytes, plus the offset
    where the item's id key goes in its image member (before
    ``"parent"`` in an object, before the closing brace in a
    relationship — see :func:`_member`)."""
    text, split = (_object_json if kind == "o" else _relationship_json)(state)
    return text.encode("ascii"), split


def encode_state(kind: str, state: Any) -> bytes:
    """Canonical JSON bytes of one frozen item state: byte for byte
    ``RecordFile.encode(state_to_dict(kind, state))``."""
    return _encode_state(kind, state)[0]


#: an item kind as a JSON string, and the id member an image splices
#: into an item's state
_KINDS = {"o": b'"o"', "r": b'"r"'}
_ID_KEYS = {"o": b',"oid":', "r": b',"rid":'}


def _member(kind: str, item_id: int, state: bytes, split: int) -> bytes:
    """An item's member of an image's ``objects``/``relationships``
    list (:func:`_object_record`, :func:`_relationship_record`): its
    encoded state with the id spliced in at the kernel's *split*."""
    return b"%b%b%d%b" % (state[:split], _ID_KEYS[kind], item_id, state[split:])


def _live_member(kind: str, item_id: int, item: Any) -> bytes:
    """:func:`_member` of a live object or relationship, encoded now."""
    return _member(kind, item_id, *_encode_state(kind, item.freeze()))


def _unspliced(kind: str, item_id: int, member: bytes) -> bytes:
    """The encoded state inside an image *member* (inverse of
    :func:`_member`). The id key is found by search: ``,"oid":`` /
    ``,"rid":`` occur once, as that key — inside an escaped string a
    quote always follows a backslash, never a comma."""
    tag = b"%b%d" % (_ID_KEYS[kind], item_id)
    at = member.index(tag)
    return member[:at] + member[at + len(tag):]


def _cell_json(key: ItemKey, entries: Iterable[tuple[Any, bytes, bool]]) -> bytes:
    """A version-store cell (:func:`_cell_record`) from its entries as
    ``(version, encoded state, materialized)``."""
    kind, item_id = key
    return b'{"id":%d,"kind":%b,"states":[%b]}' % (
        item_id,
        _KINDS[kind],
        b",".join([
            b'{%b"state":%b,"version":%b}' % (
                b'"materialized":true,' if materialized else b"",
                state,
                _quote(str(version)).encode("ascii"),
            )
            for version, state, materialized in entries
        ]),
    )


# ---------------------------------------------------------------------------
# transaction deltas (write-ahead ``txn`` journal records)
# ---------------------------------------------------------------------------

def txn_delta_from_txn(
    db: SeedDatabase, txn, fragments: Optional[ImageFragments] = None
) -> bytes:
    """Serialise one committed transaction's item-state changes.

    *txn* is the committed ``_Transaction`` handed to the database's
    post-commit sink: its ``touched`` map names every item the
    transaction changed (cascaded deletions included), and freezing
    those items *after* commit captures exactly the states replay must
    reproduce. ``dirty`` records which touched keys are in the dirty
    set at commit time so the replayed database's dirty tracking (a
    serialised part of the canonical image) matches the live one.

    Returns the delta's canonical JSON (``{"dirty": [[kind, id], ...],
    "objects": [[oid, state], ...], "relationships": [[rid, state],
    ...]}`` as :meth:`RecordFile.encode` writes it), joined from the
    state kernel's bytes. With *fragments*, each item's image member
    is kept there, made from the same bytes.
    """
    keys = sorted(txn.touched)
    items: dict[str, list] = {"o": [], "r": []}
    for key in keys:
        kind, item_id = key
        state, split = _encode_state(kind, txn.touched[key][0].freeze())
        items[kind].append(b"[%d,%b]" % (item_id, state))
        if fragments is not None:
            fragments.keep_item(kind, item_id, state, split)
    dirty = db._dirty  # noqa: SLF001 - dirty parity is part of the delta
    return b'{"dirty":[%b],"objects":[%b],"relationships":[%b]}' % (
        b",".join([
            b"[%b,%d]" % (_KINDS[kind], item_id)
            for kind, item_id in keys
            if (kind, item_id) in dirty
        ]),
        b",".join(items["o"]),
        b",".join(items["r"]),
    )


def apply_txn_delta(db: SeedDatabase, delta: dict) -> int:
    """Replay one ``txn`` delta against *db*; returns items applied.

    The delta carries committed *after* states keyed by stable item
    ids, so replay is a direct state upsert through
    :func:`~repro.core.bulk.wire_item_states` — no consistency
    re-validation (the states were validated when they committed) and
    no id translation (unlike check-in packages, direct transactions
    run on the master itself). Objects apply in ascending oid order,
    which lists parents before their transaction-created children.
    The policy added here: the delta's dirty keys merge into the dirty
    set, and index layers are marked stale rather than rebuilt eagerly
    — the next index-backed read (including a later check-in delta's
    validation) rebuilds once.
    """
    objects = delta.get("objects", ())
    relationships = delta.get("relationships", ())
    wire_item_states(db, _decoded("o", objects), _decoded("r", relationships))
    db._dirty.update(  # noqa: SLF001
        tuple(key) for key in delta.get("dirty", ())
    )
    db.indexes.mark_stale()
    db.completeness.invalidate()
    return len(objects) + len(relationships)


# ---------------------------------------------------------------------------
# non-transactional mutation deltas (``schema`` / ``restore`` / ``version``
# journal records) — the change-event payloads of the generalized seam
# ---------------------------------------------------------------------------

def schema_delta_from_migration(
    db: SeedDatabase, new_schema: Any, schema_version: int
) -> dict:
    """Serialise one committed schema migration (``schema`` record).

    Captured *after* the migration succeeded: the new schema plus the
    migration stats (how many live items were re-bound, and the schema
    version index the migration registered). Replay needs only the
    schema — the stats make the journal self-describing.
    """
    return {
        "schema": schema_to_dict(new_schema),
        "stats": {
            "schema_version": schema_version,
            "objects": len(db._objects),  # noqa: SLF001
            "relationships": len(db._relationships),  # noqa: SLF001
        },
    }


def apply_schema_delta(
    db: SeedDatabase, delta: dict, registry: Optional[ProcedureRegistry] = None
) -> int:
    """Replay one ``schema`` delta; returns the schema version index.

    The migration was validated when it committed, so replay re-binds
    every live item by name without re-running consistency checks —
    the same direct-upsert stance as :func:`apply_txn_delta`. Mirrors
    the post-validation effects of
    :meth:`~repro.core.database.SeedDatabase.migrate_schema`: rebind,
    index rebuild, whole-database dirty marking, completeness and plan
    cache invalidation, schema version registration.
    """
    new_schema = schema_from_dict(delta["schema"], registry)
    for obj in db._objects.values():  # noqa: SLF001
        obj.entity_class = new_schema.entity_class(obj.entity_class.full_name)
    for rel in db._relationships.values():  # noqa: SLF001
        rel.association = new_schema.association(rel.association.name)
    db.schema = new_schema
    db.indexes.rebuild()
    for obj in db._objects.values():  # noqa: SLF001
        db._dirty.add(("o", obj.oid))  # noqa: SLF001
    for rel in db._relationships.values():  # noqa: SLF001
        db._dirty.add(("r", rel.rid))  # noqa: SLF001
    db.completeness.invalidate()
    plan_cache = getattr(db, "_plan_cache", None)
    if plan_cache is not None:
        plan_cache.clear()
    return db.versions.register_schema_version(new_schema)


def restore_delta_from_db(db: SeedDatabase, version: Optional[str]) -> dict:
    """Serialise one committed view restore (``restore`` record).

    Captured *after* :meth:`~repro.core.database.SeedDatabase.
    restore_from_view` replaced the live items, so freezing the live
    state *is* the restored view delta — the version store itself may
    be compacted later, so replay must not depend on walking the chain
    again. *version* is the restored version id (``None`` for a raw
    view restore outside :meth:`select_version`).
    """
    return {
        "version": version,
        "objects": [
            [obj.oid, _object_state_to_dict(obj.freeze())]
            for obj in db.all_objects_raw()
        ],
        "relationships": [
            [rel.rid, _relationship_state_to_dict(rel.freeze())]
            for rel in db.all_relationships_raw()
        ],
        "next_id": db._next_id,  # noqa: SLF001
    }


def apply_restore_delta(db: SeedDatabase, delta: dict) -> int:
    """Replay one ``restore`` delta; returns the number of items loaded.

    Mirrors :meth:`~repro.core.database.SeedDatabase.restore_from_view`
    (dirty set cleared, one-shot state materialisation, completeness
    invalidated) and, when the restore came from
    :meth:`select_version`, re-bases the version history on the
    restored version exactly as the live call did.
    """
    db._dirty.clear()  # noqa: SLF001
    load_item_states(
        db,
        _decoded("o", delta.get("objects", ())),
        _decoded("r", delta.get("relationships", ())),
        next_id_floor=delta.get("next_id", 0),
    )
    db.completeness.invalidate()
    version = delta.get("version")
    if version is not None:
        vid = VersionId.parse(version)
        if vid in db.versions.tree:
            db.versions.current_base = vid
    return len(delta.get("objects", ())) + len(delta.get("relationships", ()))


def version_delta_from_db(
    db: SeedDatabase, vid: VersionId, fragments: Optional[ImageFragments] = None
) -> bytes:
    """Serialise one committed ``create_version`` (``version`` record).

    Captured *after* the manager recorded the snapshot: the delta
    carries the version's identity (id, parent, schema version,
    snapshot flag) plus exactly the cell states the store holds for it,
    read from the store's per-version index at O(states of the version)
    — in record order: the dirty-item deltas in sorted key order, then
    any states an online snapshot consolidation materialized. Replay
    records them in that order, and since only the dirty items can open
    new cells (a materialized state copies one an existing cell already
    holds), the replayed store lists its cells in the same order as the
    live one: the canonical image is byte-identical.

    Returns the delta's canonical JSON (``{"cells": [{"id", "kind",
    "materialized"?, "state"}, ...], "parent", "schema_version",
    "snapshot", "version"}``), joined from the state kernel's bytes.
    With *fragments*, every cell this version opened — its one entry
    is the state just encoded — is kept there, made from the same
    bytes; a cell that gained a further entry is re-encoded whole by
    the next save point.
    """
    store = db.versions.store
    cells = []
    for key, state, materialized in store.states_at(vid):
        kind, item_id = key
        blob = _encode_state(kind, state)[0]
        cells.append(b'{"id":%d,"kind":%b,%b"state":%b}' % (
            item_id,
            _KINDS[kind],
            b'"materialized":true,' if materialized else b"",
            blob,
        ))
        if fragments is not None and len(store._cells[key]) == 1:  # noqa: SLF001
            fragments.keep_cell(key, vid, blob, materialized)
    parent = db.versions.tree.parent(vid)
    encode = RecordFile.encode
    return _json_object({
        "cells": b"[%b]" % b",".join(cells),
        "parent": encode(str(parent) if parent else None),
        "schema_version": encode(db.versions.schema_version_of[vid]),
        "snapshot": encode(store.is_snapshot(vid)),
        "version": encode(str(vid)),
    })


def apply_version_delta(db: SeedDatabase, delta: dict) -> VersionId:
    """Replay one ``version`` delta; returns the recreated version id.

    Mirrors :meth:`~repro.core.versions.manager.VersionManager.
    create_version` from its recorded outcome: tree node, stored cell
    states (with materialisation/snapshot markers), schema version
    stamp, the dirty-set clear, and the current base moving to the new
    version.
    """
    vid = VersionId.parse(delta["version"])
    parent = VersionId.parse(delta["parent"]) if delta.get("parent") else None
    manager = db.versions
    manager.tree.add(vid, parent)
    for cell in delta.get("cells", ()):
        _record_cell_state(db, vid, cell["kind"], cell["id"], cell)
    if delta.get("snapshot"):
        manager.store.mark_snapshot(vid)
    manager.schema_version_of[vid] = delta["schema_version"]
    # the live call snapshotted *everything* dirty (items deleted by a
    # rolled-back creation simply stored nothing), then cleared the set
    db.clear_dirty()
    manager.current_base = vid
    return vid


# ---------------------------------------------------------------------------
# whole database
# ---------------------------------------------------------------------------

def _image_header(db: SeedDatabase) -> dict:
    """Everything of an image except its three per-item collections."""
    tree = db.versions.tree
    return {
        "format": FORMAT_VERSION,
        "name": db.name,
        "schema_versions": [
            schema_to_dict(schema) for schema in db.versions.schema_versions
        ],
        "version_tree": [
            {
                "version": str(version),
                "parent": str(tree.parent(version)) if tree.parent(version) else None,
            }
            for version in tree.in_creation_order()
        ],
        "snapshot_versions": [
            str(version) for version in db.versions.store.snapshot_versions()
        ],
        "schema_version_of": {
            str(version): index
            for version, index in db.versions.schema_version_of.items()
        },
        "current_base": str(db.versions.current_base)
        if db.versions.current_base
        else None,
        "dirty": sorted(list(key) for key in db._dirty),  # noqa: SLF001
    }


def _object_record(obj: SeedObject) -> dict:
    """One member of an image's ``objects`` list."""
    return {"oid": obj.oid, **_object_state_to_dict(obj.freeze())}


def _relationship_record(rel: SeedRelationship) -> dict:
    """One member of an image's ``relationships`` list."""
    return {"rid": rel.rid, **_relationship_state_to_dict(rel.freeze())}


def _cell_record(store: VersionStore, key: ItemKey) -> dict:
    """One version-store cell: every stored state of one item."""
    kind, item_id = key
    entries = []
    for version, state, materialized in store.entries_of(key):
        entry = {"version": str(version), "state": state_to_dict(kind, state)}
        if materialized:
            entry["materialized"] = True
        entries.append(entry)
    return {"kind": kind, "id": item_id, "states": entries}


def database_to_dict(db: SeedDatabase) -> dict:
    """Serialise the complete database state."""
    store = db.versions.store
    return {
        **_image_header(db),
        "objects": [_object_record(obj) for obj in db.all_objects_raw()],
        "relationships": [
            _relationship_record(rel) for rel in db.all_relationships_raw()
        ],
        "version_cells": [_cell_record(store, key) for key in store.keys()],
    }


#: an image's three per-item lists, in image order
_ITEM_LISTS = ("objects", "relationships", "version_cells")


class ImageFragments:
    """Both kinds of checkpoint image, joined from encoded fragments.

    Holds one encoded JSON fragment per object, relationship (keyed by
    id) and version-store cell (keyed by item key) — exactly the bytes
    :meth:`RecordFile.encode` gives that member of the
    :func:`database_to_dict` lists — and nothing else: no frozen state
    is kept to compare against. A fragment is *filled* where a journal
    record has just encoded the state, from the same bytes
    (:meth:`keep_item` for every item a ``txn`` delta carries,
    :meth:`keep_cell` for every cell a ``version`` delta opens), and
    *dropped* wherever state is written otherwise: the writer reports
    the key (:meth:`item_changed`, :meth:`cell_changed`,
    :meth:`items_replaced`). :meth:`encode` (the monolithic ``image``
    record) and :meth:`records` (the streamed image records) encode the
    small header afresh, re-encode only the dropped fragments, and join
    the rest in image order. The results are byte-identical to
    ``RecordFile.encode({"kind": "image", "image": database_to_dict(db)})``
    and to ``RecordFile.encode`` of each :func:`iter_image_records`
    record as long as every write was reported, which
    :class:`~repro.core.storage.engine.JournaledDatabase` arranges
    through the database's ``_state_sink`` and the store's
    ``_cell_sink``.
    """

    __slots__ = ("_objects", "_relationships", "_cells")

    def __init__(self) -> None:
        self._objects: dict[int, bytes] = {}
        self._relationships: dict[int, bytes] = {}
        self._cells: dict[ItemKey, bytes] = {}

    def item_changed(self, key: ItemKey) -> None:
        """Drop the fragment of a live item whose state may have changed."""
        kind, item_id = key
        (self._objects if kind == "o" else self._relationships).pop(item_id, None)

    def cell_changed(self, key: ItemKey) -> None:
        """Drop the fragment of a version-store cell that changed."""
        self._cells.pop(key, None)

    def items_replaced(self) -> None:
        """Drop every live item's fragment (restore, schema migration)."""
        self._objects.clear()
        self._relationships.clear()

    def keep_item(self, kind: str, item_id: int, state: bytes, split: int) -> None:
        """Keep the member of an item whose current state a record has
        just encoded (*state*, *split* as the state kernel made them)."""
        (self._objects if kind == "o" else self._relationships)[item_id] = (
            _member(kind, item_id, state, split)
        )

    def keep_cell(
        self, key: ItemKey, version: VersionId, state: bytes, materialized: bool
    ) -> None:
        """Keep a cell whose one entry — the encoded *state* at
        *version* — a record has just encoded."""
        self._cells[key] = _cell_json(key, ((version, state, materialized),))

    def _lists(self, db: SeedDatabase) -> tuple[list[bytes], ...]:
        """The fragments of *db*'s objects, relationships and cells in
        image order, encoding only the missing ones."""
        objects = db._objects  # noqa: SLF001
        relationships = db._relationships  # noqa: SLF001
        store = db.versions.store
        return (
            _cached(
                self._objects, objects.keys(),
                lambda oid: _live_member("o", oid, objects[oid]),
            ),
            _cached(
                self._relationships, relationships.keys(),
                lambda rid: _live_member("r", rid, relationships[rid]),
            ),
            _cached(
                self._cells, store.keys(),
                lambda key: _cell_json(key, [
                    (version, _encode_state(key[0], state)[0], materialized)
                    for version, state, materialized in store.entries_of(key)
                ]),
            ),
        )

    def encode(self, db: SeedDatabase) -> bytes:
        """The payload of *db*'s monolithic ``image`` record.

        Joined once: the image is megabytes, and each concatenation
        would copy it again.
        """
        encode = RecordFile.encode
        image = {key: [encode(value)] for key, value in _image_header(db).items()}
        for name, blobs in zip(_ITEM_LISTS, self._lists(db)):
            image[name] = [b"[", b",".join(blobs), b"]"]
        pieces = [b'{"image":{']
        for key in sorted(image):
            pieces += (encode(key), b":", *image[key], b",")
        pieces[-1] = b'},"kind":"image"}'  # in place of the last comma
        return b"".join(pieces)

    def records(self, db: SeedDatabase) -> Iterator[bytes]:
        """The payload of every :func:`iter_image_records` record of
        *db*, in order — what a streamed checkpoint frames."""
        objects, relationships, cells = self._lists(db)
        # the header is encoded afresh at every save point: it is the
        # oracle stream's own first record
        yield RecordFile.encode(next(iter_image_records(db)))
        for oid, member in zip(db._objects, objects):  # noqa: SLF001
            yield b'{"o":%d,"s":%b}' % (oid, _unspliced("o", oid, member))
        for rid, member in zip(db._relationships, relationships):  # noqa: SLF001
            yield b'{"r":%d,"s":%b}' % (rid, _unspliced("r", rid, member))
        for cell in cells:
            yield b'{"c":%b}' % cell
        yield b'{"end":{"c":%d,"o":%d,"r":%d}}' % (
            len(cells), len(objects), len(relationships)
        )


def _cached(cache: dict, keys: KeysView, encode: Callable[[Any], bytes]) -> list:
    """The fragments of *keys*, in their order, encoding only those
    *cache* lacks; fragments of keys that left *keys* (tombstone GC, a
    restore) are dropped."""
    blobs = []
    for key in keys:
        blob = cache.get(key)
        if blob is None:
            blob = cache[key] = encode(key)
        blobs.append(blob)
    if len(cache) > len(blobs):
        for gone in cache.keys() - keys:
            del cache[gone]
    return blobs


def _json_object(members: dict[str, bytes]) -> bytes:
    """A JSON object from encoded member values, keys in the order
    ``sort_keys=True`` writes them."""
    return b"{%b}" % b",".join([
        b"%b:%b" % (RecordFile.encode(key), members[key]) for key in sorted(members)
    ])


def _image_dict_records(data: dict) -> Iterator[dict]:
    """One monolithic image dict as its :func:`iter_image_records` stream."""
    yield {"h": {key: data[key] for key in data if key not in _ITEM_LISTS}}
    for record in data["objects"]:
        state = dict(record)
        yield {"o": state.pop("oid"), "s": state}
    for record in data["relationships"]:
        state = dict(record)
        yield {"r": state.pop("rid"), "s": state}
    for cell in data["version_cells"]:
        yield {"c": cell}
    yield {"end": {tag: len(data[key]) for tag, key in zip("orc", _ITEM_LISTS)}}


def database_from_dict(
    data: dict, registry: Optional[ProcedureRegistry] = None
) -> SeedDatabase:
    """Rebuild a database (inverse of :func:`database_to_dict`): the
    dict replays as its record stream into :func:`database_from_records`."""
    return database_from_records(_image_dict_records(data), registry)


# ---------------------------------------------------------------------------
# streaming image format
# ---------------------------------------------------------------------------
#
# The monolithic image dict materializes every item state at once; the
# streaming format decomposes the *same* canonical content into a header
# record, one record per object / relationship / version cell, and a
# counted footer, so images can be emitted and ingested one record at a
# time (O(1) extra memory — the database itself is the only O(n)
# structure on either side). The decomposition is exact:
# ``database_to_dict(database_from_records(iter_image_records(db)))`` is
# byte-identical to ``database_to_dict(db)`` under canonical JSON.

def iter_image_records(db: SeedDatabase) -> Iterator[dict]:
    """Stream the canonical image of *db* as self-describing records.

    Record shapes, in order:

    * ``{"h": {...}}`` — the image header: everything of
      :func:`database_to_dict` except the three per-item collections
      (format, name, schema versions, version tree, snapshot markers,
      schema stamps, current base, dirty set);
    * ``{"o": oid, "s": {...}}`` — one live/tombstoned object state;
    * ``{"r": rid, "s": {...}}`` — one relationship state;
    * ``{"c": {...}}`` — one version-store cell (all stored states of
      one item), in store insertion order;
    * ``{"end": {"o": n, "r": n, "c": n}}`` — counted footer; a stream
      that stops early is detectably truncated.
    """
    store = db.versions.store
    yield {"h": _image_header(db)}
    counts = {"o": 0, "r": 0, "c": 0}
    for obj in db.all_objects_raw():
        counts["o"] += 1
        yield {"o": obj.oid, "s": _object_state_to_dict(obj.freeze())}
    for rel in db.all_relationships_raw():
        counts["r"] += 1
        yield {"r": rel.rid, "s": _relationship_state_to_dict(rel.freeze())}
    for key in store.keys():
        counts["c"] += 1
        yield {"c": _cell_record(store, key)}
    yield {"end": dict(counts)}


class _ImageCursor:
    """One-record lookahead over a streamed image, cut into sections."""

    def __init__(self, records: Iterable[dict]) -> None:
        self._records = iter(records)
        self.head: Any = next(self._records, None)
        self.counts = {"o": 0, "r": 0, "c": 0}

    def tagged(self, tag: str) -> bool:
        """True when the record under the cursor carries *tag*."""
        return isinstance(self.head, dict) and tag in self.head

    def advance(self) -> None:
        """Move the cursor to the next record (None past the end)."""
        self.head = next(self._records, None)

    def section(self, tag: str) -> Iterator[dict]:
        """The contiguous run of *tag* records, counted; stops before
        the first record of the next section."""
        while self.tagged(tag):
            self.counts[tag] += 1
            yield self.head
            self.advance()

    def states(self, kind: str) -> Iterator[tuple[int, Any]]:
        """``(id, state)`` for every record of the item section *kind*."""
        return (
            (record[kind], state_from_dict(kind, record["s"]))
            for record in self.section(kind)
        )


def _record_cell_state(
    db: SeedDatabase, version: VersionId, kind: str, item_id: int, entry: dict
) -> None:
    """Store one encoded version-cell state (and its materialized mark)."""
    key = (kind, item_id)
    store = db.versions.store
    store.record(version, key, state_from_dict(kind, entry["state"]))
    if entry.get("materialized"):
        store.mark_materialized(version, key)


def database_from_records(
    records: Iterable[dict], registry: Optional[ProcedureRegistry] = None
) -> SeedDatabase:
    """Rebuild a database from a streamed image (single pass).

    The one image decoder: inverse of :func:`iter_image_records`, and
    of :func:`database_to_dict` through :func:`database_from_dict`.
    Item states stream straight into
    :func:`~repro.core.bulk.load_item_states` (an image is trusted to
    be consistent — it was checked when built), never holding the full
    image in memory. A stream that is malformed, out of order,
    truncated, or whose footer counts do not match raises
    :class:`~repro.core.errors.StorageError` — a partial image must
    never load silently.
    """
    cursor = _ImageCursor(records)
    if not cursor.tagged("h"):
        raise StorageError("image stream does not start with a header record")
    header = cursor.head["h"]
    if header.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported database image format {header.get('format')!r}"
        )
    schemas = [
        schema_from_dict(schema_data, registry)
        for schema_data in header["schema_versions"]
    ]
    db = SeedDatabase(schemas[-1], header["name"])
    db.versions.schema_versions = schemas
    cursor.advance()
    load_item_states(db, cursor.states("o"), cursor.states("r"))
    for node in header["version_tree"]:
        db.versions.tree.add(
            VersionId.parse(node["version"]),
            VersionId.parse(node["parent"]) if node["parent"] else None,
        )
    for record in cursor.section("c"):
        cell = record["c"]
        for entry in cell["states"]:
            _record_cell_state(
                db, VersionId.parse(entry["version"]), cell["kind"], cell["id"], entry
            )
    counts = cursor.counts
    if not cursor.tagged("end"):
        raise StorageError(
            "truncated image stream: no footer record "
            f"(read {counts['o']} object(s), {counts['r']} relationship(s), "
            f"{counts['c']} version cell(s))"
        )
    if cursor.head["end"] != counts:
        raise StorageError(
            f"incomplete image stream: footer declares {cursor.head['end']}, "
            f"read {counts}"
        )
    for version in header.get("snapshot_versions", ()):
        db.versions.store.mark_snapshot(VersionId.parse(version))
    db.versions.schema_version_of = {
        VersionId.parse(version): index
        for version, index in header["schema_version_of"].items()
    }
    db.versions.current_base = (
        VersionId.parse(header["current_base"])
        if header["current_base"]
        else None
    )
    db._dirty = {tuple(key) for key in header["dirty"]}  # noqa: SLF001
    return db


def ingest_image_records(
    db: SeedDatabase, records: Iterable[dict]
) -> dict[str, SeedObject]:
    """Bulk-ingest streamed item records into a *live* database.

    The from-state counterpart of the spec-walking
    :meth:`~repro.core.database.SeedDatabase.bulk_load`
    (which dispatches here for its ``records=`` form): consumes an
    :func:`iter_image_records`-style iterator one record at a time
    inside one bulk batch, so ingest never holds more than a single
    record beyond the database being built. A header is skipped, a
    counted footer is verified when present, and version-cell records
    are refused — version history belongs to images, not ingest. The
    policy over :func:`~repro.core.bulk.wire_item_states` is
    insert-only: item ids are taken from the records and must not
    collide with existing items (nor a live independent's name); the
    whole ingest is atomic (any error rolls the batch back).
    Returns the ingested independent objects by name.
    """
    cursor = _ImageCursor(records)
    created: dict[str, SeedObject] = {}
    with db.bulk() as txn:
        db.indexes.mark_stale()  # wiring from states calls no mutator

        def fresh(kind: str, registry: dict, what: str) -> Iterator:
            for item_id, state in cursor.states(kind):
                if item_id in registry:
                    raise StorageError(f"{what} id {item_id} already exists")
                parent = state.parent_oid if kind == "o" else None
                if parent is not None and parent not in registry:
                    # refused here: a record the primitive registers
                    # but cannot wire would escape the batch's rollback
                    raise StorageError(
                        f"object {item_id} comes before its parent {parent}"
                    )
                named = (
                    kind == "o" and state.parent_oid is None and not state.deleted
                )
                if named and state.name in db._name_index:  # noqa: SLF001
                    raise StorageError(
                        f"an object named {state.name!r} already exists"
                    )
                yield item_id, state
                # resumed once the primitive has created the record:
                # the new item registers with the batch here
                item = registry[item_id]
                db._mark_dirty(txn, txn.touch(item, "create"))  # noqa: SLF001
                if named:
                    created[state.name] = item

        if cursor.tagged("h"):
            cursor.advance()  # the header carries no items
        wire_item_states(
            db,
            fresh("o", db._objects, "object"),  # noqa: SLF001
            fresh("r", db._relationships, "relationship"),  # noqa: SLF001
        )
        if cursor.tagged("c"):
            raise StorageError(
                "version-cell records cannot be bulk-ingested into a "
                "live database; load them through an image instead"
            )
        if cursor.tagged("end"):
            footer = cursor.head["end"]
            counts = cursor.counts
            if footer.get("o") != counts["o"] or footer.get("r") != counts["r"]:
                raise StorageError(
                    f"incomplete image stream: footer declares {footer}, "
                    f"ingested {counts}"
                )
        elif cursor.head is not None:
            raise StorageError(f"not an image record: {cursor.head!r}")
    return created
