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

A state is encoded once, by one kernel: :func:`_encode_state` writes a
frozen state's canonical JSON straight from its fields, byte for byte
what ``RecordFile.encode(state_to_dict(kind, state))`` writes (the
oracle). The ``txn`` and ``version`` deltas are joined from its bytes,
and so is :class:`ImageFragments`, the journal's image encoder: it
keeps each item's and cell's encoded bytes — filled from the bytes a
``txn`` or ``version`` record has just written, extended by the entry
a ``version`` record adds at a cell's end, dropped where state is
written otherwise — and produces the monolithic record of
:func:`database_to_dict` and the records of :func:`iter_image_records`
byte for byte, encoding only what is not cached. A ``version`` record
written right after a commit encodes nothing the ``txn`` record did:
it takes those states' bytes from the kept item members.

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
from typing import (
    Any, Callable, Iterable, Iterator, KeysView, NamedTuple, Optional,
)

from repro.core.bulk import load_item_states, long_lived, wire_item_states
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
    """The state kernel: one frozen state's canonical JSON bytes, plus
    the offset where the item's id key goes in its image member (before
    ``"parent"`` in an object, before the closing brace in a
    relationship — see :func:`_member`)."""
    text, split = (_object_json if kind == "o" else _relationship_json)(state)
    return text.encode("ascii"), split


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


def _state_pair(
    kind: str, item_id: int, state: Any, fragments: Optional[ImageFragments]
) -> bytes:
    """``[id, state]`` as a ``txn`` or ``restore`` delta lists an item,
    from the state kernel's bytes. With *fragments*, the item's image
    member is kept there, made from the same bytes."""
    blob, split = _encode_state(kind, state)
    if fragments is not None:
        fragments.keep_item(kind, item_id, blob, split)
    return b"[%d,%b]" % (item_id, blob)


def _version_json(version: VersionId) -> bytes:
    """A version id as the JSON string a record or a cell holds."""
    return _quote(str(version)).encode("ascii")


#: what closes a cell's member of an image's ``version_cells`` list and
#: separates it from the next one: every cell fragment opens with it
_BETWEEN = b"}]},"


def _entry_piece(state: bytes, materialized: bool = False) -> bytes:
    """One entry of a cell's ``states`` list up to its version label
    (*state* as the kernel encoded it)."""
    return b'{%b"state":%b,"version":' % (
        b'"materialized":true,' if materialized else b"", state,
    )


def _opened(key: ItemKey, piece: bytes) -> bytes:
    """The first piece of cell *key*'s fragment: the bytes that close
    the cell before it, the cell's head and its first entry *piece*."""
    kind, item_id = key
    return b'%b{"id":%d,"kind":%b,"states":[%b' % (
        _BETWEEN, item_id, _KINDS[kind], piece,
    )


def _linked(pieces: list[bytes], labels: list[bytearray]) -> tuple:
    """A cell fragment (see :class:`ImageFragments`): each of *pieces*
    followed by the label holder of its entry's delta slot."""
    fragment = pieces + labels
    fragment[::2], fragment[1::2] = pieces, labels
    return tuple(fragment)


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
    is kept there, made from the same bytes. The frozen states go to
    ``db.keep_committed_states``, so a version created next records
    them without freezing the items again.
    """
    touched = txn.touched
    keys = sorted(touched)
    frozen: dict[ItemKey, Any] = {}
    items: dict[str, list] = {"o": [], "r": []}
    for key in keys:
        kind, item_id = key
        frozen[key] = state = touched[key][0].freeze()
        items[kind].append(_state_pair(kind, item_id, state, fragments))
    db.keep_committed_states(frozen)
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
# journal records) — the change-event payloads of the generalized seam.
# Each applier decodes its record and calls the routine the live
# operation runs; it keeps no bookkeeping of its own
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

    The migration was validated when it committed, so replay binds the
    schema and adopts it as ``migrate_schema`` does, without its
    consistency check.
    """
    new_schema = schema_from_dict(delta["schema"], registry)
    db._bind_schema(new_schema)  # noqa: SLF001
    return db._schema_adopted(new_schema)  # noqa: SLF001


def restore_delta_from_db(
    db: SeedDatabase,
    version: Optional[VersionId],
    fragments: Optional[ImageFragments] = None,
) -> bytes:
    """Serialise one committed restore (``restore`` record).

    Captured *after* the restore replaced the live items, so freezing
    the live state *is* the restored view delta — the version store
    may be compacted later, so replay must not walk the chain again.
    *version* is the base the restore moved to (``None``: it stayed).

    Returns the canonical JSON of ``{"next_id", "objects": [[oid,
    state], ...], "relationships": [[rid, state], ...], "version"}``,
    joined as :func:`_state_pair` writes each item.
    """
    return b'{"next_id":%d,"objects":[%b],"relationships":[%b],"version":%b}' % (
        db._next_id,  # noqa: SLF001
        b",".join([
            _state_pair("o", obj.oid, obj.freeze(), fragments)
            for obj in db.all_objects_raw()
        ]),
        b",".join([
            _state_pair("r", rel.rid, rel.freeze(), fragments)
            for rel in db.all_relationships_raw()
        ]),
        b"null" if version is None else _version_json(version),
    )


def apply_restore_delta(db: SeedDatabase, delta: dict) -> int:
    """Replay one ``restore`` delta; returns the number of items loaded."""
    objects = delta.get("objects", ())
    relationships = delta.get("relationships", ())
    version = delta.get("version")
    db._restore(  # noqa: SLF001
        _decoded("o", objects),
        _decoded("r", relationships),
        VersionId.parse(version) if version is not None else None,
        delta.get("next_id", 0),
    )
    return len(objects) + len(relationships)


def version_delta_from_db(
    db: SeedDatabase, vid: VersionId, fragments: Optional[ImageFragments] = None
) -> bytes:
    """Serialise one committed ``create_version`` (``version`` record).

    Captured *after* the manager recorded the version: the delta
    carries the version's identity (id, parent, schema version,
    snapshot flag) plus exactly the cell states the store holds for it,
    read from the store's per-version index at O(states of the version)
    — the dirty-item deltas in sorted key order. Replay records them in
    that order, so the replayed store lists its cells in the same order
    as the live one: the canonical image is byte-identical.
    ``create_version`` materializes nothing, so no cell is marked
    ``"materialized"`` and ``"snapshot"`` is false; the reader
    (:func:`apply_version_delta`) still honours both marks, which
    journals written while snapshots were also taken online hold.

    Returns the delta's canonical JSON (``{"cells": [{"id", "kind",
    "state"}, ...], "parent", "schema_version", "snapshot",
    "version"}``), joined from the state kernel's bytes.

    With *fragments*, a recorded state whose item has a kept image
    member is not encoded again: it is the item's live state, which
    that member encodes (:meth:`ImageFragments.state_of`). Usually a
    ``txn`` record has just made it. An item without a member goes
    through the state kernel. Every cell this version opened — its one
    entry is the state just written — is kept there, made from the same
    bytes; a cell that grew by this entry at its end has the same bytes
    spliced onto its fragment (:meth:`ImageFragments.splice_cell`).
    """
    store = db.versions.store
    version = _version_json(vid)
    slot = store._slot_of.get(vid)  # noqa: SLF001
    cells = []
    for key, state, __ in store.states_at(vid):
        kind, item_id = key
        blob = None
        if fragments is not None:
            blob = fragments.state_of(kind, item_id)
        if blob is None:
            blob = _encode_state(kind, state)[0]
        cells.append(b'{"id":%d,"kind":%b,"state":%b}' % (
            item_id, _KINDS[kind], blob,
        ))
        if fragments is not None:
            if len(store._cells[key]) == 1:  # noqa: SLF001
                fragments.keep_cell(key, blob, slot)
            else:
                fragments.splice_cell(key, blob, slot)
    parent = db.versions.tree.parent(vid)
    encode = RecordFile.encode
    return _json_object({
        "cells": b"[%b]" % b",".join(cells),
        "parent": encode(str(parent) if parent else None),
        "schema_version": encode(db.versions.schema_version_of[vid]),
        "snapshot": encode(store.is_snapshot(vid)),
        "version": version,
    })


def apply_version_delta(db: SeedDatabase, delta: dict) -> VersionId:
    """Replay one ``version`` delta; returns the recreated version id.

    The version enters the history through :meth:`~repro.core.versions.
    manager.VersionManager.add_version`, as in ``create_version``, with
    the recorded cells, their materialized marks and the snapshot mark.
    """
    vid = VersionId.parse(delta["version"])
    cells = delta.get("cells", ())
    db.versions.add_version(
        vid,
        VersionId.parse(delta["parent"]) if delta.get("parent") else None,
        [
            ((cell["kind"], cell["id"]), state_from_dict(cell["kind"], cell["state"]))
            for cell in cells
        ],
        delta["schema_version"],
        [(c["kind"], c["id"]) for c in cells if c.get("materialized")],
        bool(delta.get("snapshot")),
    )
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
    id) and version-store cell (keyed by item key), and nothing else: no
    frozen state is kept to compare against. An item's fragment is
    exactly the bytes :meth:`RecordFile.encode` gives its member of the
    :func:`database_to_dict` lists. A cell's fragment holds no version
    label: canonical JSON writes an entry's ``"version"`` member last,
    so the cell's bytes split cleanly around each label, and the
    fragment is a tuple of those pieces with, in each label's place, the
    *label holder* of the entry's delta slot (a ``bytearray`` shared by
    every fragment naming that slot). Each join first writes every
    slot's current label into its holder (:attr:`_labels`), so a
    compaction fold that renames a slot changes no kept byte. A fold
    that moves entries without reordering their cells frees the slot
    they left; the join empties a freed slot's holder and relinks the
    fragments naming it to the holders of the slots their entries moved
    to, keeping their bytes.
    A fragment is *filled* where a journal record has just encoded the
    state (:meth:`keep_item` for every item a ``txn`` or ``restore``
    delta carries, :meth:`keep_cell` for every cell a ``version`` delta
    opens), *extended* where a ``version`` delta adds an entry at a
    cell's end (:meth:`splice_cell`: never a materialized entry) and
    where a compaction pass's snapshot consolidation does
    (:meth:`cells_materialized`: the next join encodes only that
    entry's state), and *dropped* wherever state is written otherwise:
    the writer reports the key (:meth:`item_changed`,
    :meth:`cell_changed`).
    A schema migration writes no encoded state: it re-binds each item
    to the element of the same name. A kept item member therefore always
    encodes the item's live state, and a ``version`` delta reads it
    back (:meth:`state_of`) for every state it records from a live
    item instead of encoding that state again. :meth:`encode` (the
    monolithic ``image`` record) and :meth:`records` (the frames of a
    streamed image group) encode the small header afresh, re-encode only
    the dropped fragments, and join the rest in image order. The results
    are byte-identical to
    ``RecordFile.encode({"kind": "image", "image": database_to_dict(db)})``
    and to ``RecordFile.encode`` of each record of the group built from
    :func:`iter_image_records` as long as every write was reported,
    which :class:`~repro.core.storage.engine.JournaledDatabase` arranges
    through the database's ``_state_sink`` and the store's
    ``_cell_sink`` (this object).
    """

    __slots__ = ("_objects", "_relationships", "_cells", "_open", "_grown", "_labels")

    def __init__(self) -> None:
        self._objects: dict[int, bytes] = {}
        self._relationships: dict[int, bytes] = {}
        self._cells: dict[ItemKey, tuple] = {}
        #: fragments of cells that grew at their end by an entry the
        #: ``version`` record (or, for ``_grown``, the next join) has not
        #: spliced on yet
        self._open: dict[ItemKey, tuple] = {}
        #: key -> the state of a materialized entry at the end of an
        #: open fragment, spliced on at the next join
        self._grown: dict[ItemKey, Any] = {}
        #: delta slot -> its label holder: the slot's version id as
        #: JSON, as of the last join
        self._labels: dict[int, bytearray] = {}

    def item_changed(self, key: ItemKey) -> None:
        """Drop the fragment of a live item whose state may have changed."""
        kind, item_id = key
        (self._objects if kind == "o" else self._relationships).pop(item_id, None)

    def cell_changed(self, key: ItemKey, at_end: bool = False) -> None:
        """Drop the fragment of a version-store cell that changed.

        A cell that only gained an entry sorting after all its others
        (*at_end*) keeps its fragment open until the ``version`` record
        holding that entry splices it on (:meth:`splice_cell`). The
        entry's own write is the last change before that splice: any
        other change of the cell drops the open fragment.
        """
        # a key is in at most one of the two tables
        fragment = self._cells.pop(key, None)
        if fragment is None:
            # never spliced: drop it
            self._open.pop(key, None)
            self._grown.pop(key, None)
        elif at_end:
            self._open[key] = fragment

    def cells_materialized(self, grown: list[tuple[ItemKey, Any]]) -> None:
        """Snapshot consolidation added an entry holding the given state
        at the end of each cell of *grown*: the next join splices it
        onto the kept fragment, encoding only that state. A cell that
        changes again before then is encoded whole.
        """
        cells, opened, pending = self._cells, self._open, self._grown
        for key, state in grown:
            fragment = cells.pop(key, None)
            if fragment is None:
                opened.pop(key, None)
                pending.pop(key, None)
            else:
                opened[key] = fragment
                pending[key] = state

    def keep_item(self, kind: str, item_id: int, state: bytes, split: int) -> None:
        """Keep the member of an item whose current state a record has
        just encoded (*state*, *split* as the state kernel made them)."""
        (self._objects if kind == "o" else self._relationships)[item_id] = (
            _member(kind, item_id, state, split)
        )

    def keep_cell(self, key: ItemKey, state: bytes, slot: int) -> None:
        """Keep a cell whose one entry — the encoded *state*, in delta
        *slot* — a ``version`` record has just encoded."""
        self._cells[key] = (_opened(key, _entry_piece(state)), self._label(slot))

    def splice_cell(self, key: ItemKey, state: bytes, slot: int) -> None:
        """Extend the fragment of a cell that grew at its end by the
        entry a ``version`` record has just encoded, in delta *slot*. A
        cell not open keeps no fragment: the next save point encodes it."""
        fragment = self._open.pop(key, None)
        if fragment is not None:
            self._cells[key] = self._spliced(fragment, _entry_piece(state), slot)

    def _spliced(self, fragment: tuple, piece: bytes, slot: int) -> tuple:
        """*fragment* with the entry *piece*, in delta *slot*, added at its end."""
        return (*fragment, b"}," + piece, self._label(slot))

    def _label(self, slot: int) -> bytearray:
        """The label holder of delta *slot* (filled at the next join)."""
        label = self._labels.get(slot)
        if label is None:
            label = self._labels[slot] = bytearray()
        return label

    def state_of(self, kind: str, item_id: int) -> Optional[bytes]:
        """The encoded live state of an item whose member is kept (the
        member with its id taken out again), or None."""
        member = (self._objects if kind == "o" else self._relationships).get(item_id)
        return None if member is None else _unspliced(kind, item_id, member)

    def _lists(self, db: SeedDatabase) -> tuple[list[bytes], list[bytes], list]:
        """The fragments of *db*'s objects and relationships in image
        order, and the pieces of all its cells' fragments in image order
        (see :meth:`_cell_fragments`), encoding only the missing ones."""
        objects = db._objects  # noqa: SLF001
        relationships = db._relationships  # noqa: SLF001
        return (
            _cached(
                self._objects, objects.keys(),
                lambda oid: _live_member("o", oid, objects[oid]),
            ),
            _cached(
                self._relationships, relationships.keys(),
                lambda rid: _live_member("r", rid, relationships[rid]),
            ),
            self._cell_fragments(db.versions.store),
        )

    def _cell_fragments(self, store: VersionStore) -> list:
        """The pieces of every cell fragment of *store* in image order,
        their label holders holding the current labels; fragments of
        cells that left the store are dropped."""
        labels, versions = self._labels, store._version_of  # noqa: SLF001
        freed = labels.keys() - versions.keys()
        for slot in freed:
            labels.pop(slot).clear()
        for slot, version in versions.items():
            self._label(slot)[:] = _version_json(version)
        rank = {slot: version.parts for slot, version in versions.items()}
        cells, cache, opened = store._cells, self._cells, self._open  # noqa: SLF001
        for key, state in self._grown.items():
            piece = _entry_piece(_encode_state(key[0], state)[0], True)
            cache[key] = self._spliced(
                opened.pop(key), piece, max(cells[key], key=rank.__getitem__)
            )
        self._grown.clear()
        # a cell still open was not spliced by its version's record
        opened.clear()
        if freed:
            # an emptied holder names a freed slot: the entry moved
            for key, fragment in cache.items():
                if b"" in fragment and key in cells:
                    slots = sorted(cells[key], key=rank.__getitem__)
                    cache[key] = _linked(
                        list(fragment[::2]), [labels[slot] for slot in slots]
                    )
        pieces: list = []
        add, kept = pieces.extend, cache.get
        for key in cells:
            fragment = kept(key)
            if fragment is None:
                first, *rest = [
                    _entry_piece(_encode_state(key[0], state)[0], materialized)
                    for __, state, materialized in store.entries_of(key)
                ]
                # "}," ends the entry before
                fragment = cache[key] = _linked(
                    [_opened(key, first), *[b"}," + piece for piece in rest]],
                    [labels[slot] for slot in sorted(cells[key], key=rank.__getitem__)],
                )
            add(fragment)
        if len(cache) > len(cells):
            for gone in cache.keys() - cells.keys():
                del cache[gone]
        return pieces

    def encode(self, db: SeedDatabase) -> bytes:
        """The payload of *db*'s monolithic ``image`` record.

        Joined once: the image is megabytes, and each concatenation
        would copy it again.
        """
        encode = RecordFile.encode
        objects, relationships, cells = self._lists(db)
        image = {key: [encode(value)] for key, value in _image_header(db).items()}
        for name, blobs in (("objects", objects), ("relationships", relationships)):
            image[name] = [b"[", b",".join(blobs), b"]"]
        # each cell opens with what closes the one before it
        image["version_cells"] = [
            b"[", memoryview(b"".join(cells))[len(_BETWEEN):], b"}]}]"
        ] if cells else [b"[]"]
        pieces = [b'{"image":{']
        for key in sorted(image):
            pieces += (encode(key), b":", *image[key], b",")
        pieces[-1] = b'},"kind":"image"}'  # in place of the last comma
        return b"".join(pieces)

    def records(self, db: SeedDatabase, cp: int) -> Iterator[bytes]:
        """The payload of every frame of *db*'s streamed checkpoint *cp*,
        in order: ``RecordFile.encode`` of ``{"kind": "image.begin",
        "cp": cp}``, of ``{"kind": "image.rec", "cp": cp, "rec": r}``
        for each :func:`iter_image_records` record ``r``, and of
        ``{"kind": "image.end", "cp": cp, "n": count}``. Each record is
        wrapped once; an item's state is cut out of its kept member
        through a ``memoryview`` (as :func:`_unspliced` finds it)."""
        objects, relationships, __ = self._lists(db)
        cells = db.versions.store.keys()
        rec = b'{"cp":%d,"kind":"image.rec","rec":' % cp
        yield b'{"cp":%d,"kind":"image.begin"}' % cp
        # the header is encoded afresh at every save point: it is the
        # oracle stream's own first record
        yield b"%b%b}" % (rec, RecordFile.encode(next(iter_image_records(db))))
        for kind, ids, members in (
            ("o", db._objects, objects),  # noqa: SLF001
            ("r", db._relationships, relationships),  # noqa: SLF001
        ):
            head, id_key = b"%b{%b:" % (rec, _KINDS[kind]), _ID_KEYS[kind]
            for item_id, member in zip(ids, members):
                tag = b"%b%d" % (id_key, item_id)
                at = member.index(tag)
                view = memoryview(member)
                yield b'%b%d,"s":%b%b}}' % (
                    head, item_id, view[:at], view[at + len(tag):],
                )
        cut, open_cell, close_cell = len(_BETWEEN), b'{"c":', b"}]}}}"
        for key in cells:
            # one copy of the cell: its pieces joined straight into the frame
            first, *rest = self._cells[key]
            yield b"".join((rec, open_cell, memoryview(first)[cut:], *rest, close_cell))
        yield b'%b{"end":{"c":%d,"o":%d,"r":%d}}}' % (
            rec, len(cells), len(objects), len(relationships)
        )
        yield b'{"cp":%d,"kind":"image.end","n":%d}' % (
            cp, len(objects) + len(relationships) + len(cells) + 2
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
    """One monolithic image dict as its :func:`iter_image_records` stream.

    A built-in error raised while a record is produced (*data* is not
    an object, an item list is missing, is not a list or holds a
    non-object) becomes a ``StorageError`` that names the image section
    and chains the cause."""
    if not isinstance(data, dict):
        raise StorageError(
            f"malformed image record: the image is {type(data).__name__}, "
            "not an object"
        )
    section = "header"
    try:
        yield {"h": {key: data[key] for key in data if key not in _ITEM_LISTS}}
        section = "objects"
        for record in data["objects"]:
            state = dict(record)
            yield {"o": state.pop("oid"), "s": state}
        section = "relationships"
        for record in data["relationships"]:
            state = dict(record)
            yield {"r": state.pop("rid"), "s": state}
        section = "version_cells"
        for cell in data["version_cells"]:
            yield {"c": cell}
        section = "footer"
        yield {"end": {tag: len(data[key]) for tag, key in zip("orc", _ITEM_LISTS)}}
    except _DECODE_ERRORS as exc:
        raise _malformed(section, exc, "section") from exc


def database_from_dict(data: dict) -> SeedDatabase:
    """Rebuild a database (inverse of :func:`database_to_dict`): the
    dict replays as its record stream into :func:`database_from_records`."""
    return database_from_records(_image_dict_records(data))


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


#: the built-in errors a malformed record raises while it is decoded
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def _malformed(kind: str, exc: Exception, part: str = "record") -> StorageError:
    """The error for a *kind* record (or image section) that raised
    *exc* while decoding (chain it ``from exc``)."""
    return StorageError(
        f"malformed image {kind} {part}: {type(exc).__name__}: {exc}"
    )


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
        """``(id, state)`` for every record of the item section *kind*.

        The record stays under the cursor until the consumer asks for
        the next one, so an error raised decoding or wiring it is
        raised while it is the head."""
        for record in self.section(kind):
            state = state_from_dict(kind, record["s"])
            if kind == "o" and not isinstance(state.name, str):
                raise TypeError(f"object name {state.name!r}")
            yield record[kind], state


class _Header(NamedTuple):
    """An image header, decoded whole before any item record is read."""

    name: str
    schemas: list[Schema]
    tree: list[tuple[VersionId, Optional[VersionId]]]
    snapshots: list[VersionId]
    schema_version_of: dict[VersionId, int]
    current_base: Optional[VersionId]
    dirty: set[ItemKey]


def _decode_header(header: dict, registry: Optional[ProcedureRegistry]) -> _Header:
    """Decode a header record; a malformed one raises ``StorageError``."""
    try:
        if header.get("format") != FORMAT_VERSION:
            raise StorageError(
                f"unsupported database image format {header.get('format')!r}"
            )
        decoded = _Header(
            header["name"],
            [
                schema_from_dict(schema_data, registry)
                for schema_data in header["schema_versions"]
            ],
            [
                (
                    VersionId.parse(node["version"]),
                    VersionId.parse(node["parent"]) if node["parent"] else None,
                )
                for node in header["version_tree"]
            ],
            [
                VersionId.parse(version)
                for version in header.get("snapshot_versions", ())
            ],
            {
                VersionId.parse(version): index
                for version, index in header["schema_version_of"].items()
            },
            (
                VersionId.parse(header["current_base"])
                if header["current_base"]
                else None
            ),
            {tuple(key) for key in header["dirty"]},
        )
    except _DECODE_ERRORS as exc:
        raise _malformed("header", exc) from exc
    if not decoded.schemas:
        raise StorageError("malformed image header record: no schema version")
    return decoded


@long_lived()
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
    never load silently. A built-in error raised while a header, an
    item record (decoded or wired) or a version cell is decoded (a
    missing key, an ill-typed field, a dangling id) becomes a
    ``StorageError`` that names the record kind and chains the cause; a
    :class:`~repro.core.errors.SeedError` keeps its type, and an error
    of the pattern or index rebuild propagates unchanged. The decode
    runs under the collector rule (:func:`repro.core.bulk.long_lived`).
    """
    cursor = _ImageCursor(records)
    if not cursor.tagged("h"):
        raise StorageError("image stream does not start with a header record")
    header = _decode_header(cursor.head["h"], registry)
    db = SeedDatabase(header.schemas[-1], header.name)
    db.versions.schema_versions = header.schemas
    cursor.advance()
    try:
        load_item_states(db, cursor.states("o"), cursor.states("r"))
    except _DECODE_ERRORS as exc:
        # an item record under the cursor raised it; past the item
        # sections, it came from the pattern or index rebuild
        if cursor.tagged("o"):
            raise _malformed("object", exc) from exc
        if cursor.tagged("r"):
            raise _malformed("relationship", exc) from exc
        raise
    for version, parent in header.tree:
        db.versions.tree.add(version, parent)
    store = db.versions.store
    for record in cursor.section("c"):
        try:
            cell = record["c"]
            key = (cell["kind"], cell["id"])
            for entry in cell["states"]:
                version = VersionId.parse(entry["version"])
                store.record(version, key, state_from_dict(key[0], entry["state"]))
                if entry.get("materialized"):
                    store.mark_materialized(version, key)
        except _DECODE_ERRORS as exc:
            raise _malformed("version-cell", exc) from exc
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
    for version in header.snapshots:
        store.mark_snapshot(version)
    db.versions.schema_version_of = header.schema_version_of
    db.versions.current_base = header.current_base
    db._dirty = header.dirty  # noqa: SLF001
    return db

