"""The deferred-maintenance bulk write path and the from-state lanes.

PRs 1–3 made reads and single-mutation commits sublinear, but every
*bulk* write path (image load, version checkout, schema migration,
workload population) still paid per-item overhead: incremental ACYCLIC
reachability probes, per-item index maintenance and completeness dirty
fan-out. :meth:`repro.core.database.SeedDatabase.bulk` trades that
per-item work for one-shot batch work — the classic deferred-
maintenance/bulk-load trade the paper's seed-database design leaves on
the table. For the duration of a batch it

* suspends :class:`~repro.core.indexes.IndexLayer` maintenance (one
  rebuild at the end instead of per-item updates) — including the PR-5
  planner statistics (value histograms and distinct-participant
  counters), whose settling at finalize is what lets the drift-aware
  plan cache notice the batch's cardinality shift on the next lookup;
* defers consistency validation to batch finalize, where each touched
  item is validated **once** and every touched ACYCLIC family gets
  **one** full DFS instead of one reachability probe per inserted edge;
* defers :meth:`~repro.core.completeness.CompletenessEngine.
  note_commit` to a single set-union dirty merge over the whole batch's
  touched map.

**Failure atomicity** is that of every unit of work (see "Units of work
and rollback" in :mod:`repro.core.database`): the batch logs the
before-image of each pre-existing item it changes — nothing on entry,
nothing for the items it creates — and any exception escaping the
batch body, a swallowed error of an update that had changed state, or
a validation failure at finalize rolls the **whole batch** back in
place from that log: surviving item handles remain valid. The rollback
first resumes index maintenance (one rebuild if the layer is stale),
then repairs the index entries of the logged items only.

**Mid-batch reads** see every batch mutation applied so far
(read-your-writes): name lookups and raw scans are served from the live
records; index-backed queries transparently rebuild the suspended index
layer (one rebuild per write-then-read boundary); ``check_completeness``
derives every item afresh on the compiled rules.

:func:`wire_item_states`
    the one create-or-thaw-and-wire primitive, and the only function
    that builds a record *from a frozen state*: it finds or creates the
    record, hands the state to ``thaw`` (the single inverse of
    ``freeze`` on :class:`SeedObject` / :class:`SeedRelationship`), and
    wires what ``thaw`` newly pointed the record at — parent child
    list, independent-name index, incidence, ``_next_id`` floor,
    pattern index. States are consumed strictly sequentially, objects
    before relationships, so lazy iterators (sections of one streamed
    image-record cursor) cost O(1) extra memory. Each caller adds only
    its policy:

    * :func:`load_item_states` — **wholesale replace** (registries
      emptied first, one index rebuild after): the one restore
      (``SeedDatabase._restore``: ``select_version`` and the replay
      of ``restore`` deltas), the
      image decoder (``database_from_records``, which
      ``database_from_dict`` feeds), multi-user check-out;
    * ``serialize.apply_txn_delta`` — **upsert** of a journaled
      transaction's after-states (indexes marked stale).

    These two from-state lanes are the only code that creates items
    without going through the create mutators, and ``apply_txn_delta``
    is the only caller of ``IndexLayer.mark_stale``.
    ``SeedDatabase.bulk_load(objects, relationships)`` is not one of
    them: it walks its specs through ``create_object`` /
    ``create_sub_object`` / ``relate`` inside one batch.

:func:`long_lived`
    the collector rule, for the lanes that build a whole database
    (``bulk()``, the journal loader, the image decoder, the
    completeness prime): pause the collector while the heap only grows
    (a collection would walk it all and free nothing), then, once a
    lane grew it by :data:`PROMOTE_AT`, move everything into the oldest
    generation in O(1) instead of walking it once per generation. A
    smaller lane only pauses: a promotion keeps tuples of atoms tracked
    and ages the host's young garbage. Off the rule: a live restore
    (it drops a whole database; unmeasured),
    ``materialize_ticket`` and a lone ``apply_txn_delta`` (small,
    short-lived copies, once per service cycle).
"""

from __future__ import annotations

import gc
import sysconfig
from contextlib import contextmanager
from typing import Iterable, Iterator, TYPE_CHECKING

from repro.core.objects import ObjectState, SeedObject
from repro.core.relationships import RelationshipState, SeedRelationship

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase

__all__ = ["load_item_states", "long_lived", "wire_item_states"]


#: the young-generation growth, in tracked objects, at which a lane's
#: promotion saved more collector time than it cost (≈ 12 500 actions)
PROMOTE_AT = 250_000
#: the free-threaded collector has no generations to promote into
_GENERATIONAL = not sysconfig.get_config_var("Py_GIL_DISABLED")


@contextmanager
def long_lived() -> Iterator[None]:
    """Run a lane under the collector rule: pause the collector if it
    is on; on success promote (``gc.freeze()`` then ``gc.unfreeze()``:
    two list splices) if the lane grew the young generation by
    :data:`PROMOTE_AT` and the host froze nothing itself; on an
    exception only resume, so a failed lane's records stay young.
    Entered with the collector off it does nothing: nested lanes
    promote once."""
    if not gc.isenabled():
        yield
        return
    young = gc.get_count()[0]
    gc.disable()
    try:
        yield
        if (
            _GENERATIONAL
            and not gc.get_freeze_count()
            and gc.get_count()[0] - young >= PROMOTE_AT
        ):
            gc.freeze()
            gc.unfreeze()
    finally:
        gc.enable()


def wire_item_states(
    db: "SeedDatabase",
    object_states: Iterable[tuple[int, ObjectState]],
    relationship_states: Iterable[tuple[int, RelationshipState]],
) -> None:
    """Create-or-thaw every state's record and wire it into *db*.

    Objects must list parents before their children (creation order).
    A record is wired by what ``thaw`` changed: an object joins its
    parent's child list when its parent pointer is new (a fresh or
    detached record), a live independent owns its name-index entry,
    and a relationship joins the incidence list of every endpoint it
    was not bound to before (tombstones included). Every key written is
    reported to the database's ``_state_sink`` when one is bound.
    """
    objects = db._objects  # noqa: SLF001
    name_index = db._name_index  # noqa: SLF001
    schema = db.schema
    next_id = db._next_id  # noqa: SLF001
    sink = db._state_sink  # noqa: SLF001
    db._writes += 1  # noqa: SLF001
    for oid, state in object_states:
        if sink is not None:
            sink(("o", oid))
        obj = objects.get(oid)
        if obj is None:
            obj = objects[oid] = SeedObject(
                db, oid, schema.entity_class(state.class_name), state.name
            )
            next_id = max(next_id, oid + 1)
        elif name_index.get(obj.simple_name) == oid:
            del name_index[obj.simple_name]  # thaw may rename or tombstone
        attached_to = obj.parent
        obj.thaw(state)
        if obj.parent is None:
            # pattern independents are indexed too: find_object filters
            # them out unless include_patterns is passed
            if not obj.deleted:
                name_index[state.name] = oid
        elif obj.parent is not attached_to:
            obj.parent._attach_child(obj)  # noqa: SLF001
    relationships = db._relationships  # noqa: SLF001
    incidence = db._incidence  # noqa: SLF001
    for rid, state in relationship_states:
        if sink is not None:
            sink(("r", rid))
        rel = relationships.get(rid)
        if rel is None:
            rel = relationships[rid] = SeedRelationship(
                db,
                rid,
                schema.association(state.association_name),
                {role: objects[oid] for role, oid in state.bindings},
            )
            wired: tuple[SeedObject, ...] = ()
            next_id = max(next_id, rid + 1)
        else:
            wired = tuple(rel._bindings.values())  # noqa: SLF001
        rel.thaw(state)
        for endpoint in rel._bindings.values():  # noqa: SLF001
            if endpoint not in wired:
                incidence.setdefault(endpoint.oid, []).append(rid)
    db._next_id = next_id  # noqa: SLF001
    db.patterns.rebuild_index()


def load_item_states(
    db: "SeedDatabase",
    object_states: Iterable[tuple[int, ObjectState]],
    relationship_states: Iterable[tuple[int, RelationshipState]],
    *,
    next_id_floor: int = 0,
) -> None:
    """Replace *db*'s item records wholesale from frozen states.

    Empties the registries, restarts ids at *next_id_floor*, wires the
    states, and rebuilds the index layer once. Each item dropped is
    reported to a bound ``_state_sink``, as each item wired is. Dirty
    tracking and completeness invalidation stay with the caller.
    """
    sink = db._state_sink  # noqa: SLF001
    if sink is not None:
        for oid in db._objects:  # noqa: SLF001
            sink(("o", oid))
        for rid in db._relationships:  # noqa: SLF001
            sink(("r", rid))
    db._objects.clear()  # noqa: SLF001
    db._relationships.clear()  # noqa: SLF001
    db._name_index.clear()  # noqa: SLF001
    db._incidence.clear()  # noqa: SLF001
    db._next_id = max(next_id_floor, 1)  # noqa: SLF001
    wire_item_states(db, object_states, relationship_states)
    db.indexes.rebuild()
