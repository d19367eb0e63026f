"""What a bulk batch keeps while it grows the heap.

A batch logs every item it touches (``_Transaction.touched``) and every
dirty key it must withdraw on rollback (``dirty_added``). At the scale
of a released specification these logs are most of what the load
allocates, so their shape is pinned here: one shared ``frozenset`` per
combination of operation tags, one key tuple per item shared by the
log and the dirty set, no log entry for an item the batch created, and
an immutable ``()`` for an object that inherits nothing. The batch also
pauses the cyclic collector; the collector's state must come out of
every exit of ``bulk()`` as it went in.
"""

from __future__ import annotations

import gc
import sysconfig

import pytest

from repro.core import SeedDatabase
from repro.core.errors import ConsistencyError, SeedError, TransactionError
from repro.spades import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import SpecShape, generate_spec

SHAPE = SpecShape(actions=2000, data=400, flows=800)


def tracked_objects() -> int:
    """Objects the collector tracks once it has run: a tuple of atoms
    the next collection would untrack does not count."""
    gc.collect()
    return len(gc.get_objects())


class Load:
    """One 2 000-action SPADES load, observed as its batch finalizes."""

    def __init__(self) -> None:
        spec = generate_spec(SHAPE, seed=11)
        self.tool = SpadesTool(name="log")
        self.db = self.tool.db
        baseline = tracked_objects()
        real = SeedDatabase._finalize_bulk  # noqa: SLF001

        def finalize(db, txn) -> None:
            self.txn = txn
            self.per_item = (tracked_objects() - baseline) / len(txn.touched)
            real(db, txn)

        SeedDatabase._finalize_bulk = finalize  # noqa: SLF001
        try:
            load_into_spades(spec, self.tool)
        finally:
            SeedDatabase._finalize_bulk = real  # noqa: SLF001


@pytest.fixture(scope="module")
def load() -> Load:
    return Load()


def test_tag_sets_are_a_few_shared_frozensets(load):
    tags = [operations for __, operations in load.txn.touched.values()]
    assert {type(operations) for operations in tags} == {frozenset}
    assert len({id(operations) for operations in tags}) <= 8
    assert {"create"} in tags


def test_the_dirty_set_holds_the_logs_key_objects(load):
    touched = {key: key for key in load.txn.touched}
    dirty = load.db._dirty  # noqa: SLF001 - empty before the load
    assert dirty and dirty <= touched.keys()
    assert all(touched[key] is key for key in dirty)


def test_a_created_key_is_not_logged_for_rollback(load):
    created = {
        key for key, (__, operations) in load.txn.touched.items()
        if "create" in operations
    }
    assert len(created) == len(load.txn.touched)
    assert load.txn.dirty_added.isdisjoint(created)


def test_an_object_that_inherits_nothing_holds_the_empty_tuple(load):
    objects = list(load.db.all_objects_raw())
    assert objects
    assert all(obj.inherited_patterns == () for obj in objects)
    assert {type(obj.inherited_patterns) for obj in objects} == {tuple}


@pytest.mark.skipif(
    bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
    reason="the free-threaded collector tracks objects differently",
)
def test_a_touched_item_costs_at_most_four_tracked_objects(load):
    # the record, its log entry, and the child lists, bindings and
    # incidence lists it owns; a tag set or an empty inherits list
    # per item would each add one
    assert load.per_item <= 4.0


def test_freeze_and_thaw_share_the_inherits_tuple(spades_db):
    template = spades_db.create_object("Action", "Template", pattern=True)
    other = spades_db.create_object("Action", "Other", pattern=True)
    action = spades_db.create_object("Action", "Act")
    action.add_sub_object("Description", "acts")
    spades_db.inherit(template, action)
    spades_db.inherit(other, action)
    inherited = action.inherited_patterns
    assert inherited == (template.oid, other.oid)
    state = action.freeze()
    assert state.inherited_pattern_oids is inherited
    spades_db.uninherit(template, action)
    assert action.inherited_patterns == (other.oid,)
    assert inherited == (template.oid, other.oid), "the frozen state kept"
    action.thaw(state)
    assert action.inherited_patterns is state.inherited_pattern_oids


# ---------------------------------------------------------------------------
# the collector pause
# ---------------------------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """Enter each case with the collector on, then off; restore after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def cycle_batch(db: SeedDatabase) -> None:
    """A batch whose containment cycle fails validation at finalize."""
    with db.bulk():
        first = db.create_object("Action", "First")
        second = db.create_object("Action", "Second")
        db.relate("Contained", contained=first, container=second)
        db.relate("Contained", contained=second, container=first)


def poisoned_batch(db: SeedDatabase) -> None:
    """A batch holding an update that raised after changing state."""
    data = db.create_object("Data", "D")
    with db.bulk():
        try:
            db.relate(
                "Access", {"data": data, "by": db.create_object("Action", "A")},
                attributes={"nope": 1},
            )
        except SeedError:
            pass


def raising_batch(db: SeedDatabase) -> None:
    with db.bulk():
        db.create_object("Data", "Gone")
        raise RuntimeError("the body fails")


EXITS = {
    "commit": (None, None),
    "exception in the body": (raising_batch, RuntimeError),
    "validation failure": (cycle_batch, ConsistencyError),
    "poisoned batch": (poisoned_batch, TransactionError),
}


@pytest.mark.parametrize("exit_by", sorted(EXITS))
def test_every_exit_restores_the_collector(fig3_db, collecting, exit_by):
    batch, error = EXITS[exit_by]
    if batch is None:
        with fig3_db.bulk():
            assert not gc.isenabled()
            fig3_db.create_object("Data", "Kept")
        assert fig3_db.find_object("Kept") is not None
    else:
        with pytest.raises(error):
            batch(fig3_db)
    assert gc.isenabled() is collecting


def test_a_refused_batch_leaves_the_collector_alone(
    fig3_db, collecting, monkeypatch
):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
    with pytest.raises(TransactionError, match="inside a transaction"):
        with fig3_db.transaction():
            with fig3_db.bulk():
                pass  # pragma: no cover
    assert calls == []
    with fig3_db.bulk():
        calls.clear()
        with pytest.raises(TransactionError, match="nested"):
            with fig3_db.bulk():
                pass  # pragma: no cover
        assert calls == []
    assert calls == (["enable"] if collecting else [])
    assert gc.isenabled() is collecting
