"""What a bulk batch keeps while it grows the heap.

A batch logs every item it touches (``_Transaction.touched``) and every
dirty key it must withdraw on rollback (``dirty_added``). At the scale
of a released specification these logs are most of what the load
allocates, so their shape is pinned here: one shared ``frozenset`` per
combination of operation tags, one key tuple per item shared by the
log and the dirty set, no log entry for an item the batch created, and
an immutable ``()`` for an object that inherits nothing.

The batch also runs under the collector rule of :mod:`repro.core.bulk`,
and so does every other lane that builds a whole database: image load,
journal open with replay, the image decoder and the completeness prime.
On each, the collector comes out as it went in with nothing frozen,
what a successful lane built sits in the oldest generation once the
lane is large enough to promote (these cases lower the bar to 0), and
what a failed one built stays young. Version checkout, a small lane and
a host that froze objects itself are left unpromoted.
"""

from __future__ import annotations

import gc
import sysconfig

import pytest

from repro.core import SeedDatabase, bulk
from repro.core.errors import (
    ConsistencyError,
    SeedError,
    StorageError,
    TransactionError,
)
from repro.core.storage import (
    JournaledDatabase,
    database_from_records,
    iter_image_records,
    load_database,
    save_database,
    serialize,
)
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
# the collector pause: the rule on every lane that builds the database
# ---------------------------------------------------------------------------

GENERATIONAL = not sysconfig.get_config_var("Py_GIL_DISABLED")


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """Enter each case with the collector on, then off; restore after.

    Every lane is large enough to promote. A full collection first
    empties the young generations, so no collection of the middle one
    can age a record between a lane's exit and the check. (Restored by
    hand: a case may monkeypatch ``gc.enable`` itself.)"""
    was, promote_at = gc.isenabled(), bulk.PROMOTE_AT
    bulk.PROMOTE_AT = 0
    gc.collect()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
    bulk.PROMOTE_AT = promote_at


def assert_rule_kept(collecting: bool, record: object, *, aged: bool) -> None:
    """The collector is as the lane found it and nothing is frozen;
    *record* sits in the oldest generation exactly when the lane
    succeeded (*aged*) with the collector on."""
    assert gc.isenabled() is collecting
    assert gc.get_freeze_count() == 0
    if GENERATIONAL:  # the free-threaded collector has no generations
        oldest = gc.get_objects(generation=2)
        assert any(tracked is record for tracked in oldest) is (aged and collecting)


def cycle_batch(db: SeedDatabase, built: list) -> None:
    """A batch whose containment cycle fails validation at finalize."""
    with db.bulk():
        first = db.create_object("Action", "First")
        built.append(first)
        second = db.create_object("Action", "Second")
        db.relate("Contained", contained=first, container=second)
        db.relate("Contained", contained=second, container=first)


def poisoned_batch(db: SeedDatabase, built: list) -> None:
    """A batch holding an update that raised after changing state."""
    data = db.create_object("Data", "D")
    with db.bulk():
        built.append(db.create_object("Action", "A"))
        try:
            db.relate(
                "Access", {"data": data, "by": built[0]},
                attributes={"nope": 1},
            )
        except SeedError:
            pass


def raising_batch(db: SeedDatabase, built: list) -> None:
    with db.bulk():
        built.append(db.create_object("Data", "Gone"))
        raise RuntimeError("the body fails")


def committed_batch(db: SeedDatabase, built: list) -> None:
    with db.bulk():
        assert not gc.isenabled()
        built.append(db.create_object("Data", "Kept"))


EXITS = {
    "commit": (committed_batch, None),
    "exception in the body": (raising_batch, RuntimeError),
    "validation failure": (cycle_batch, ConsistencyError),
    "poisoned batch": (poisoned_batch, TransactionError),
}


@pytest.mark.parametrize("exit_by", sorted(EXITS))
def test_every_exit_restores_the_collector(fig3_db, collecting, exit_by):
    batch, error = EXITS[exit_by]
    built: list = []
    if error is None:
        batch(fig3_db, built)
        assert fig3_db.find_object("Kept") is built[0]
    else:
        with pytest.raises(error):
            batch(fig3_db, built)
    assert_rule_kept(collecting, built[0], aged=error is None)


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


@pytest.fixture
def saved(tmp_path, fig1_db):
    path = tmp_path / "fig1.seed"
    save_database(fig1_db, path)
    return path


def test_load_database_ages_what_it_loaded(saved, collecting):
    db = load_database(saved)
    assert_rule_kept(collecting, db.get_object("Alarms"), aged=True)


@pytest.fixture
def freezes(monkeypatch) -> list:
    """Every ``gc.freeze()`` call, counted and passed through."""
    calls: list = []
    freeze = gc.freeze
    monkeypatch.setattr(gc, "freeze", lambda: (calls.append(1), freeze())[1])
    return calls


def test_open_with_replayed_deltas_promotes_once(
    tmp_path, fig2_schema, collecting, freezes
):
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=fig2_schema)
    journal.db.create_object("Data", "Alarms")  # a txn delta past the base
    freezes.clear()
    reopened = JournaledDatabase.open(journal.path)
    assert reopened.recovery.applied_txn_deltas == 1
    reopened.db.indexes.verify()
    # the image decoder nests inside the journal loader: one promotion
    assert len(freezes) == (1 if collecting and GENERATIONAL else 0)
    assert_rule_kept(collecting, reopened.db.get_object("Alarms"), aged=True)


def test_the_image_decoder_ages_what_it_loaded(fig1_db, collecting, freezes):
    records = list(iter_image_records(fig1_db))
    db = database_from_records(records)
    assert len(freezes) == (1 if collecting and GENERATIONAL else 0)
    assert_rule_kept(collecting, db.get_object("Alarms"), aged=True)


def test_a_malformed_image_leaves_its_records_young(
    fig1_db, collecting, monkeypatch
):
    records = list(iter_image_records(fig1_db))
    records[-1] = {"end": {"o": 0, "r": 0, "c": 0}}
    built = []
    load = serialize.load_item_states

    def spy(db, *states, **options):
        built.append(db)
        load(db, *states, **options)

    monkeypatch.setattr(serialize, "load_item_states", spy)
    with pytest.raises(StorageError, match="footer declares"):
        database_from_records(records)
    assert_rule_kept(collecting, built[0].get_object("Alarms"), aged=False)


def test_version_checkout_stays_off_the_rule(fig1_db, collecting, freezes):
    fig1_db.create_version("1.0")
    fig1_db.create_object("Data", "Later")
    fig1_db.select_version("1.0", discard_changes=True)
    assert fig1_db.find_object("Later") is None
    assert freezes == []
    assert_rule_kept(collecting, fig1_db.get_object("Alarms"), aged=False)


def test_the_first_completeness_check_ages_its_gap_map(fig1_db, collecting):
    assert fig1_db.check_completeness().gaps
    gaps = next(iter(fig1_db.completeness._gaps_by_item.values()))  # noqa: SLF001
    assert_rule_kept(collecting, gaps, aged=True)


def grow(db: SeedDatabase, count: int, prefix: str = "D") -> list:
    """A committed batch that creates *count* objects; returns them."""
    with db.bulk():
        return [
            db.create_object("Data", f"{prefix}{index}") for index in range(count)
        ]


@pytest.fixture
def on():
    """Run a case with the collector on, the young generations empty."""
    was = gc.isenabled()
    gc.collect()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.skipif(not GENERATIONAL, reason="no generations to promote into")
def test_a_lane_promotes_only_when_it_grew_the_heap_enough(
    fig3_db, on, freezes, monkeypatch
):
    monkeypatch.setattr(bulk, "PROMOTE_AT", 2_000)
    small = grow(fig3_db, 10)
    assert freezes == []
    assert_rule_kept(True, small[0], aged=False)
    large = grow(fig3_db, 2_000, "L")  # a record and its key tuple each
    assert len(freezes) == 1
    assert_rule_kept(True, large[0], aged=True)


@pytest.mark.skipif(not GENERATIONAL, reason="no generations to promote into")
def test_a_host_freeze_is_kept(fig3_db, on, freezes, monkeypatch):
    monkeypatch.setattr(bulk, "PROMOTE_AT", 0)
    kept = [object()]
    gc.freeze()
    freezes.clear()
    try:
        built = grow(fig3_db, 10)
        assert freezes == []
        assert gc.isenabled()
        # still in the permanent generation, which no generation lists
        assert gc.get_freeze_count() > 0
        assert not any(tracked is kept for tracked in gc.get_objects())
    finally:
        gc.unfreeze()
    assert_rule_kept(True, built[0], aged=False)


def test_the_free_threaded_build_only_pauses(fig3_db, on, freezes, monkeypatch):
    monkeypatch.setattr(bulk, "PROMOTE_AT", 0)
    monkeypatch.setattr(bulk, "_GENERATIONAL", False)
    with fig3_db.bulk():
        assert not gc.isenabled()
        fig3_db.create_object("Data", "Kept")
    assert freezes == []
    assert gc.isenabled()
