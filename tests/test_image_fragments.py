"""A state is encoded once, when it is journaled; save points only join.

``JournaledDatabase.checkpoint()`` — monolithic or streamed — joins
cached per-item JSON fragments
(:class:`~repro.core.storage.serialize.ImageFragments`) instead of
building and dumping :func:`database_to_dict` or
:func:`iter_image_records`. A ``txn`` record fills the fragment of every
item it carries, a ``version`` record every cell it opens, from the
same bytes; every other write drops the fragment. The oracles are the
from-scratch encodes: over seeded random histories that run every
mutator — committed and rolled-back transactions, failing bulk batches,
check-ins applied through :class:`SeedServer`, version selection,
schema migration, version-store compaction with squashing, snapshots
and tombstone GC, patterns, reclassification — after every step each
cached fragment must equal its own from-scratch encode, the joined
payload must equal ``RecordFile.encode({"kind": "image", "image":
database_to_dict(db)})``, the streamed records must equal
``RecordFile.encode`` of each :func:`iter_image_records` record, and
every frame the journal wrote must hold canonical JSON. A save point
after the load and the baseline version, or after an edit, encodes no
item state: the records already did.

The same histories carry the rollback oracle: after every rolled-back
unit of work — a refused single update, a transaction abandoned,
poisoned or refused at commit, a failing bulk batch — the image, the
index layer, the name index, incidence, child lists and inherits links
equal what they were when the unit began, and every held handle is
still the same record.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager

import pytest

from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import RecoveryWarning, SeedError
from repro.core.faults import FaultPlan
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_to_dict,
    save_database,
)
from repro.core.storage import serialize
from repro.core.storage.recordfile import _frame
from repro.core.storage.serialize import (
    _cell_record,
    _object_record,
    _relationship_record,
    iter_image_records,
)
from repro.core.versions.compaction import RetentionPolicy
from repro.multiuser import SeedServer
from repro.spades.model import spades_schema
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import SpecShape, generate_spec


def full_image(db) -> bytes:
    """The from-scratch encode every cached payload must equal."""
    return RecordFile.encode({"kind": "image", "image": database_to_dict(db)})


def cached_image(journal) -> bytes:
    return journal._fragments.encode(journal.db)  # noqa: SLF001


def last_frame_payload(path) -> bytes:
    events = [e for e in RecordFile(path).scan() if e.kind == "record"]
    return bytes(events[-1]._payload)  # noqa: SLF001 - undecoded on purpose


def streamed_group(db, cp) -> bytes:
    """The frames of streamed checkpoint *cp*, from the oracle stream."""
    records = [
        {"kind": "image.begin", "cp": cp},
        *({"kind": "image.rec", "cp": cp, "rec": rec} for rec in iter_image_records(db)),
    ]
    records.append({"kind": "image.end", "cp": cp, "n": len(records) - 1})
    return b"".join(_frame(RecordFile.encode(record)) for record in records)


def written_base(journal) -> bytes:
    """The bytes of the journal's newest image unit, as written."""
    base = journal._base  # noqa: SLF001
    return journal.path.read_bytes()[base.offset:base.end]


def stale_fragments(journal) -> list:
    """Every cached fragment that differs from its from-scratch encode.

    Fragments of items or cells that left the database are not judged:
    the next join drops them.
    """
    fragments, db = journal._fragments, journal.db  # noqa: SLF001
    store = db.versions.store
    tables = [
        ("o", fragments._objects, db._objects, _object_record),  # noqa: SLF001
        ("r", fragments._relationships, db._relationships, _relationship_record),  # noqa: SLF001
    ]
    stale = [
        (kind, item_id)
        for kind, cache, items, record_of in tables
        for item_id, blob in cache.items()
        if item_id in items and blob != RecordFile.encode(record_of(items[item_id]))
    ]
    stale += [
        key
        for key, blob in fragments._cells.items()  # noqa: SLF001
        if key in store.keys() and blob != RecordFile.encode(_cell_record(store, key))
    ]
    return stale


class History:
    """Seeded random mutations of one journaled figure-3 database.

    Every step is one mutator (or one unit of work holding several);
    a step the database refuses is rolled back by it and still counts
    — rollbacks must leave the cached fragments right too.
    """

    def __init__(self, seed: int, tmp_path) -> None:
        self.rng = random.Random(seed)
        self.path = tmp_path / f"fragments-{seed}.seed"
        self.journal = JournaledDatabase.open(
            self.path, schema=figure3_schema(), name=f"h{seed}"
        )
        self.server = SeedServer(journal=self.journal)
        self.counter = 0
        self.judged: set[bytes] = set()  # frame payloads already checked

    @property
    def db(self) -> SeedDatabase:
        return self.journal.db

    def roots(self, *classes):
        return [
            obj
            for name in classes
            for obj in self.db.objects(name, include_specials=False)
            if obj.parent is None
        ]

    def name(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    # -- single mutators ---------------------------------------------------

    def create(self):
        kind = self.rng.choice(["Thing", "Data", "Action", "InputData", "OutputData"])
        return self.db.create_object(kind, self.name("Item"))

    def edit(self) -> None:
        rng, db = self.rng, self.db
        data = self.roots("Data", "InputData", "OutputData")
        actions = self.roots("Action")
        outputs = self.roots("OutputData")
        roll = rng.random()
        if roll < 0.14 or not data or not actions:
            obj = self.create()
            if obj.entity_class.name == "Action":
                obj.add_sub_object("Description", "new")
        elif roll < 0.20:
            text = rng.choice(data).add_sub_object("Text")
            text.add_sub_object("Body").add_sub_object("Contents", "body")
        elif roll < 0.27:
            target = rng.choice(actions)
            described = target.sub_objects("Description")
            if described:
                db.set_value(described[0], f"text {rng.random():.4f}")
            else:
                target.add_sub_object("Description", "first")
        elif roll < 0.35:
            db.relate("Access", {"data": rng.choice(data), "by": rng.choice(actions)})
        elif roll < 0.40 and outputs:
            db.relate(
                "Write",
                {"to": rng.choice(outputs), "by": rng.choice(actions)},
                attributes={"NumberOfWrites": rng.randrange(1, 9)},
            )
        elif roll < 0.44:
            writes = db.relationships("Write")
            if writes:
                db.set_attribute(rng.choice(writes), "ErrorHandling", "repeat")
        elif roll < 0.48:
            first, second = rng.sample(actions, 2) if len(actions) > 1 else (None, None)
            if first is not None:
                db.relate("Contained", contained=first, container=second)
        elif roll < 0.54:
            db.delete(rng.choice(data + actions + self.roots("Thing")))
        elif roll < 0.58:
            rels = db.relationships()
            if rels:
                db.delete(rng.choice(rels))
        elif roll < 0.66:
            things, plain = self.roots("Thing"), self.roots("Data")
            if things and rng.random() < 0.5:
                db.reclassify(rng.choice(things), rng.choice(["Data", "Action"]))
            elif plain:
                db.reclassify(rng.choice(plain), rng.choice(["InputData", "OutputData"]))
        elif roll < 0.72:
            vague = db.relationships("Access", include_specials=False)
            if vague:
                db.reclassify(rng.choice(vague), "Read")
        elif roll < 0.80:
            self.pattern_edit()
        else:
            db.rename(rng.choice(data + actions), self.name("Renamed"))

    def pattern_edit(self) -> None:
        rng, db = self.rng, self.db
        candidates = self.roots("Data", "InputData", "OutputData", "Action")
        if not candidates:
            return
        patterns = [
            o for o in db.objects(include_patterns=True)
            if o.is_pattern and o.parent is None
        ]
        if patterns and rng.random() < 0.4:
            pattern = rng.choice(patterns)
            inheritors = db.patterns.inheritors_of(pattern)
            if inheritors:
                db.uninherit(pattern, inheritors[0])
            else:
                db.unmark_pattern(pattern)
        elif patterns and rng.random() < 0.5:
            db.inherit(rng.choice(patterns), rng.choice(candidates))
        else:
            db.mark_pattern(rng.choice(candidates))

    # -- units of work and whole-database operations ---------------------------

    def transaction(self, edit=None) -> None:
        """Several edits committed as one unit, or rolled back."""
        rolled_back = self.rng.random() < 0.5
        try:
            with self.db.transaction():
                for __ in range(self.rng.randrange(1, 4)):
                    try:
                        (edit or self.edit)()
                    except SeedError:
                        pass
                if rolled_back:
                    raise RuntimeError("abandon the transaction")
        except RuntimeError:
            pass

    def pattern_transaction(self) -> None:
        """Pattern edits only, committed as one unit or rolled back."""
        self.transaction(self.pattern_edit)

    def cycle(self) -> None:
        """A commit the consistency check refuses (a containment cycle)."""
        first, second = self.create(), self.create()
        for obj in (first, second):
            if obj.entity_class.name != "Action":
                return
        self.db.relate("Contained", contained=first, container=second)
        self.db.relate("Contained", contained=second, container=first)

    def relink(self, candidates) -> None:
        """Inherit a pattern into one of *candidates* or drop one of
        their inherits links; with no pattern yet, mark one."""
        rng, db = self.rng, self.db
        live = [obj for obj in candidates if not obj.deleted]
        patterns = [
            obj for obj in db.all_objects_raw()
            if obj.is_pattern and obj.parent is None and not obj.deleted
        ]
        linked = [
            (db._objects[oid], obj)  # noqa: SLF001
            for obj in live
            for oid in obj.inherited_patterns
        ]
        if linked and rng.random() < 0.5:
            db.uninherit(*rng.choice(linked))
        elif patterns and live:
            db.inherit(rng.choice(patterns), rng.choice(live))
        elif live:
            db.mark_pattern(rng.choice(live))

    def bulk(self) -> None:
        """A bulk batch that commits, or fails half-way and rolls back.
        Besides creating, it may change the inherits links of objects
        that existed before it."""
        failing = self.rng.random() < 0.6
        existing = self.roots("Data", "InputData", "OutputData", "Action")
        try:
            with self.db.bulk():
                for __ in range(self.rng.randrange(1, 5)):
                    obj = self.create()
                    if self.rng.random() < 0.5 and obj.entity_class.name == "Action":
                        obj.add_sub_object("Description", "bulk")
                for __ in range(self.rng.randrange(0, 4)):
                    try:
                        self.relink(existing)
                    except SeedError:
                        pass
                victims = self.roots("Data")
                if victims:
                    self.db.delete(self.rng.choice(victims))
                if failing:
                    raise RuntimeError("the batch fails")
        except RuntimeError:
            pass

    def check_in(self) -> None:
        """A check-in applied by the server (its txn sink suspended)."""
        client = self.server.connect(self.name("client"))
        names = [str(o.name) for o in self.roots("Data", "Action")]
        local = client.check_out(*self.rng.sample(names, min(2, len(names))))
        obj = local.create_object("Data", self.name("Remote"))
        obj.add_sub_object("Text")
        for existing in local.objects("Action"):
            for described in existing.sub_objects("Description"):
                local.set_value(described, "edited remotely")
        client.check_in()
        self.server.disconnect(client.client_id)

    def version(self) -> None:
        if self.db.has_unsaved_changes():
            self.db.create_version()

    def select(self) -> None:
        versions = self.db.saved_versions()
        if versions:
            self.db.select_version(self.rng.choice(versions), discard_changes=True)

    def migrate(self) -> None:
        schema = self.db.schema.copy(self.name("v"))
        schema.entity_class("Data").add_dependent(self.name("Note"), "0..1")
        self.db.migrate_schema(schema)

    def compact_versions(self) -> None:
        self.db.compact(
            RetentionPolicy(
                squash_chains=True,
                snapshot_interval=self.rng.choice([0, 2, 3]),
                keep_last=1,
                gc_tombstones=self.rng.random() < 0.7,
            )
        )

    def drop_version(self) -> None:
        versions = [
            v for v in self.db.saved_versions()
            if not self.db.versions.tree.children(v)
            and v != self.db.versions.current_base
        ]
        if versions:
            self.db.delete_version(self.rng.choice(versions))

    def save_point(self) -> None:
        if self.rng.random() < 0.5:
            self.journal.checkpoint(streamed=True)
            cp = self.journal._base.cp  # noqa: SLF001
            assert written_base(self.journal) == streamed_group(self.db, cp)
        else:
            self.journal.checkpoint()
            assert last_frame_payload(self.path) == full_image(self.db)
        if self.rng.random() < 0.5:
            self.journal.compact()

    def unjudged_frames(self) -> list[bytes]:
        """Payloads of the journal's frames no earlier call returned."""
        payloads = [
            bytes(event._payload)  # noqa: SLF001 - undecoded on purpose
            for event in RecordFile(self.path).scan()
            if event.kind == "record"
        ]
        fresh = [payload for payload in payloads if payload not in self.judged]
        self.judged.update(fresh)
        return fresh

    def step(self) -> str:
        steps = [
            ("edit", 30), ("transaction", 10), ("pattern_transaction", 5),
            ("cycle", 2), ("bulk", 6),
            ("check_in", 5), ("version", 8), ("select", 3), ("migrate", 1),
            ("compact_versions", 3), ("drop_version", 2), ("save_point", 4),
        ]
        name = self.rng.choices(
            [n for n, __ in steps], weights=[w for __, w in steps]
        )[0]
        try:
            getattr(self, name)()
        except SeedError:
            pass
        return name


@pytest.mark.parametrize("seed", range(8))
def test_cached_payload_equals_the_full_encode_after_every_step(seed, tmp_path):
    history = History(seed, tmp_path)
    journal, db = history.journal, history.db
    for index in range(120):
        name = history.step()
        where = f"step {index} ({name})"
        # each fragment on its own, before the join below refills any
        assert stale_fragments(journal) == [], f"{where} left a stale fragment"
        assert cached_image(journal) == full_image(db), f"{where}: monolithic image"
        assert list(journal._fragments.records(db)) == [  # noqa: SLF001
            RecordFile.encode(record) for record in iter_image_records(db)
        ], f"{where}: streamed image records"
        for payload in history.unjudged_frames():
            assert payload == RecordFile.encode(json.loads(payload)), (
                f"{where} wrote a frame that is not canonical JSON"
            )
    history.save_point()
    reopened = JournaledDatabase.open(history.path)
    assert full_image(reopened.db) == full_image(history.db)


def unit_state(db) -> dict:
    """Everything a rolled-back unit of work must leave as it found it."""
    return {
        "image": full_image(db),
        "indexes": db.indexes.snapshot(),
        "names": dict(db._name_index),  # noqa: SLF001
        "incidence": {
            oid: list(rids) for oid, rids in db._incidence.items()  # noqa: SLF001
        },
        "children": {
            obj.oid: {
                role: [child.oid for child in children]
                for role, children in obj._children.items()  # noqa: SLF001
            }
            for obj in db.all_objects_raw()
        },
        # the order of a pattern's inheritors is not kept
        "inherits": {
            pattern: sorted(inheritors)
            for pattern, inheritors in db.patterns._inheritors.items()  # noqa: SLF001
        },
        "next_id": db._next_id,  # noqa: SLF001
        # SeedObject / SeedRelationship compare by identity
        "handles": (dict(db._objects), dict(db._relationships)),  # noqa: SLF001
    }


def check_every_rollback(monkeypatch, db) -> list:
    """Compare *db* after each rolled-back unit with its state when the
    unit began; returns the list of units checked so far."""
    began: dict[int, dict] = {}
    checked: list = []
    real_rollback = SeedDatabase._rollback  # noqa: SLF001

    def spying(real):
        @contextmanager
        def unit(database, *args):
            outermost = (
                database is db
                and database._txn is None  # noqa: SLF001
                and database._bulk is None  # noqa: SLF001
            )
            if not outermost:  # an update joining an open unit
                with real(database, *args) as txn:
                    yield txn
                return
            state = unit_state(database)
            txn = None
            try:
                with real(database, *args) as txn:
                    began[id(txn)] = state
                    yield txn
            finally:
                began.pop(id(txn), None)

        return unit

    def rollback(database, txn) -> None:
        real_rollback(database, txn)
        expected = began.pop(id(txn), None)
        if expected is not None:
            assert unit_state(database) == expected
            database.indexes.verify()
            checked.append(txn)

    monkeypatch.setattr(SeedDatabase, "_operation", spying(SeedDatabase._operation))  # noqa: SLF001
    monkeypatch.setattr(SeedDatabase, "bulk", spying(SeedDatabase.bulk))
    monkeypatch.setattr(SeedDatabase, "_rollback", rollback)
    return checked


@pytest.mark.parametrize("seed", range(8))
def test_a_rolled_back_unit_leaves_no_trace(seed, tmp_path, monkeypatch):
    history = History(seed, tmp_path)
    checked = check_every_rollback(monkeypatch, history.db)
    for __ in range(120):
        history.step()
    assert len(checked) >= 3, "the history rolled back too few units"


def test_the_checkpoint_frame_is_the_full_encode(tmp_path):
    history = History(99, tmp_path)
    for __ in range(40):
        history.step()
    journal = history.journal
    journal.checkpoint()
    assert last_frame_payload(history.path) == full_image(history.db)
    journal.db.create_object("Data", "AfterTheCheckpoint")
    journal.checkpoint()
    assert last_frame_payload(history.path) == full_image(history.db)


def test_every_monolithic_image_writer_writes_the_full_encode(tmp_path):
    """``save_database`` (fresh fragments) and ``compact()``'s
    no-intact-image fallback (the journal's warm ones) write the oracle
    frame byte for byte."""
    history = History(5, tmp_path)
    db = history.db
    for __ in range(300):
        history.step()
        tombstones = [
            item
            for item in (*db.all_objects_raw(), *db.all_relationships_raw())
            if item.deleted
        ]
        if db.saved_versions() and tombstones:
            break
    assert db.saved_versions() and tombstones, "the history is too tame"
    oracle = _frame(full_image(db))
    saved = tmp_path / "saved.seed"
    save_database(db, saved)
    assert saved.read_bytes() == oracle
    history.path.write_bytes(b"no image here")
    with pytest.warns(RecoveryWarning, match="no intact image"):
        history.journal.compact()
    assert history.path.read_bytes() == oracle


def test_the_checkpoint_frame_goes_through_the_one_writer(tmp_path):
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    journal.db.create_object("Data", "D")
    with FaultPlan() as plan:
        journal.checkpoint()
    assert plan.hits == {
        "recordfile.append.pre_write": 1,
        "recordfile.append.pre_fsync": 1,
    }


class EncodeSpy:
    """Every state the kernel encodes (``states``: ``(kind, state)``)
    and every value ``RecordFile.encode`` is handed (``values``)."""

    def __init__(self) -> None:
        self.states: list = []
        self.values: list = []

    def clear(self) -> None:
        self.states.clear()
        self.values.clear()


@pytest.fixture
def encode_spy(monkeypatch):
    seen = EncodeSpy()
    real_state, real_encode = serialize._encode_state, RecordFile.encode  # noqa: SLF001

    def state_spy(kind, state):
        seen.states.append((kind, state))
        return real_state(kind, state)

    def encode_spy(value):
        seen.values.append(value)
        return real_encode(value)

    monkeypatch.setattr(serialize, "_encode_state", state_spy)
    monkeypatch.setattr(RecordFile, "encode", staticmethod(encode_spy))
    return seen


def _item_records(values):
    """The item states and item or cell records among encoded values."""
    return [
        value for value in values
        if isinstance(value, dict)
        and value.keys() & {"oid", "rid", "states", "class", "association"}
    ]


def _encodes_no_state(spy) -> None:
    assert spy.values, "the spy saw nothing: the header bypassed RecordFile.encode"
    assert spy.states == []
    assert _item_records(spy.values) == []


def test_an_unchanged_database_encodes_only_the_header(tmp_path, encode_spy):
    history = History(5, tmp_path)
    for __ in range(60):
        history.step()
    journal = history.journal
    journal.checkpoint()
    encode_spy.clear()
    journal.checkpoint()
    _encodes_no_state(encode_spy)
    encode_spy.clear()
    journal.checkpoint(streamed=True)
    _encodes_no_state(encode_spy)
    assert written_base(journal) == streamed_group(history.db, journal._base.cp)  # noqa: SLF001


def test_one_edit_re_encodes_one_fragment(tmp_path, encode_spy):
    """One edit encodes its state once, in its ``txn`` record; the next
    save point encodes no state at all."""
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    for index in range(20):
        db.create_object("Data", f"D{index}")
    db.create_version()
    journal.checkpoint()
    encode_spy.clear()
    db.rename(db.get_object("D7"), "Renamed")
    assert [(kind, state.name) for kind, state in encode_spy.states] == [
        ("o", "Renamed")
    ]
    encode_spy.clear()
    journal.checkpoint()
    _encodes_no_state(encode_spy)
    assert last_frame_payload(journal.path) == full_image(db)


def test_a_loaded_and_versioned_database_saves_without_encoding_a_state(
    tmp_path, encode_spy
):
    """The bulk load's ``txn`` record and the baseline ``version`` record
    encode every item and every cell: the first save point after them,
    monolithic or streamed, only joins."""
    journal = JournaledDatabase.open(
        tmp_path / "spec.seed", schema=spades_schema(), name="spec"
    )
    db = journal.db
    load_into_spades(
        generate_spec(SpecShape(actions=30, data=15, flows=45), seed=4),
        SpadesTool(db=db),
    )
    db.create_version()
    encode_spy.clear()
    journal.checkpoint()
    _encodes_no_state(encode_spy)
    assert last_frame_payload(journal.path) == full_image(db)
    encode_spy.clear()
    journal.checkpoint(streamed=True)
    _encodes_no_state(encode_spy)
    assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001


def test_the_streamed_checkpoint_frames_are_the_oracle_group(tmp_path):
    history = History(17, tmp_path)
    for __ in range(40):
        history.step()
    journal, db = history.journal, history.db
    journal.checkpoint(streamed=True)
    assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001
    db.create_object("Data", "AfterTheCheckpoint")
    journal.checkpoint(streamed=True)
    assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001
    reopened = JournaledDatabase.open(history.path)
    assert reopened.recovery.base.cp == journal._base.cp  # noqa: SLF001
    assert full_image(reopened.db) == full_image(db)


def test_fragments_of_collected_items_are_dropped(tmp_path):
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    for index in range(6):
        db.create_object("Data", f"D{index}")
    db.create_version()
    for index in range(3):
        db.delete(db.get_object(f"D{index}"))
    db.create_version()
    journal.checkpoint()
    fragments = journal._fragments  # noqa: SLF001
    assert len(fragments._objects) == 6  # noqa: SLF001
    stats = db.compact(RetentionPolicy(keep_last=0, gc_tombstones=True))
    assert stats.collected_objects == 3
    journal.checkpoint()
    assert len(fragments._objects) == 3  # noqa: SLF001
    assert len(fragments._cells) == db.versions.store.cell_count()  # noqa: SLF001
    assert last_frame_payload(journal.path) == full_image(db)


def test_sinks_are_unarmed_unless_a_journal_is_bound(tmp_path):
    db = SeedDatabase(figure3_schema())
    assert db._state_sink is None  # noqa: SLF001
    assert db.versions.store._cell_sink is None  # noqa: SLF001
    journal = JournaledDatabase(db, RecordFile(tmp_path / "j.seed"))
    assert db._state_sink is not None  # noqa: SLF001
    assert db.versions.store._cell_sink is not None  # noqa: SLF001
    journal.checkpoint()
    assert last_frame_payload(journal.path) == full_image(db)
