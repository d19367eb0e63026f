"""A state is encoded once, when it is journaled; save points only join.

``JournaledDatabase.checkpoint()`` — monolithic or streamed — joins
cached per-item JSON fragments
(:class:`~repro.core.storage.serialize.ImageFragments`) instead of
building and dumping :func:`database_to_dict` or
:func:`iter_image_records`. A ``txn`` record fills the fragment of every
item it carries, a ``version`` record every cell it opens, from the
same bytes, and it splices its entry onto every cell it grows at the
end; every other write drops the fragment. The oracles are the
from-scratch encodes: over seeded random histories that run every
mutator — committed and rolled-back transactions, failing bulk batches,
check-ins applied through :class:`SeedServer`, version selection,
a raw restore of a version's view, schema migration, version deletion,
version-store compaction with squashing, snapshots and tombstone GC,
patterns, reclassification — after every step each
cached fragment must equal its own from-scratch encode, the joined
payload must equal ``RecordFile.encode({"kind": "image", "image":
database_to_dict(db)})``, the streamed records must equal
``RecordFile.encode`` of each :func:`iter_image_records` record, and
every frame the journal wrote must hold canonical JSON, and a reopen
of the journal must load the live database's image. A save point
after the load and the baseline version, or after an edit, encodes no
item state: the records already did.

A commit and the version that follows it freeze and encode each item
once: ``create_version`` records the states the ``txn`` record froze
and writes the bytes it encoded. After every ``create_version`` of the
histories, and after each kind of write that must make that reuse
decline, every state recorded at the new version equals a fresh
``freeze()`` of its item, and the ``version`` frame equals the record
:func:`version_delta_from_db` builds without fragments.

The same histories carry the rollback oracle: after every rolled-back
unit of work — a refused single update, a transaction abandoned,
poisoned or refused at commit, a failing bulk batch — the image, the
index layer, the name index, incidence, child lists and inherits links
equal what they were when the unit began, and every held handle is
still the same record.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import RecoveryWarning, SeedError
from repro.core.faults import FaultPlan
from repro.core.objects import SeedObject
from repro.core.relationships import SeedRelationship
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_to_dict,
    load_database,
    save_database,
)
from repro.core.storage import serialize
from repro.core.storage.engine import _delta_record
from repro.core.storage.recordfile import _frame
from repro.core.storage.serialize import (
    ImageFragments,
    _cell_record,
    _object_record,
    _relationship_record,
    iter_image_records,
    version_delta_from_db,
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
    the next join drops them. A cell fragment holds no version label,
    so each kept one is judged as the next join writes it (a join on a
    copy: the real one would also fill the missing fragments).
    """
    fragments, db = journal._fragments, journal.db  # noqa: SLF001
    store = db.versions.store
    joined = copy.deepcopy(fragments)
    joined._lists(db)  # noqa: SLF001
    # each cell fragment opens with what closes the cell before it
    joined = {key: b"".join(joined._cells[key])[4:] + b"}]}" for key in store.keys()}  # noqa: SLF001
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
        for key in fragments._cells  # noqa: SLF001
        if key in joined and joined[key] != RecordFile.encode(_cell_record(store, key))
    ]
    return stale


def check_version_record(journal, vid) -> None:
    """The encode-once oracle, right after ``create_version`` made *vid*:
    every state recorded (not materialized) at *vid* is its item's live
    state, and the journal's last frame is the ``version`` record built
    from scratch, with no fragment."""
    db = journal.db
    items = {"o": db._objects, "r": db._relationships}  # noqa: SLF001
    for (kind, item_id), state, materialized in db.versions.store.states_at(vid):
        if not materialized:
            assert state == items[kind][item_id].freeze(), (
                f"{vid} recorded a stale state of {(kind, item_id)}"
            )
    seq = journal._next_seq - 1  # noqa: SLF001
    assert last_frame_payload(journal.path) == _delta_record(
        "version", seq, version_delta_from_db(db, vid)
    ), f"the version record of {vid} is not the from-scratch encode"


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
        #: versions that recorded a state the last commit had frozen
        self.reused_states = 0

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

    def create_version(self) -> None:
        """``create_version``, then the encode-once oracle."""
        db = self.db
        kept = db._committed  # noqa: SLF001
        vid = db.create_version()
        check_version_record(self.journal, vid)
        if kept is not None:
            recorded = {key: state for key, state, __ in db.versions.store.states_at(vid)}
            self.reused_states += any(
                recorded.get(key) is state for key, state in kept[1].items()
            )

    def version(self) -> None:
        if self.db.has_unsaved_changes():
            self.create_version()

    def commit_and_version(self) -> None:
        """A unit of edits committed, then a version at once."""
        if self.rng.random() < 0.5:
            self.edit()
        else:
            with self.db.transaction():
                for __ in range(self.rng.randrange(1, 4)):
                    try:
                        self.edit()
                    except SeedError:
                        pass
        self.create_version()

    def select(self) -> None:
        versions = self.db.saved_versions()
        if versions:
            self.db.select_version(self.rng.choice(versions), discard_changes=True)

    def restore(self) -> None:
        """A raw restore of a saved version's view: the base stays."""
        versions = self.db.saved_versions()
        if versions:
            view = self.db.version_view(self.rng.choice(versions))
            self.db._restore(*view.states())  # noqa: SLF001 - a raw restore

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
            ("check_in", 5), ("version", 8), ("commit_and_version", 4),
            ("select", 3), ("restore", 2), ("migrate", 1),
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


@pytest.fixture
def reused_bytes(monkeypatch) -> list:
    """The encoded states a ``version`` record took from kept members."""
    taken: list = []
    real = ImageFragments.state_of

    def state_of(self, kind, item_id):
        state = real(self, kind, item_id)
        if state is not None:
            taken.append(state)
        return state

    monkeypatch.setattr(ImageFragments, "state_of", state_of)
    return taken


@pytest.mark.parametrize("seed", range(8))
def test_cached_payload_equals_the_full_encode_after_every_step(
    seed, tmp_path, reused_bytes
):
    history = History(seed, tmp_path)
    journal, db = history.journal, history.db
    for index in range(120):
        name = history.step()
        where = f"step {index} ({name})"
        # each fragment on its own, before the join below refills any
        assert stale_fragments(journal) == [], f"{where} left a stale fragment"
        assert cached_image(journal) == full_image(db), f"{where}: monolithic image"
        assert b"".join(
            _frame(payload) for payload in journal._fragments.records(db, 7)  # noqa: SLF001
        ) == streamed_group(db, 7), f"{where}: streamed image frames"
        for payload in history.unjudged_frames():
            assert payload == RecordFile.encode(json.loads(payload)), (
                f"{where} wrote a frame that is not canonical JSON"
            )
        # replay runs the live code: the journal reopens to this state
        assert full_image(load_database(history.path)) == full_image(db), (
            f"{where}: the reopened journal differs from the live database"
        )
    # the version oracle above judged reused states and bytes
    assert history.reused_states > 0, "no version reused a committed state"
    assert reused_bytes, "no version record reused an encoded state"
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


def test_a_grown_cell_saves_without_encoding_a_state(tmp_path, encode_spy):
    """A version that adds an entry to a cell that already has one
    splices the bytes its ``version`` record encoded onto the kept
    fragment: the next save point encodes no state at all."""
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    for index in range(20):
        db.create_object("Data", f"D{index}")
    db.create_version()
    journal.checkpoint()
    key = ("o", db.get_object("D7").oid)
    db.rename(db.get_object("D7"), "Renamed")
    db.create_version()
    assert len(db.versions.store.entries_of(key)) == 2
    encode_spy.clear()
    journal.checkpoint()
    _encodes_no_state(encode_spy)
    assert last_frame_payload(journal.path) == full_image(db)


def test_a_cell_grown_at_every_version_is_spliced_each_time(tmp_path, encode_spy):
    """A cell that grows at several versions between save points, and a
    branch version whose entry sorts in the middle of a cell: the save
    point re-encodes only the second, and writes the full encode either
    way."""
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    hot = db.create_object("Data", "Hot")
    db.create_object("Data", "Cold")
    first = db.create_version()
    for step in range(4):
        db.rename(hot, f"Hot{step}")
        db.create_version()
    encode_spy.clear()
    journal.checkpoint()
    _encodes_no_state(encode_spy)
    assert last_frame_payload(journal.path) == full_image(db)
    # 1.0's next child sorts before 2.0 .. 5.0 in Hot's cell
    db.select_version(first)
    db.rename(db.get_object("Hot"), "Branched")
    branch = db.create_version()
    assert branch < db.versions.store.entries_of(("o", hot.oid))[-1][0]
    encode_spy.clear()
    journal.checkpoint()
    assert [(kind, state.name) for kind, state in encode_spy.states] == [
        ("o", name) for name in ("Hot", "Branched", "Hot0", "Hot1", "Hot2", "Hot3")
    ]
    assert last_frame_payload(journal.path) == full_image(db)


def test_cells_grown_by_snapshots_between_versions_are_spliced(tmp_path, encode_spy):
    """A consolidation right after each version grows every cell by a
    materialized entry at every second version; the ``version`` record
    splices its own entries and the next join the materialized ones,
    encoding only their states."""
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    for index in range(6):
        db.create_object("Data", f"D{index}")
    db.create_version()
    materialized = 0
    for step in range(4):
        db.rename(db.get_object(f"D{step}"), f"Renamed{step}")
        vid = db.create_version()
        stats = db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=2))
        flags = sum(m for __, __, m in db.versions.store.states_at(vid))
        assert flags == stats.snapshot_states_added
        materialized += flags
        encode_spy.clear()
        journal.checkpoint()
        assert len(encode_spy.states) == flags
        assert _item_records(encode_spy.values) == []
        assert last_frame_payload(journal.path) == full_image(db)
    assert materialized == 10  # 5 unedited items at each of two snapshots


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
    # a compaction between two streamed checkpoints: folds keep or
    # drop the kept cells, and the next group is the oracle's
    for __ in range(2):
        for __ in range(6):
            try:
                history.commit_and_version()
            except SeedError:
                pass
        history.compact_versions()
        journal.checkpoint(streamed=True)
        assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001
    reopened = JournaledDatabase.open(history.path)
    assert reopened.recovery.base.cp == journal._base.cp  # noqa: SLF001
    assert full_image(reopened.db) == full_image(db)


# -- a fold keeps the fragments of the cells it moves without reordering --


def test_a_save_point_after_folding_the_baseline_encodes_no_state(
    tmp_path, encode_spy
):
    """Compaction folds the ingested baseline into its child, whose
    version added new items only: every moved entry is the one entry of
    its cell, so the fold keeps each fragment and the next save point,
    streamed or monolithic, encodes no state."""
    journal = JournaledDatabase.open(
        tmp_path / "spec.seed", schema=spades_schema(), name="spec"
    )
    db = journal.db
    load_into_spades(
        generate_spec(SpecShape(actions=30, data=15, flows=45), seed=4),
        SpadesTool(db=db),
    )
    baseline = db.create_version()
    for index in range(3):
        db.create_object("Data", f"Fresh{index}")
    db.create_version()
    cells = db.versions.store.cell_count()
    stats = db.compact(RetentionPolicy(squash_chains=True, keep_last=1))
    assert stats.squashed_versions == [baseline]
    assert stats.folded_states == cells - 3 and stats.discarded_states == 0
    assert len(journal._fragments._cells) == cells  # noqa: SLF001
    encode_spy.clear()
    journal.checkpoint(streamed=True)
    _encodes_no_state(encode_spy)
    assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001
    encode_spy.clear()
    journal.checkpoint()
    _encodes_no_state(encode_spy)
    assert last_frame_payload(journal.path) == full_image(db)


def _fold_case(tmp_path, build):
    """A journal *build* fills and versions, checkpointed (so every
    fragment is kept), then squashed with 1.0 pinned."""
    journal = JournaledDatabase.open(tmp_path / "fold.seed", schema=figure3_schema())
    db = journal.db
    db.create_object("Data", "X")
    db.create_object("Data", "Y")
    db.create_version()  # 1.0
    build(db)
    journal.checkpoint()
    stats = db.compact(RetentionPolicy(
        squash_chains=True, keep_last=1, pins=frozenset({db.saved_versions()[0]}),
    ))
    assert stats.squashed_versions, "nothing was folded"
    return journal


def _renamed_then_extended(db) -> None:
    """X gains an entry at 2.0; 2.0 folds into 3.0, where X has none."""
    db.rename(db.get_object("X"), "X2")
    db.create_version()  # 2.0
    db.create_object("Data", "Z")
    db.create_version()  # 3.0


def _renamed_twice(db) -> None:
    """X changes at 2.0 and at 3.0: the fold discards the 2.0 entry."""
    db.rename(db.get_object("X"), "X2")
    db.create_version()
    db.rename(db.get_object("X2"), "X3")
    db.create_version()


def _snapshot_moved(db) -> None:
    """A snapshot at 2.0 materializes X and Y there; the fold moves
    both entries, flag and all, and Z's change to 3.0."""
    db.create_object("Data", "Z")
    db.create_version()  # 2.0
    db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=2))
    db.create_object("Data", "W")
    db.create_version()


def _change_onto_a_snapshot(db) -> None:
    """X changes at 2.0 and 3.0 is a snapshot: the fold discards X's
    change and flips 3.0's materialized entry to a change."""
    db.rename(db.get_object("X"), "X2")
    db.create_version()  # 2.0
    db.create_object("Data", "Z")
    db.create_version()  # 3.0
    db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=3))


def _branch_that_reorders(db) -> None:
    """X has entries at 1.0, 4.0 (one branch) and 5.0 (the other);
    5.0 folds into its child 3.0, which sorts before 4.0."""
    db.rename(db.get_object("X"), "X4")
    db.create_version("4.0")
    db.select_version("1.0")
    db.rename(db.get_object("X"), "X5")
    db.create_version("5.0")
    db.create_object("Data", "Z")
    db.create_version("3.0")


@pytest.mark.parametrize(
    ("build", "encoded", "materialized"),
    [
        (_renamed_then_extended, [], 0),
        (_renamed_twice, ["X", "X3"], 0),
        (_snapshot_moved, [], 2),
        (_change_onto_a_snapshot, ["X", "X2"], 1),
        (_branch_that_reorders, ["X", "X5", "X4"], 0),
    ],
    ids=lambda value: value.__name__.lstrip("_") if callable(value) else None,
)
def test_a_fold_relabels_a_cell_it_keeps_in_order_and_drops_the_rest(
    tmp_path, encode_spy, build, encoded, materialized
):
    """A moved entry that keeps its place keeps its cell's fragment
    (which holds no label): the save point encodes no state of its
    cell. A discarded entry, a flipped materialized flag and a
    reordered cell drop the fragment: the save point encodes exactly
    that cell's states."""
    journal = _fold_case(tmp_path, build)
    db = journal.db
    assert stale_fragments(journal) == []
    flags = sum(
        flag
        for key in db.versions.store.keys()
        for __, __, flag in db.versions.store.entries_of(key)
    )
    assert flags == materialized
    encode_spy.clear()
    assert cached_image(journal) == full_image(db)
    assert [state.name for __, state in encode_spy.states] == encoded
    frames = b"".join(_frame(payload) for payload in journal._fragments.records(db, 3))  # noqa: SLF001
    assert frames == streamed_group(db, 3)
    journal.checkpoint(streamed=True)
    assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001
    reopened = JournaledDatabase.open(journal.path)
    assert full_image(reopened.db) == full_image(db)


def test_a_save_point_after_consolidation_encodes_only_the_materialized_states(
    tmp_path, encode_spy
):
    """Compaction consolidates a snapshot at the chain tip: every cell
    gains a materialized entry at its end. The next save point splices
    each onto the kept fragment and encodes only that entry's state —
    at most ``snapshot_states_added`` states, not every grown cell."""
    journal = JournaledDatabase.open(tmp_path / "snap.seed", schema=figure3_schema())
    db = journal.db
    rng = random.Random(12)
    with db.transaction():
        for index in range(20):
            action = db.create_object("Action", f"A{index}")
            action.add_sub_object("Description", f"does {index}")
            data = db.create_object("Data", f"D{index}")
            db.relate("Access", {"data": data, "by": action})
    db.create_version()
    for round_ in range(3):
        with db.transaction():
            for action in rng.sample(db.objects("Action"), 3):
                described = action.sub_objects("Description")
                if described:
                    db.set_value(described[0], f"round {round_}")
        db.create_version()
    journal.checkpoint()
    stats = db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=4))
    assert stats.snapshots_created == db.saved_versions()[-1:]
    assert stats.snapshot_states_added > 60
    assert stale_fragments(journal) == []
    encode_spy.clear()
    journal.checkpoint(streamed=True)
    assert 0 < len(encode_spy.states) <= stats.snapshot_states_added
    assert written_base(journal) == streamed_group(db, journal._base.cp)  # noqa: SLF001
    reopened = JournaledDatabase.open(journal.path)
    assert full_image(reopened.db) == full_image(db)
    reopened.close()


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


# -- a commit and the version that follows it: each state once -------------


@pytest.fixture
def freeze_spy(monkeypatch) -> list:
    """Every ``freeze()`` of a live item, as ``(key, state)``."""
    frozen: list = []
    for cls, kind, id_of in (
        (SeedObject, "o", lambda obj: obj.oid),
        (SeedRelationship, "r", lambda rel: rel.rid),
    ):
        def freeze(item, real=cls.freeze, kind=kind, id_of=id_of):
            state = real(item)
            frozen.append(((kind, id_of(item)), state))
            return state

        monkeypatch.setattr(cls, "freeze", freeze)
    return frozen


def _each_once(freeze_spy, encode_spy, keys) -> None:
    """Each of *keys* was frozen once, and the kernel encoded exactly
    those frozen states, each once."""
    assert Counter(key for key, __ in freeze_spy) == dict.fromkeys(keys, 1), (
        "an item was frozen more than once"
    )
    encoded = sorted(id(state) for __, state in encode_spy.states)
    assert encoded == sorted(id(state) for __, state in freeze_spy), (
        "the kernel encoded a state more than once"
    )


def test_a_load_and_its_baseline_freeze_and_encode_each_item_once(
    tmp_path, encode_spy, freeze_spy
):
    """The bulk load's ``txn`` record freezes and encodes every item; the
    baseline version records those states and writes those bytes."""
    journal = JournaledDatabase.open(
        tmp_path / "spec.seed", schema=spades_schema(), name="spec"
    )
    db = journal.db
    encode_spy.clear()
    load_into_spades(
        generate_spec(SpecShape(actions=30, data=15, flows=45), seed=4),
        SpadesTool(db=db),
    )
    vid = db.create_version()
    keys = [("o", oid) for oid in db._objects] + [  # noqa: SLF001
        ("r", rid) for rid in db._relationships  # noqa: SLF001
    ]
    assert len(keys) > 150
    _each_once(freeze_spy, encode_spy, keys)
    check_version_record(journal, vid)


def test_a_transaction_and_its_version_freeze_and_encode_each_item_once(
    tmp_path, encode_spy, freeze_spy
):
    """After the before-images, a transaction's ``txn`` record and the
    version created next freeze and encode each touched item once."""
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    actions = [db.create_object("Action", f"A{index}") for index in range(4)]
    data = [db.create_object("Data", f"D{index}") for index in range(4)]
    for action in actions:
        action.add_sub_object("Description", "first")
    access = db.relate("Access", {"data": data[0], "by": actions[0]})
    db.create_version()
    with db.transaction() as txn:
        db.set_value(actions[1].sub_objects("Description")[0], "edited")
        db.rename(data[1], "Renamed")
        db.create_object("Action", "Fresh").add_sub_object("Description", "new")
        db.relate("Access", {"data": data[2], "by": actions[2]})
        db.delete(access)
        db.reclassify(data[3], "InputData")
        # the before-images above are the rollback log, not the records
        freeze_spy.clear()
        encode_spy.clear()
    vid = db.create_version()
    assert len(txn.touched) >= 6
    _each_once(freeze_spy, encode_spy, txn.touched)
    check_version_record(journal, vid)


def _write_between(tmp_path, write):
    """Commit edits, run *write*, then create a version; returns the
    journal and the version for :func:`check_version_record`."""
    journal = JournaledDatabase.open(tmp_path / "j.seed", schema=figure3_schema())
    db = journal.db
    for index in range(4):
        db.create_object("Action", f"A{index}").add_sub_object("Description", "v1")
        db.create_object("Data", f"D{index}")
    db.delete(db.get_object("D3"))  # a tombstone compaction can collect
    db.create_version()
    description = db.get_object("A0").sub_objects("Description")[0]
    db.set_value(description, "v2")
    db.create_version()
    with db.transaction():
        db.set_value(description, "committed")
        db.rename(db.get_object("A1"), "Renamed")
        db.create_object("Data", "Fresh")
    write(journal, description)
    return journal, db.create_version()


def _edit_outside(journal, description) -> None:
    journal.db.set_value(description, "outside")


def _roll_back(journal, description) -> None:
    with pytest.raises(RuntimeError):
        with journal.db.transaction():
            journal.db.set_value(description, "rolled back")
            journal.db.rename(journal.db.get_object("Renamed"), "Gone")
            raise RuntimeError("abandon the transaction")


def _check_in(journal, description) -> None:
    """The server applies it with the journal's txn sink suspended: no
    ``txn`` record, so nothing replaces the states the commit kept."""
    server = SeedServer(journal=journal)
    client = server.connect("remote")
    local = client.check_out("A0", "Renamed")
    for action in local.objects("Action"):
        for described in action.sub_objects("Description"):
            local.set_value(described, "edited remotely")
    client.check_in()
    server.disconnect(client.client_id)
    assert description.value == "edited remotely"


def _migrate(journal, description) -> None:
    schema = journal.db.schema.copy("v2")
    schema.entity_class("Data").add_dependent("Note", "0..1")
    journal.db.migrate_schema(schema)


def _restore(journal, description) -> None:
    """A raw restore of the first version replaces the live records of
    items whose cells hold materialized entries: the save point fills
    their members again, and the next version records the restored
    states."""
    db = journal.db
    stats = db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=1))
    assert stats.snapshot_states_added
    db._restore(*db.version_view(db.saved_versions()[0]).states())  # noqa: SLF001
    journal.checkpoint()
    # the restore replaced the records: held handles are stale
    assert db.get_object("A0").sub_objects("Description")[0].value == "v1"


def _collect_tombstones(journal, description) -> None:
    stats = journal.db.compact(RetentionPolicy(keep_last=0, gc_tombstones=True))
    assert stats.collected_objects == 1


@pytest.mark.parametrize(
    "write",
    [_edit_outside, _roll_back, _check_in, _migrate, _restore, _collect_tombstones],
    ids=lambda write: write.__name__.lstrip("_"),
)
def test_a_write_after_the_commit_makes_the_version_record_what_is_live(
    tmp_path, write
):
    journal, vid = _write_between(tmp_path, write)
    assert journal.db._committed is None  # noqa: SLF001 - released
    check_version_record(journal, vid)
