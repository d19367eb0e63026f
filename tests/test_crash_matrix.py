"""The crash matrix: exhaustive truncation/flip recovery equivalence.

A journal corpus is built through the real multi-user write path —
checkpoints interleaved with write-ahead check-in deltas, including a
rejected (aborted) check-in and a direct master mutation whose commit
appends a write-ahead txn delta. While building, an **oracle** records
the committed state at every append boundary. Then, for *every*
truncation offset and *every* single-byte flip of the corpus file,
``JournaledDatabase.open`` must succeed (no unhandled error) and load
exactly the prefix-consistent committed state the oracle predicts:

* truncation at ``t`` → the state of the last append boundary ≤ ``t``
  (a partial record is a torn tail; a clean-prefix delta whose abort
  marker was cut off re-fails deterministically on replay);
* a flip in record ``j`` → base = newest intact image ≠ ``j``; replay
  the deltas after it, stopping at the corrupt gap (records past the
  first post-base kill are skipped for prefix consistency).

Corruption is never silent: mid-file damage must raise
:class:`~repro.core.errors.RecoveryWarning` (checked on samples; the
exhaustive loops suppress warnings for speed). Finally, ``repro fsck
--salvage`` must recover every intact record on seeded samples.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core import SchemaBuilder
from repro.core.errors import RecoveryWarning
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_to_dict,
)
from repro.core.versions.compaction import RetentionPolicy
from repro.multiuser import SeedServer


def matrix_schema():
    return (
        SchemaBuilder("crash")
        .entity_class("Item", sort="STRING")
        .build()
    )


def canonical(db):
    state = database_to_dict(db)
    state.pop("name")
    return state


class Corpus:
    """The journal file, its append boundaries, and record ranges."""

    def __init__(self, path, data, boundaries, records):
        self.path = path
        self.data = data
        #: (file size, committed canonical state) per operation boundary
        self.boundaries = boundaries
        #: (start, end, kind) of every record, in file order
        self.records = records

    # -- oracles ------------------------------------------------------------

    def expected_after_truncation(self, size):
        """Committed state for the clean-or-torn prefix of *size* bytes."""
        state = self.boundaries[0][1]
        for boundary_size, boundary_state in self.boundaries:
            if boundary_size <= size:
                state = boundary_state
        return state

    def state_after_record(self, index):
        """Committed state once record *index* is durable."""
        end = self.records[index][1]
        for boundary_size, boundary_state in self.boundaries:
            if boundary_size >= end:
                return boundary_state
        raise AssertionError("record beyond the last boundary")

    def expected_after_flip(self, offset):
        """Committed state when the record holding *offset* is corrupt."""
        killed = next(
            index
            for index, (start, end, __) in enumerate(self.records)
            if start <= offset < end
        )
        base = None
        for index, (__, ___, kind) in enumerate(self.records):
            if kind == "image" and index != killed:
                base = index
        if base is None:
            return self.boundaries[0][1]  # fresh pre-first-commit state
        if killed < base:
            # damage before the base is shadowed by the newer image:
            # the full tail replays
            return self.state_after_record(len(self.records) - 1)
        # replay stops at the corrupt gap; the last clean record before
        # it defines the committed prefix
        return self.state_after_record(killed - 1)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Build the journal through the real server write path."""
    path = tmp_path_factory.mktemp("crash") / "central.seed"
    record_file = RecordFile(path)
    boundaries = []
    server = SeedServer.open(path, schema=matrix_schema(), name="central")

    def snap():
        boundaries.append((record_file.size_bytes(), canonical(server.master)))

    snap()  # the initial image

    # committed check-in: create A          (delta seq 1)
    writer = server.connect("c1")
    local = writer.check_out()
    local.create_object("Item", "A").set_value("a1")
    writer.check_in()
    snap()

    server.checkpoint()  # image 2
    snap()

    # committed check-in: modify A          (delta seq 2)
    writer = server.connect("c2")
    local = writer.check_out("A")
    local.get_object("A").set_value("a2")
    writer.check_in()
    snap()

    # committed check-in: create B          (delta seq 3)
    writer = server.connect("c3")
    local = writer.check_out()
    local.create_object("Item", "B").set_value("b1")
    writer.check_in()
    snap()

    server.checkpoint()  # image 3
    snap()

    # a direct master mutation journals a write-ahead txn delta at
    # commit (durable immediately, no checkpoint needed) — and it makes
    # the stale client's later check-in fail
    stale = server.connect("c4")
    stale_local = stale.check_out("B")
    server.master.get_object("B").set_value("server-side")
    snap()  # the txn delta is an append boundary of its own

    server.checkpoint()  # image 4 (supersedes the txn delta)
    snap()

    # rejected check-in: delta seq 4 + abort marker; replay re-fails it
    # deterministically even when the marker itself is lost
    stale_local.get_object("B").set_value("from c4")
    with pytest.raises(Exception):
        stale.check_in()
    snap()

    # committed check-in after the abort: create C   (delta seq 5)
    writer = server.connect("c5")
    local = writer.check_out()
    local.create_object("Item", "C").set_value("c1")
    writer.check_in()
    snap()

    server.checkpoint()  # image 5
    snap()

    records = [
        (event.offset, event.end, event.record.get("kind"))
        for event in record_file.scan()
        if event.kind == "record"
    ]
    data = path.read_bytes()
    # sanity: the corpus has the advertised shape
    assert sum(1 for __, ___, kind in records if kind == "image") == 5
    assert sum(1 for __, ___, kind in records if kind == "checkin") == 5
    assert sum(1 for __, ___, kind in records if kind == "txn") == 1
    assert sum(1 for __, ___, kind in records if kind == "checkin.abort") == 1
    assert records[-1][1] == len(data) == boundaries[-1][0]
    return Corpus(path, data, boundaries, records)


@pytest.fixture(scope="module")
def budget_corpus(tmp_path_factory):
    """A journal with txn deltas, check-ins, an abort, and one real
    byte-budget auto-compaction (checkpoint + rewrite) mid-stream."""
    path = tmp_path_factory.mktemp("crash") / "budget.seed"
    record_file = RecordFile(path)
    server = SeedServer.open(path, schema=matrix_schema(), name="central")
    journal = server.journal
    empty_state = canonical(server.master)
    boundaries = [(record_file.size_bytes(), empty_state)]
    compactions = 0

    def snap():
        nonlocal compactions
        size = record_file.size_bytes()
        if size < boundaries[-1][0]:
            # the journal auto-compacted: the file was rewritten, so
            # earlier byte boundaries no longer describe it — restart
            # the oracle at the rewritten base (a truncation inside
            # that base image recovers the fresh pre-commit state)
            compactions += 1
            boundaries.clear()
            boundaries.append((0, empty_state))
        boundaries.append((size, canonical(server.master)))

    # phase 1: interleaved check-in and txn deltas on the initial image
    writer = server.connect("c1")
    local = writer.check_out()
    local.create_object("Item", "A").set_value("a1")
    writer.check_in()  # delta seq 1
    snap()

    server.master.get_object("A").set_value("a2")  # txn delta seq 2
    snap()

    writer = server.connect("c2")
    local = writer.check_out()
    local.create_object("Item", "B").set_value("b1")
    writer.check_in()  # delta seq 3
    snap()

    # phase 2: one real auto-compaction — the next txn append puts the
    # file over budget, so the post-commit sink checkpoints and
    # rewrites the journal down to that fresh image
    journal.byte_budget = record_file.size_bytes()
    server.master.get_object("B").set_value("b2")  # txn delta seq 4
    journal.byte_budget = None
    snap()
    assert compactions == 1

    # phase 3: more interleaved records on the compacted base
    writer = server.connect("c3")
    local = writer.check_out("A")
    local.get_object("A").set_value("a3")
    writer.check_in()  # delta seq 5
    snap()

    stale = server.connect("c4")
    stale_local = stale.check_out("B")
    server.master.get_object("B").set_value("b3")  # txn delta seq 6
    snap()

    # rejected check-in: delta seq 7 + abort marker
    stale_local.get_object("B").set_value("from c4")
    with pytest.raises(Exception):
        stale.check_in()
    snap()

    writer = server.connect("c5")
    local = writer.check_out()
    local.create_object("Item", "C").set_value("c1")
    writer.check_in()  # delta seq 8
    snap()

    server.checkpoint()  # final image: any base flip stays loadable
    snap()

    records = [
        (event.offset, event.end, event.record.get("kind"))
        for event in record_file.scan()
        if event.kind == "record"
    ]
    data = path.read_bytes()
    kinds = [kind for __, ___, kind in records]
    # sanity: the compacted base survives at the front, interleaved
    # txn/check-in/abort records and a final checkpoint follow
    assert kinds[0] == "image" and kinds[-1] == "image"
    assert kinds.count("image") == 2
    assert kinds.count("txn") == 1  # phase-3 direct mutation
    assert kinds.count("checkin") == 3
    assert kinds.count("checkin.abort") == 1
    assert records[-1][1] == len(data) == boundaries[-1][0]
    return Corpus(path, data, boundaries, records)


def load_state(path):
    journal = JournaledDatabase.open(path, schema=matrix_schema(), name="central")
    return canonical(journal.db)


def sweep_truncations(corpus, work):
    """Every truncation offset must recover the oracle's prefix state."""
    mismatches = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for size in range(len(corpus.data) + 1):
            work.write_bytes(corpus.data[:size])
            if load_state(work) != corpus.expected_after_truncation(size):
                mismatches.append(size)
    return mismatches


def sweep_flips(corpus, work):
    """Every single-byte flip must recover the oracle's prefix state."""
    data = bytearray(corpus.data)
    mismatches = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for offset in range(len(data)):
            original = data[offset]
            data[offset] ^= 0xFF
            work.write_bytes(bytes(data))
            data[offset] = original
            if load_state(work) != corpus.expected_after_flip(offset):
                mismatches.append(offset)
    return mismatches


class TestCrashMatrix:
    def test_every_truncation_recovers_the_committed_prefix(self, corpus, tmp_path):
        assert sweep_truncations(corpus, tmp_path / "trunc.seed") == []

    def test_every_byte_flip_recovers_a_consistent_prefix(self, corpus, tmp_path):
        assert sweep_flips(corpus, tmp_path / "flip.seed") == []

    def test_flip_damage_is_surfaced_not_silent(self, corpus, tmp_path):
        # sampled: every mid-file flip must announce itself
        work = tmp_path / "warn.seed"
        rng = random.Random(1986)
        last_start = corpus.records[-1][0]
        for offset in rng.sample(range(last_start), 12):
            data = bytearray(corpus.data)
            data[offset] ^= 0xFF
            work.write_bytes(bytes(data))
            with pytest.warns(RecoveryWarning):
                load_state(work)

    def test_truncation_recovery_is_silent(self, corpus, tmp_path, recwarn):
        # a torn tail is ordinary crash recovery, not data loss
        work = tmp_path / "quiet.seed"
        rng = random.Random(42)
        for size in rng.sample(range(1, len(corpus.data)), 12):
            work.write_bytes(corpus.data[:size])
            load_state(work)
        assert not [
            w for w in recwarn if isinstance(w.message, RecoveryWarning)
        ]

    def test_fsck_salvage_recovers_all_intact_records(self, corpus, tmp_path):
        from repro.cli import main

        rng = random.Random(7)
        total = len(corpus.records)
        for sample, offset in enumerate(rng.sample(range(len(corpus.data)), 10)):
            work = tmp_path / f"fsck{sample}.seed"
            data = bytearray(corpus.data)
            data[offset] ^= 0xFF
            work.write_bytes(bytes(data))
            assert main(["fsck", str(work), "--salvage"]) == 0
            repaired = RecordFile(work)
            assert repaired.verify().is_clean
            # exactly the one damaged record was lost, nothing else
            assert repaired.count() == total - 1
            assert work.with_name(work.name + ".corrupt").exists()


class TestBudgetCrashMatrix:
    """The same exhaustive sweeps over the auto-compacted corpus."""

    def test_every_truncation_recovers_the_committed_prefix(
        self, budget_corpus, tmp_path
    ):
        assert sweep_truncations(budget_corpus, tmp_path / "trunc.seed") == []

    def test_every_byte_flip_recovers_a_consistent_prefix(
        self, budget_corpus, tmp_path
    ):
        assert sweep_flips(budget_corpus, tmp_path / "flip.seed") == []

    def test_auto_compacted_journal_passes_fsck(self, budget_corpus):
        from repro.cli import main

        assert main(["fsck", str(budget_corpus.path)]) == 0


class TestDirectTransactionDurability:
    """The hole this PR closes: a committed direct transaction survives
    a crash with no intervening checkpoint."""

    def test_committed_transaction_survives_crash(self, tmp_path):
        path = tmp_path / "direct.seed"
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        journal.db.create_object("Item", "A").set_value("committed")
        with journal.db.transaction():
            journal.db.create_object("Item", "B").set_value("also committed")
        expected = canonical(journal.db)
        # no checkpoint: the process "crashes" here; only the initial
        # image and the write-ahead txn deltas are on disk (create and
        # set_value outside an explicit transaction commit separately)
        assert journal.checkpoints() == 1
        assert journal.txn_deltas() == 3
        reopened = JournaledDatabase.open(path, name="d")
        assert canonical(reopened.db) == expected

    def test_rolled_back_transaction_appends_nothing(self, tmp_path):
        path = tmp_path / "rollback.seed"
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        with pytest.raises(RuntimeError, match="nope"):
            with journal.db.transaction():
                journal.db.create_object("Item", "X")
                raise RuntimeError("nope")
        assert journal.txn_deltas() == 0
        reopened = JournaledDatabase.open(path, name="d")
        assert reopened.db.find_object("X") is None


class TestCompactionCrash:
    """A crashed compaction never loses committed state: the journal
    rewrite is atomic (temp + rename), so a crash at any compaction
    failpoint leaves either the old file or the finished new one."""

    CRASH_POINTS = (
        "journal.compact.rewrite",
        "recordfile.rewrite.replace",
        "recordfile.rewrite.post_replace",
    )

    def build(self, path):
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        db = journal.db
        boundaries = []

        def snap():
            boundaries.append(
                (journal._file.size_bytes(), canonical(db))  # noqa: SLF001
            )

        snap()
        db.create_object("Item", "A")  # txn delta (implicit commit)
        snap()
        db.get_object("A").set_value("a1")  # txn delta
        snap()
        journal.checkpoint()
        snap()
        db.get_object("A").set_value("a2")  # txn delta past the image
        snap()
        return journal, boundaries

    def test_crash_at_each_point_preserves_committed_state(self, tmp_path):
        from repro.core.faults import FaultPlan, SimulatedCrash

        for index, point in enumerate(self.CRASH_POINTS):
            path = tmp_path / f"crash{index}.seed"
            journal, boundaries = self.build(path)
            expected = boundaries[-1][1]
            plan = FaultPlan(seed=index).crash(point)
            with plan, pytest.raises(SimulatedCrash):
                journal.compact()
            assert plan.hits.get(point) == 1
            reopened = JournaledDatabase.open(path, name="d")
            assert canonical(reopened.db) == expected

    def test_every_truncation_of_a_mid_compaction_file_recovers(self, tmp_path):
        """Truncation sweep of the journal as a crashed compaction left
        it (crash before the atomic replace: the old file, superseded
        records and all) — every prefix recovers its boundary state."""
        from repro.core.faults import FaultPlan, SimulatedCrash

        path = tmp_path / "mid.seed"
        journal, boundaries = self.build(path)
        plan = FaultPlan().crash("recordfile.rewrite.replace")
        with plan, pytest.raises(SimulatedCrash):
            journal.compact()
        data = path.read_bytes()
        # the atomic replace never ran: the file bytes are untouched
        assert data[: boundaries[-1][0]] == data
        records = [
            (event.offset, event.end, event.record.get("kind"))
            for event in RecordFile(path).scan()
            if event.kind == "record"
        ]
        corpus = Corpus(path, data, boundaries, records)
        work = tmp_path / "midwork.seed"
        assert sweep_truncations(corpus, work) == []
        assert sweep_flips(corpus, work) == []


# -- the change-delta corpus: every mutation is a journaled delta ------------


def matrix_schema_v2():
    return (
        SchemaBuilder("crash")
        .entity_class("Item", sort="STRING")
        .entity_class("Extra", sort="STRING")
        # role names differ along the generalization: a replayed
        # relationship re-classification must re-bind, not just re-label
        .association(
            "Link", ("source", "Item", "0..*"), ("target", "Item", "0..*")
        )
        .association(
            "Strong",
            ("origin", "Item", "0..*"),
            ("dest", "Item", "0..*"),
            specializes="Link",
        )
        .build()
    )


class RecordCorpus:
    """Per-record oracle for a journal with streamed image groups.

    Unlike :class:`Corpus` (whose boundaries are one-record appends),
    a streamed checkpoint is a multi-record group — so the oracle tracks
    the committed state *per record*: ``rec_states[i]`` is the state
    once records ``0..i`` are durable. Image-family records are state
    no-ops (they carry the state current at their append), which makes
    both sweeps uniform:

    * truncation at ``t`` → state of the last record with ``end <= t``;
    * a flip killing record ``j`` → base = the newest complete image
      unit not containing ``j``; if that unit lies entirely after
      ``j``, the full tail replays, otherwise replay stops at the gap
      and the state is ``rec_states[j - 1]``.
    """

    def __init__(self, path, data, records, rec_states, empty_state):
        self.path = path
        self.data = data
        #: (start, end, kind, cp) of every record, in file order
        self.records = records
        self.rec_states = rec_states
        self.empty = empty_state
        #: (start_index, end_index) of every complete image unit
        self.units = self._find_units()

    def _find_units(self):
        units = []
        pending = {}
        for index, (__, ___, kind, cp) in enumerate(self.records):
            if kind == "image":
                units.append((index, index))
            elif kind == "image.begin":
                pending[cp] = index
            elif kind == "image.end" and cp in pending:
                units.append((pending.pop(cp), index))
        return units

    def expected_after_truncation(self, size):
        state = self.empty
        for (__, end, ___, ____), rec_state in zip(
            self.records, self.rec_states
        ):
            if end <= size:
                state = rec_state
        return state

    def expected_after_flip(self, offset):
        killed = next(
            index
            for index, (start, end, __, ___) in enumerate(self.records)
            if start <= offset < end
        )
        # base: the newest complete image unit whose records all
        # survive (a kill inside a streamed group voids the group)
        base = None
        for start_index, end_index in self.units:
            if not (start_index <= killed <= end_index):
                base = (start_index, end_index)
        if base is None:
            return self.empty
        if base[0] > killed:
            # the base is entirely past the damage: the full tail
            # replays from it (corruption cannot shadow a newer image)
            return self.rec_states[-1]
        if killed == 0:
            return self.empty
        return self.rec_states[killed - 1]


@pytest.fixture(scope="module")
def change_corpus(tmp_path_factory):
    """Schema/restore/version deltas interleaved with direct commits, a
    mid-stream auto-compaction, and a streamed checkpoint — all driven
    through the live change-capture seam."""
    path = tmp_path_factory.mktemp("crash") / "change.seed"
    record_file = RecordFile(path)
    journal = JournaledDatabase.open(
        path, schema=matrix_schema(), name="central"
    )
    db = journal.db
    empty_state = canonical(db)
    rec_states = []

    def count_records():
        return sum(1 for e in record_file.scan() if e.kind == "record")

    def sync():
        # align the per-record oracle with what is on disk: every record
        # appended since the last sync carries the current state
        count = count_records()
        if count < len(rec_states):
            # the journal auto-compacted down to one fresh image
            assert count == 1
            rec_states.clear()
        current = canonical(db)
        while len(rec_states) < count:
            rec_states.append(current)
        assert len(rec_states) == count

    sync()  # the initial image

    # three commits, each its own fsync'd record before it returns
    with db.transaction():
        db.create_object("Item", "A").set_value("a1")
    sync()
    with db.transaction():
        db.create_object("Item", "B").set_value("b1")
    sync()
    with db.transaction():
        db.get_object("A").set_value("a2")
    sync()

    # mid-stream auto-compaction: the third commit's append trips the
    # budget, so the journal checkpoints and rewrites down to one
    # fresh image
    with db.transaction():
        db.get_object("B").set_value("b2")
    sync()
    with db.transaction():
        db.create_object("Item", "C").set_value("c1")
    sync()
    journal.byte_budget = record_file.size_bytes()
    with db.transaction():
        db.get_object("C").set_value("c2")
    journal.byte_budget = None
    sync()
    assert len(rec_states) == 1

    # two commits, then the version delta (file order = commit order)
    with db.transaction():
        db.get_object("A").set_value("a3")
    sync()
    with db.transaction():
        db.get_object("B").set_value("b3")
    sync()
    v1 = db.create_version()
    sync()

    # schema migration: exactly one write-ahead record
    db.migrate_schema(matrix_schema_v2())
    sync()

    # commits under the migrated schema
    with db.transaction():
        db.create_object("Extra", "X").set_value("x1")
    sync()
    with db.transaction():
        db.get_object("A").set_value("a4")
    sync()
    with db.transaction():
        db.get_object("C").set_value("c3")
    sync()

    # a relationship created vague, then re-classified in its own
    # transaction (its role bindings change names: source/target ->
    # origin/dest), then a third commit
    with db.transaction():
        link = db.relate(
            "Link", source=db.get_object("A"), target=db.get_object("B")
        )
    sync()
    with db.transaction():
        link.reclassify("Strong")
    sync()
    with db.transaction():
        db.get_object("B").set_value("b4")
    sync()

    db.create_version()
    sync()

    # restore: exactly one write-ahead record
    db.versions.select_version(v1)
    sync()

    # a streamed checkpoint: image.begin / image.rec... / image.end
    journal.checkpoint(streamed=True)
    sync()

    # deltas past the streamed group
    with db.transaction():
        db.get_object("A").set_value("a5")
    sync()
    with db.transaction():
        db.get_object("C").set_value("c4")
    sync()

    records = [
        (
            event.offset,
            event.end,
            event.record.get("kind"),
            event.record.get("cp"),
        )
        for event in record_file.scan()
        if event.kind == "record"
    ]
    data = path.read_bytes()
    kinds = [kind for __, ___, kind, ____ in records]
    # sanity: the corpus has the advertised shape — the compacted base
    # up front, then schema/restore/version deltas interleaved with
    # direct commits and a streamed checkpoint group
    assert kinds[0] == "image"  # the auto-compaction's fresh base
    assert kinds.count("image") == 1
    assert kinds.count("schema") == 1
    assert kinds.count("restore") == 1
    assert kinds.count("version") == 2
    assert kinds.count("image.begin") == 1
    assert kinds.count("image.end") == 1
    assert kinds.count("image.rec") >= 3
    assert kinds.count("txn") == 10
    assert records[-1][1] == len(data)
    return RecordCorpus(path, data, records, rec_states, empty_state)


class TestChangeDeltaCrashMatrix:
    """Exhaustive sweeps over the change-delta corpus: schema, restore,
    and version mutations recover from the journal with zero
    checkpoints, through direct commits, compaction, and streamed images."""

    def test_every_truncation_recovers_the_committed_prefix(
        self, change_corpus, tmp_path
    ):
        assert sweep_truncations(change_corpus, tmp_path / "t.seed") == []

    def test_every_byte_flip_recovers_a_consistent_prefix(
        self, change_corpus, tmp_path
    ):
        assert sweep_flips(change_corpus, tmp_path / "f.seed") == []

    def test_fsck_salvage_recovers_all_intact_records(
        self, change_corpus, tmp_path
    ):
        from repro.cli import main

        rng = random.Random(10)
        total = len(change_corpus.records)
        for sample, offset in enumerate(
            rng.sample(range(len(change_corpus.data)), 8)
        ):
            work = tmp_path / f"fsck{sample}.seed"
            data = bytearray(change_corpus.data)
            data[offset] ^= 0xFF
            work.write_bytes(bytes(data))
            assert main(["fsck", str(work), "--salvage"]) == 0
            repaired = RecordFile(work)
            assert repaired.verify().is_clean
            assert repaired.count() == total - 1

    def test_mutators_replay_with_zero_checkpoints(self, tmp_path):
        """The acceptance criterion, stated directly: one record per
        mutator, full recovery from deltas alone."""
        path = tmp_path / "zero.seed"
        journal = JournaledDatabase.open(
            path, schema=matrix_schema(), name="central"
        )
        db = journal.db
        with db.transaction():
            db.create_object("Item", "A").set_value("a1")

        def records():
            return sum(
                1 for e in RecordFile(path).scan() if e.kind == "record"
            )

        before = records()
        v1 = db.create_version()
        assert records() == before + 1

        before = records()
        db.migrate_schema(matrix_schema_v2())
        assert records() == before + 1

        with db.transaction():
            db.create_object("Extra", "X")
        db.create_version()

        before = records()
        db.versions.select_version(v1)
        assert records() == before + 1

        expected = canonical(db)
        reopened = JournaledDatabase.open(path, name="central")
        assert reopened.checkpoints() == 1  # only the initial image
        assert canonical(reopened.db) == expected
        assert reopened.recovery.applied_change_deltas == 4


# -- the history corpus: restore, version deletion and compaction ------------


@pytest.fixture(scope="module")
def history_corpus(tmp_path_factory):
    """A raw view restore, a version deletion and a version-store
    compaction, each one write-ahead record among txn and version
    records, then a final checkpoint (so a flip in the first image
    still leaves a base)."""
    path = tmp_path_factory.mktemp("crash") / "history.seed"
    record_file = RecordFile(path)
    journal = JournaledDatabase.open(path, schema=matrix_schema(), name="central")
    db = journal.db
    empty_state = canonical(db)
    rec_states = [empty_state]  # the initial image

    def one_record(operation, *args, **kwargs):
        # every step appends exactly one record, carrying this state
        result = operation(*args, **kwargs)
        count = sum(1 for e in record_file.scan() if e.kind == "record")
        assert count == len(rec_states) + 1
        rec_states.append(canonical(db))
        return result

    def edit(name, value, delete=False):
        with db.transaction():
            obj = db.find_object(name) or db.create_object("Item", name)
            obj.set_value(value)
            if delete:
                db.delete(obj)

    one_record(edit, "A", "a1")
    v1 = one_record(db.create_version)
    one_record(edit, "B", "b1")
    v2 = one_record(db.create_version)
    one_record(db.select_version, v1)  # v2 is now a leaf off the base
    one_record(db._restore, *db.version_view(v2).states())  # noqa: SLF001 - base stays
    one_record(db.delete_version, v2)
    # created and deleted in one unit: only a tombstone is ever
    # stored, so compaction collects it
    one_record(edit, "C", "c1", delete=True)
    one_record(db.create_version)
    stats = one_record(
        db.compact, RetentionPolicy(keep_last=0, gc_tombstones=True)
    )
    assert stats.squashed_versions and stats.collected_objects
    one_record(edit, "A", "a3")
    journal.checkpoint()
    rec_states.append(canonical(db))

    records = [
        (event.offset, event.end, event.record.get("kind"), event.record.get("cp"))
        for event in record_file.scan()
        if event.kind == "record"
    ]
    kinds = [kind for __, ___, kind, ____ in records]
    assert kinds.count("image") == 2
    assert kinds.count("restore") == 2
    assert kinds.count("delete_version") == 1
    assert kinds.count("compact") == 1
    assert len(records) == len(rec_states)
    data = path.read_bytes()
    assert records[-1][1] == len(data)
    return RecordCorpus(path, data, records, rec_states, empty_state)


class TestHistoryMutatorCrashMatrix:
    """Exhaustive sweeps over the history corpus: a raw restore, a
    version deletion and a compaction recover from their records."""

    def test_every_truncation_recovers_the_committed_prefix(
        self, history_corpus, tmp_path
    ):
        assert sweep_truncations(history_corpus, tmp_path / "t.seed") == []

    def test_every_byte_flip_recovers_a_consistent_prefix(
        self, history_corpus, tmp_path
    ):
        assert sweep_flips(history_corpus, tmp_path / "f.seed") == []
