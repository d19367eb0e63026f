"""Fault injection, record-file salvage, and crash-safe recovery.

Covers the failpoint machinery itself (:mod:`repro.core.faults`), the
hardened :class:`~repro.core.storage.recordfile.RecordFile` (resync
scan, salvage, torn tails, durability failpoints), the storage engine's
recovery contract (newest intact image, delta replay, surfaced
corruption), and the ``repro fsck`` CLI. The exhaustive
truncation/byte-flip equivalence matrix lives in
``tests/test_crash_matrix.py``.
"""

from __future__ import annotations

import errno

import pytest

from repro.core import SchemaBuilder, SeedDatabase, faults
from repro.core.errors import RecoveryWarning, StorageError
from repro.core.faults import FaultPlan, SimulatedCrash, TornWrite
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_to_dict,
    load_database,
    save_database,
)


def tiny_schema():
    return (
        SchemaBuilder("tiny")
        .entity_class("Item", sort="STRING")
        .build()
    )


def flip_byte(path, offset, mask=0xFF):
    """Corrupt one byte of *path* in place."""
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------------
# the failpoint machinery itself
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_disarmed_fire_is_identity(self):
        assert not faults.armed()
        assert faults.fire("nonexistent.point", b"abc") == b"abc"
        assert faults.fire("nonexistent.point") is None

    def test_context_manager_arms_and_disarms(self):
        plan = FaultPlan()
        with plan:
            assert faults.armed()
            assert faults._PLAN is plan  # noqa: SLF001
        assert not faults.armed()

    def test_disarms_even_when_body_raises(self):
        plan = FaultPlan().fail_io("p")
        with pytest.raises(OSError):
            with plan:
                faults.fire("p")
        assert not faults.armed()

    def test_only_one_plan_at_a_time(self):
        with FaultPlan():
            with pytest.raises(RuntimeError, match="already armed"):
                faults.arm(FaultPlan())
        faults.disarm()  # idempotent
        faults.disarm()

    def test_fail_io_triggers_at_exact_hit(self):
        plan = FaultPlan().fail_io("p", errno_code=errno.ENOSPC, at=3)
        with plan:
            faults.fire("p")
            faults.fire("p")
            with pytest.raises(OSError) as caught:
                faults.fire("p")
            faults.fire("p")  # hit 4: past the fault, fires clean
        assert caught.value.errno == errno.ENOSPC
        assert "injected at p" in str(caught.value)
        assert plan.hits["p"] == 4
        assert plan.triggered == [("p", "errno", 3)]

    def test_crash_raises_simulated_crash(self):
        plan = FaultPlan().crash("p")
        with plan, pytest.raises(SimulatedCrash):
            faults.fire("p")
        assert plan.triggered == [("p", "crash", 1)]

    def test_torn_write_carries_the_prefix(self):
        plan = FaultPlan().torn_write("p", keep=4)
        with plan, pytest.raises(TornWrite) as caught:
            faults.fire("p", b"0123456789")
        assert caught.value.data == b"0123"

    def test_unrelated_points_pass_through(self):
        plan = FaultPlan().fail_io("p")
        with plan:
            assert faults.fire("q", b"ok") == b"ok"
        assert plan.hits == {"q": 1}

    def test_seeded_rng_is_deterministic(self):
        first = FaultPlan(seed=42).rng.sample(range(1000), 5)
        second = FaultPlan(seed=42).rng.sample(range(1000), 5)
        assert first == second

    def test_simulated_crash_is_not_a_seed_error(self):
        from repro.core.errors import SeedError

        assert not issubclass(SimulatedCrash, SeedError)


# ---------------------------------------------------------------------------
# record-file failpoints: injected I/O errors, torn writes, crashes
# ---------------------------------------------------------------------------

class TestRecordFileFaults:
    def test_enospc_before_write_leaves_file_unchanged(self, tmp_path):
        rf = RecordFile(tmp_path / "j.seed")
        rf.append({"n": 1})
        plan = FaultPlan().fail_io(
            "recordfile.append.pre_write", errno_code=errno.ENOSPC
        )
        with plan, pytest.raises(OSError) as caught:
            rf.append({"n": 2})
        assert caught.value.errno == errno.ENOSPC
        assert list(rf.records()) == [{"n": 1}]
        # the failure is transient: the next append works
        rf.append({"n": 2})
        assert list(rf.records()) == [{"n": 1}, {"n": 2}]

    def test_eio_before_fsync_surfaces(self, tmp_path):
        rf = RecordFile(tmp_path / "j.seed")
        with FaultPlan().fail_io("recordfile.append.pre_fsync"):
            with pytest.raises(OSError) as caught:
                rf.append({"n": 1})
        assert caught.value.errno == errno.EIO
        # the bytes were written but never acknowledged as durable;
        # either way the file stays parseable
        assert rf.verify().is_clean

    def test_torn_write_leaves_a_recoverable_torn_tail(self, tmp_path):
        rf = RecordFile(tmp_path / "j.seed")
        rf.append({"n": 1})
        before = rf.size_bytes()
        with FaultPlan().torn_write("recordfile.append.pre_write", keep=10):
            with pytest.raises(SimulatedCrash):
                rf.append({"n": 2})
        assert rf.size_bytes() == before + 10
        report = rf.verify()
        assert not report.is_clean
        assert report.tail_is_torn  # 10 bytes < header: "truncated header"
        assert not report.needs_attention
        # loads silently recover the clean prefix
        assert list(rf.records()) == [{"n": 1}]
        with pytest.raises(StorageError):
            list(rf.records(strict=True))
        # the next append resumes after the torn bytes are salvaged
        rf.salvage()
        rf.append({"n": 2})
        assert list(rf.records()) == [{"n": 1}, {"n": 2}]

    def test_crash_before_replace_preserves_original(self, tmp_path):
        rf = RecordFile(tmp_path / "j.seed")
        rf.append({"n": 1})
        rf.append({"n": 2})
        with FaultPlan().crash("recordfile.rewrite.replace"):
            with pytest.raises(SimulatedCrash):
                rf.rewrite([{"n": 99}])
        assert list(rf.records()) == [{"n": 1}, {"n": 2}]

    def test_crash_after_replace_keeps_new_content(self, tmp_path):
        rf = RecordFile(tmp_path / "j.seed")
        rf.append({"n": 1})
        with FaultPlan().crash("recordfile.rewrite.post_replace"):
            with pytest.raises(SimulatedCrash):
                rf.rewrite([{"n": 99}])
        assert list(rf.records()) == [{"n": 99}]

    def test_rewrite_empty_creates_a_valid_empty_file(self, tmp_path):
        rf = RecordFile(tmp_path / "empty.seed")
        rf.rewrite([])
        assert rf.exists()
        assert rf.size_bytes() == 0
        assert rf.verify().is_clean
        assert rf.count() == 0


# ---------------------------------------------------------------------------
# the one writer: every entry point's failpoint hit counts, pinned
# ---------------------------------------------------------------------------

PRE_WRITE = "recordfile.append.pre_write"
PRE_FSYNC = "recordfile.append.pre_fsync"
N = 5


def _recs(n=N):
    return [{"n": index, "pad": "x" * (7 * index)} for index in range(n)]


def _seeded(path):
    """A file holding N records; returns (file, their byte ranges)."""
    rf = RecordFile(path)
    return rf, [rf.append(record) for record in _recs()]


#: entry point -> (call on a seeded file, pre_write hits, records after)
WRITER_TABLE = {
    "append": (lambda rf, ranges: rf.append({"n": "a"}), 1, _recs() + [{"n": "a"}]),
    "append_many": (lambda rf, ranges: rf.append_many(_recs()), 1, _recs() * 2),
    "append_stream": (
        lambda rf, ranges: rf.append_stream(iter(_recs())), N, _recs() * 2,
    ),
    "rewrite(records)": (lambda rf, ranges: rf.rewrite(_recs(2)), 1, _recs(2)),
    "rewrite(keep)": (
        lambda rf, ranges: rf.rewrite(keep=[ranges[1], ranges[2], ranges[4]]),
        1,
        [_recs()[1], _recs()[2], _recs()[4]],
    ),
    "rewrite(keep+records)": (
        lambda rf, ranges: rf.rewrite([{"n": "z"}], keep=ranges[3:]),
        1,
        _recs()[3:] + [{"n": "z"}],
    ),
    "rewrite(empty)": (lambda rf, ranges: rf.rewrite(), 0, []),
}


class TestTheOneWriter:
    @pytest.mark.parametrize("name", sorted(WRITER_TABLE))
    def test_hit_counts_per_entry_point(self, tmp_path, name):
        call, pre_write_hits, expected = WRITER_TABLE[name]
        rf, ranges = _seeded(tmp_path / "j.seed")
        with FaultPlan() as plan:
            call(rf, ranges)
        assert plan.hits.get(PRE_WRITE, 0) == pre_write_hits
        assert plan.hits[PRE_FSYNC] == 1
        assert list(rf.records(strict=True)) == expected

    def test_empty_appends_do_not_touch_the_file(self, tmp_path):
        rf = RecordFile(tmp_path / "j.seed")
        with FaultPlan() as plan:
            assert rf.append_many([]) == 0
        assert plan.hits == {}
        assert not rf.exists()

    def test_kept_ranges_are_copied_not_reencoded(self, tmp_path, monkeypatch):
        rf, ranges = _seeded(tmp_path / "j.seed")
        original = rf.path.read_bytes()
        monkeypatch.setattr(
            RecordFile, "encode",
            staticmethod(lambda record: pytest.fail("re-encoded a kept frame")),
        )
        rf.rewrite(keep=[ranges[0], ranges[2], ranges[3]])
        assert rf.path.read_bytes() == b"".join(
            original[start:end] for start, end in (ranges[0], ranges[2], ranges[3])
        )

    @pytest.mark.parametrize("k", range(1, N + 1))
    def test_torn_stream_leaves_whole_frames_plus_the_torn_prefix(
        self, tmp_path, k
    ):
        rf, __ = _seeded(tmp_path / "j.seed")
        before = rf.path.read_bytes()
        frames = [
            before[start:end]
            for start, end in [
                (event.offset, event.end) for event in rf.scan()
            ]
        ]
        plan = FaultPlan().torn_write(PRE_WRITE, keep=9, at=k)
        with plan, pytest.raises(SimulatedCrash):
            rf.append_stream(iter(_recs()))
        assert plan.hits[PRE_WRITE] == k
        assert PRE_FSYNC not in plan.hits  # crashed before the fsync
        assert rf.path.read_bytes() == (
            before + b"".join(frames[: k - 1]) + frames[k - 1][:9]
        )
        assert rf.count() == N + k - 1
        assert rf.verify().tail_is_torn

    @pytest.mark.parametrize(
        "name", ["append", "append_many", "append_stream", "rewrite(records)"]
    )
    def test_a_created_file_fsyncs_its_directory_exactly_once(
        self, tmp_path, monkeypatch, name
    ):
        import repro.core.storage.recordfile as recordfile_module

        synced = []
        real = recordfile_module._fsync_directory
        monkeypatch.setattr(
            recordfile_module, "_fsync_directory",
            lambda directory: (synced.append(directory), real(directory)),
        )
        call = WRITER_TABLE[name][0]
        rf = RecordFile(tmp_path / "fresh.seed")
        call(rf, [])
        # a rewrite creates its temp file (one sync) and then renames it
        # into place (the post-replace sync)
        creations = 2 if name.startswith("rewrite") else 1
        assert synced == [tmp_path] * creations
        synced.clear()
        rf.append({"n": "again"})  # not creating: no directory sync
        assert synced == []


# ---------------------------------------------------------------------------
# salvage scan: resync past corruption, quarantine sidecar
# ---------------------------------------------------------------------------

class TestSalvageScan:
    def make_file(self, tmp_path, n=6):
        rf = RecordFile(tmp_path / "j.seed")
        ranges = [rf.append({"n": index, "pad": "x" * 40}) for index in range(n)]
        return rf, ranges

    def test_scan_resyncs_past_a_flipped_byte(self, tmp_path):
        rf, ranges = self.make_file(tmp_path)
        start, end = ranges[2]
        flip_byte(rf.path, (start + end) // 2)
        report = rf.verify()
        assert report.intact_records == 5
        assert len(report.corrupt_ranges) == 1
        corrupt = report.corrupt_ranges[0]
        assert (corrupt.offset, corrupt.end) == (start, end)
        assert report.needs_attention
        # the streaming reader stops at the corruption...
        assert rf.count() == 2
        # ...but the scan recovers everything after it
        recovered = [
            event.record["n"] for event in rf.scan() if event.kind == "record"
        ]
        assert recovered == [0, 1, 3, 4, 5]

    def test_corrupt_header_resyncs_too(self, tmp_path):
        rf, ranges = self.make_file(tmp_path)
        flip_byte(rf.path, ranges[1][0])  # first length digit
        report = rf.verify()
        assert report.intact_records == 5
        assert report.corrupt_ranges[0].problem == "unparseable header"

    def test_salvage_quarantines_and_repairs(self, tmp_path):
        rf, ranges = self.make_file(tmp_path)
        start, end = ranges[3]
        original = rf.path.read_bytes()
        flip_byte(rf.path, start + 20)
        report = rf.salvage()
        assert report.intact_records == 5
        assert rf.verify().is_clean
        assert [record["n"] for record in rf.records()] == [0, 1, 2, 4, 5]
        # the corrupt bytes survive, losslessly, in the sidecar
        sidecar = RecordFile(rf.path.with_name(rf.path.name + ".corrupt"))
        assert sidecar.exists()
        (entry,) = list(sidecar.records())
        assert entry["offset"] == start
        assert entry["length"] == end - start
        import base64

        quarantined = base64.b64decode(entry["data_b64"])
        assert len(quarantined) == end - start
        # one flipped byte away from the original range
        assert sum(
            a != b
            for a, b in zip(quarantined, original[start:end])
        ) == 1

    def test_salvage_explicit_quarantine_path(self, tmp_path):
        rf, ranges = self.make_file(tmp_path, n=3)
        flip_byte(rf.path, ranges[1][0] + 20)
        side = tmp_path / "saved.bits"
        rf.salvage(side)
        assert side.exists()
        assert not rf.path.with_name(rf.path.name + ".corrupt").exists()

    def test_salvage_leaves_clean_file_untouched(self, tmp_path):
        rf, __ = self.make_file(tmp_path, n=3)
        before = rf.path.read_bytes()
        report = rf.salvage()
        assert report.is_clean
        assert rf.path.read_bytes() == before
        assert not rf.path.with_name(rf.path.name + ".corrupt").exists()

    def test_salvage_trims_a_torn_tail(self, tmp_path):
        rf, ranges = self.make_file(tmp_path, n=3)
        size = rf.size_bytes()
        with open(rf.path, "r+b") as handle:
            handle.truncate(size - 5)
        rf.salvage()
        assert rf.verify().is_clean
        assert rf.count() == 2


# ---------------------------------------------------------------------------
# engine recovery: newest intact image, surfaced corruption, journals
# ---------------------------------------------------------------------------

class TestEngineRecovery:
    def build_journal(self, tmp_path):
        """Three checkpoints capturing three distinct states."""
        path = tmp_path / "db.seed"
        journal = JournaledDatabase.open(path, schema=tiny_schema(), name="t")
        db = journal.db
        states = [database_to_dict(db)]
        for index in range(2):
            db.create_object("Item", f"I{index}").set_value(f"v{index}")
            journal.checkpoint()
            states.append(database_to_dict(db))
        return path, states

    def image_ranges(self, path):
        rf = RecordFile(path)
        return [
            (event.offset, event.end)
            for event in rf.scan()
            if event.kind == "record" and event.record.get("kind") == "image"
        ]

    def test_clean_load_is_silent(self, tmp_path, recwarn):
        path, states = self.build_journal(tmp_path)
        db = load_database(path)
        assert database_to_dict(db) == states[-1]
        assert not [w for w in recwarn if isinstance(w.message, RecoveryWarning)]

    def test_corrupt_middle_image_recovers_newest_and_warns(self, tmp_path):
        path, states = self.build_journal(tmp_path)
        images = self.image_ranges(path)
        start, end = images[1]
        flip_byte(path, (start + end) // 2)
        with pytest.warns(RecoveryWarning, match="recovered"):
            db = load_database(path)
        assert database_to_dict(db) == states[-1]

    def test_shadowed_newest_checkpoint_is_found(self, tmp_path):
        # the pre-salvage-scan bug: corruption early in the file made
        # the stop-at-first-error loader serve a stale image silently
        path, states = self.build_journal(tmp_path)
        images = self.image_ranges(path)
        start, __ = images[0]
        flip_byte(path, start + 30)
        assert RecordFile(path).count() == 0  # streaming reader sees nothing
        with pytest.warns(RecoveryWarning, match="intact record"):
            db = load_database(path)
        assert database_to_dict(db) == states[-1]

    def test_corrupt_newest_image_falls_back_to_previous(self, tmp_path):
        path, states = self.build_journal(tmp_path)
        start, end = self.image_ranges(path)[-1]
        flip_byte(path, (start + end) // 2)
        with pytest.warns(RecoveryWarning):
            db = load_database(path)
        # base falls back to the previous image, but the second
        # mutation's write-ahead txn delta replays on top of it — the
        # committed state survives the damaged checkpoint
        assert database_to_dict(db) == states[-1]

    def test_strict_load_raises_instead_of_warning(self, tmp_path):
        path, __ = self.build_journal(tmp_path)
        start, end = self.image_ranges(path)[1]
        flip_byte(path, (start + end) // 2)
        with pytest.raises(StorageError, match="recovered .* past corruption"):
            load_database(path, strict=True)

    def test_torn_tail_load_is_silent(self, tmp_path, recwarn):
        path, states = self.build_journal(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 7)
        db = load_database(path)
        # the torn final image is silently dropped; the txn delta ahead
        # of it reproduces the same committed state from the prior image
        assert database_to_dict(db) == states[-1]
        assert not [w for w in recwarn if isinstance(w.message, RecoveryWarning)]

    def test_open_requires_schema_for_fresh_journal(self, tmp_path):
        with pytest.raises(StorageError, match="no schema"):
            JournaledDatabase.open(tmp_path / "missing.seed")

    def test_open_refuses_journal_without_image(self, tmp_path):
        rf = RecordFile(tmp_path / "odd.seed")
        rf.append({"kind": "checkin", "seq": 1, "delta": {}})
        with pytest.raises(StorageError, match="no intact database image"):
            JournaledDatabase.open(tmp_path / "odd.seed", schema=tiny_schema())

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no database file"):
            load_database(tmp_path / "nope.seed")

    def test_compact_drops_aborted_delta_pairs(self, tmp_path):
        path = tmp_path / "db.seed"
        journal = JournaledDatabase.open(path, schema=tiny_schema(), name="t")
        seq = journal.append_delta({"dummy": True})
        journal.append_abort(seq)
        journal.checkpoint()
        journal.append_delta({"dummy": True})
        assert journal.deltas() == 2
        journal.compact()
        # the aborted pair is gone; the post-checkpoint delta survives
        assert journal.checkpoints() == 1
        assert journal.deltas() == 1

    def test_save_load_roundtrip_still_works(self, tmp_path):
        db = SeedDatabase(tiny_schema(), "t")
        db.create_object("Item", "A").set_value("a")
        path = tmp_path / "db.seed"
        save_database(db, path)
        assert database_to_dict(load_database(path)) == database_to_dict(db)


class TestCommitsAfterADamagedOpen:
    """A commit acknowledged after opening a damaged journal is present
    after the next reopen: ``open()`` never appends behind damage a load
    stops at (it cuts a torn tail, and checkpoints past a corrupt gap)."""

    def build(self, tmp_path):
        """An image, then one txn record per item A, B, C."""
        path = tmp_path / "db.seed"
        journal = JournaledDatabase.open(path, schema=tiny_schema(), name="t")
        for name in "ABC":
            journal.db.create_object("Item", name)
        txns = [
            (event.offset, event.end)
            for event in RecordFile(path).scan()
            if event.record.get("kind") == "txn"
        ]
        return path, txns

    @staticmethod
    def names(db):
        return sorted(obj.simple_name for obj in db.objects("Item"))

    def reopen_and_commit(self, path):
        journal = JournaledDatabase.open(path)
        before = self.names(journal.db)
        journal.db.create_object("Item", "D")
        return journal, before

    def test_a_commit_after_a_torn_tail_survives_the_reopen(self, tmp_path, recwarn):
        path, txns = self.build(tmp_path)
        start, end = txns[-1]
        with open(path, "r+b") as handle:  # the crash tore C's append
            handle.truncate((start + end) // 2)
        journal, before = self.reopen_and_commit(path)
        assert before == ["A", "B"]
        reopened = JournaledDatabase.open(path)
        assert self.names(reopened.db) == ["A", "B", "D"]
        assert database_to_dict(reopened.db) == database_to_dict(journal.db)
        assert RecordFile(path).verify().is_clean  # the torn bytes were cut
        assert not [w for w in recwarn if isinstance(w.message, RecoveryWarning)]

    def test_a_commit_after_a_corrupt_txn_survives_the_reopen(self, tmp_path):
        path, txns = self.build(tmp_path)
        start, end = txns[1]
        flip_byte(path, (start + end) // 2)  # B's record rots; C is stranded
        with pytest.warns(RecoveryWarning, match="not replayed"):
            journal, before = self.reopen_and_commit(path)
        assert before == ["A"]
        with pytest.warns(RecoveryWarning):  # the damage stays for fsck
            reopened = JournaledDatabase.open(path)
        assert self.names(reopened.db) == ["A", "D"]
        assert database_to_dict(reopened.db) == database_to_dict(journal.db)

    def test_compaction_does_not_resurrect_the_stranded_delta(self, tmp_path):
        path, txns = self.build(tmp_path)
        start, end = txns[1]
        flip_byte(path, (start + end) // 2)
        with pytest.warns(RecoveryWarning):
            journal, __ = self.reopen_and_commit(path)
        journal.compact()
        reopened = JournaledDatabase.open(path)
        # C was never applied live: it must not come back
        assert self.names(reopened.db) == ["A", "D"]
        assert database_to_dict(reopened.db) == database_to_dict(journal.db)

    def test_salvage_still_finds_the_damage_open_stepped_over(self, tmp_path):
        path, txns = self.build(tmp_path)
        start, end = txns[1]
        flip_byte(path, (start + end) // 2)
        with pytest.warns(RecoveryWarning):
            self.reopen_and_commit(path)
        report = RecordFile(path).salvage()
        assert len(report.corrupt_ranges) == 1
        assert self.names(load_database(path, strict=True)) == ["A", "D"]

    def test_loads_and_strict_opens_write_nothing(self, tmp_path):
        path, txns = self.build(tmp_path)
        start, end = txns[-1]
        flip_byte(path, txns[1][0] + 20)
        with open(path, "r+b") as handle:
            handle.truncate((start + end) // 2)
        damaged = path.read_bytes()
        with pytest.warns(RecoveryWarning):
            load_database(path)
        with pytest.raises(StorageError, match="past corruption"):
            JournaledDatabase.open(path, strict=True)
        assert path.read_bytes() == damaged


# ---------------------------------------------------------------------------
# the fsck CLI
# ---------------------------------------------------------------------------

class TestFsckCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main([str(arg) for arg in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def make_journal(self, tmp_path):
        path = tmp_path / "db.seed"
        journal = JournaledDatabase.open(path, schema=tiny_schema(), name="t")
        journal.db.create_object("Item", "A").set_value("a")
        journal.checkpoint()
        return path

    def test_clean_file_reports_ok(self, tmp_path, capsys):
        path = self.make_journal(tmp_path)
        code, out, __ = self.run_cli(capsys, "fsck", path)
        assert code == 0
        assert "clean" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code, __, err = self.run_cli(capsys, "fsck", tmp_path / "nope.seed")
        assert code == 1
        assert "no database file" in err

    def test_corruption_reported_without_salvage(self, tmp_path, capsys):
        path = self.make_journal(tmp_path)
        flip_byte(path, 40)
        code, out, __ = self.run_cli(capsys, "fsck", path)
        assert code == 2
        assert "--salvage" in out

    def test_torn_tail_reports_recoverable(self, tmp_path, capsys):
        path = self.make_journal(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)
        code, out, __ = self.run_cli(capsys, "fsck", path)
        assert code == 0
        assert "torn tail" in out

    def test_salvage_repairs_and_quarantines(self, tmp_path, capsys):
        path = self.make_journal(tmp_path)
        flip_byte(path, 40)  # kills the first image; the second survives
        code, out, __ = self.run_cli(capsys, "fsck", path, "--salvage")
        assert code == 0
        assert "salvaged" in out
        assert path.with_name(path.name + ".corrupt").exists()
        assert RecordFile(path).verify().is_clean
        # the repaired journal loads without warnings
        db = load_database(path)
        assert db.find_object("A") is not None

    def test_salvage_custom_quarantine_path(self, tmp_path, capsys):
        path = self.make_journal(tmp_path)
        flip_byte(path, 40)
        side = tmp_path / "bits.seed"
        code, out, __ = self.run_cli(
            capsys, "fsck", path, "--salvage", "--quarantine", side
        )
        assert code == 0
        assert side.exists()
