"""The change-capture seam: streamed images, strict durability, unknown kinds.

Four claims, each tested against the monolithic reference or a
durability oracle:

* **streamed image equivalence** — `iter_image_records` /
  `database_from_records` round-trip any population (randomized,
  versioned, post-replay) to a canonical image *byte-identical* to
  `database_to_dict`'s, and streamed checkpoints load to the same
  state as monolithic ones;
* **strict durability** — every committed transaction, a server
  master's direct ones included, is its own fsync'd record before the
  commit returns;
* **unknown record kinds** — a journal written by a newer build is
  skipped-and-surfaced (`RecoveryWarning`, or `StorageError` under
  ``strict=True``), never crashed on and never silently accepted;
* **one writer, one handle** — compaction copies the kept frames
  verbatim and reads nothing before the remembered base, and the
  journal's one append handle survives foreign appends, its own and
  foreign file replacements, interrupted writes and being forgotten.
"""

from __future__ import annotations

import gc
import json
import os
import random
import warnings

import pytest

from repro.core import SchemaBuilder, SeedDatabase, figure3_schema
from repro.core.errors import RecoveryWarning, SeedError, StorageError
from repro.core.versions.compaction import RetentionPolicy
from repro.core.versions.version_id import VersionId
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_from_records,
    database_to_dict,
    iter_image_records,
)
from repro.core.storage.recordfile import _frame


def item_schema():
    return SchemaBuilder("cj").entity_class("Item", sort="STRING").build()


def canonical_bytes(db):
    return json.dumps(
        database_to_dict(db), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def populate(db, seed, ops=60, versions=2):
    """Drive random valid mutations (objects, sub-objects, patterns,
    relationships, values) with a version snapshot every so often."""
    rng = random.Random(seed)
    counter = 0
    for step in range(ops):
        roll = rng.random()
        objects = [
            o for o in db.objects(include_patterns=True) if o.parent is None
        ]
        try:
            if roll < 0.40 or not objects:
                counter += 1
                class_name = rng.choice(
                    ["Data", "Action", "OutputData", "Thing"]
                )
                db.create_object(
                    class_name, f"Obj{counter}", pattern=rng.random() < 0.1
                )
            elif roll < 0.60:
                target = rng.choice(objects)
                if target.is_instance_of("Data"):
                    db.create_sub_object(target, "Text")
            elif roll < 0.80:
                data = [o for o in objects if o.is_instance_of("Data")]
                actions = [o for o in objects if o.class_name == "Action"]
                if data and actions:
                    db.relate(
                        "Read",
                        {"from": rng.choice(data), "by": rng.choice(actions)},
                    )
            else:
                rng.choice(objects).set_value(f"v{step}")
        except SeedError:
            continue
        if versions and (step + 1) % (ops // (versions + 1)) == 0:
            db.create_version()


class TestStreamedImageEquivalence:
    def test_randomized_populations_roundtrip_byte_identical(self):
        for seed in range(4):
            db = SeedDatabase(figure3_schema(), f"rand-{seed}")
            populate(db, seed)
            rebuilt = database_from_records(iter_image_records(db))
            assert canonical_bytes(rebuilt) == canonical_bytes(db)

    def test_post_replay_state_roundtrips_byte_identical(self, tmp_path):
        path = tmp_path / "replay.seed"
        journal = JournaledDatabase.open(
            path, schema=figure3_schema(), name="rp"
        )
        populate(journal.db, seed=99, ops=40)
        # the mutators journal deltas; reopening replays them all
        reopened = JournaledDatabase.open(path)
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)
        rebuilt = database_from_records(iter_image_records(reopened.db))
        assert canonical_bytes(rebuilt) == canonical_bytes(journal.db)

    def test_streamed_checkpoint_loads_like_monolithic(self, tmp_path):
        mono_path = tmp_path / "mono.seed"
        stream_path = tmp_path / "stream.seed"
        mono = JournaledDatabase.open(
            mono_path, schema=figure3_schema(), name="cp"
        )
        populate(mono.db, seed=5, ops=30)
        mono.checkpoint()  # monolithic
        stream = JournaledDatabase.open(
            stream_path, schema=figure3_schema(), name="cp"
        )
        populate(stream.db, seed=5, ops=30)
        stream.checkpoint(streamed=True)
        assert stream.checkpoints() == 2  # initial + streamed group
        loaded_mono = JournaledDatabase.open(mono_path)
        loaded_stream = JournaledDatabase.open(stream_path)
        assert (
            canonical_bytes(loaded_stream.db)
            == canonical_bytes(loaded_mono.db)
            == canonical_bytes(mono.db)
        )
        # the streamed load really used the group as its base
        assert (
            loaded_stream.recovery.base.offset
            > loaded_stream.recovery.report.total_bytes // 4
        )

    def test_truncated_stream_raises(self):
        db = SeedDatabase(figure3_schema(), "t")
        populate(db, seed=1, ops=20, versions=0)
        records = list(iter_image_records(db))
        with pytest.raises(StorageError, match="truncated image stream"):
            database_from_records(iter(records[:-1]))
        with pytest.raises(StorageError, match="image stream"):
            database_from_records(iter(records[:-2] + [records[-1]]))

    def test_stream_must_start_with_header(self):
        with pytest.raises(StorageError):
            database_from_records(iter([{"o": 1, "s": {}}]))
        with pytest.raises(StorageError):
            database_from_records(iter([]))


class TestVersionRecords:
    def test_record_ordered_cells_replay_byte_identical(self, tmp_path):
        """A ``version`` record lists the states the version recorded,
        in sorted key order, and a journal of such records with a
        snapshot consolidation between them reopens to the live
        database's canonical image, cell order included."""
        path = tmp_path / "versions.seed"
        journal = JournaledDatabase.open(
            path, schema=figure3_schema(), name="vr"
        )
        db = journal.db
        oldest = db.create_object("Action", "Oldest")
        described = oldest.add_sub_object("Description", "first")
        for round_number in range(4):
            populate(db, seed=5 + round_number, ops=25, versions=0)
            data = db.create_object("Data", f"Flow{round_number}")
            db.relate("Access", {"data": data, "by": oldest})
            db.create_version()
            if round_number == 1:
                db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=2))
        # a dirty key whose cell holds a materialized entry
        described.set_value("edited late")
        db.create_object("Action", "Newest")
        db.create_version()
        store = db.versions.store
        records = [
            record["delta"]
            for record in RecordFile(path).records()
            if record.get("kind") == "version"
        ]
        assert len(records) == len(db.saved_versions()) >= 5
        for delta in records:
            keys = [(cell["kind"], cell["id"]) for cell in delta["cells"]]
            assert keys == sorted(keys)
            assert not any("materialized" in cell for cell in delta["cells"])
            assert delta["snapshot"] is False
            version = VersionId.parse(delta["version"])
            assert keys == [
                key for key, __, flag in store.states_at(version) if not flag
            ]
        materialized = sum(
            flag for version in db.saved_versions()
            for __, __, flag in store.states_at(version)
        )
        assert materialized, "the consolidation materialized nothing"
        assert store.snapshot_versions() == [VersionId.parse("2.0")]
        reopened = JournaledDatabase.open(path).db
        assert canonical_bytes(reopened) == canonical_bytes(db)
        assert list(reopened.versions.store.keys()) == list(store.keys())
        for version in db.saved_versions():
            assert list(reopened.versions.store.states_at(version)) == list(
                store.states_at(version)
            )


def commit(db, name, value):
    with db.transaction():
        obj = db.find_object(name) or db.create_object("Item", name)
        obj.set_value(value)


def reopened_names(path):
    journal = JournaledDatabase.open(path, name="g")
    return {o.simple_name for o in journal.db.objects()}


class TestStrictDurability:
    def test_every_commit_is_one_fsynced_record(self, tmp_path, monkeypatch):
        from repro.multiuser import SeedServer

        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))

        def kinds(path):
            return [e.record["kind"] for e in RecordFile(path).decoded() if e.kind == "record"]

        path = tmp_path / "strict.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="g")
        fsyncs.clear()
        commit(journal.db, "A", "a")
        assert kinds(path) == ["image", "txn"] and len(fsyncs) == 1
        assert reopened_names(path) == {"A"}  # durable before return
        journal.close()

        # a direct transaction on a server's master: its own record
        # and fsync before the commit returns, like any other commit
        served = tmp_path / "served.seed"
        server = SeedServer.open(served, schema=item_schema())
        fsyncs.clear()
        commit(server.master, "B", "b")
        assert kinds(served) == ["image", "txn"] and len(fsyncs) == 1
        assert reopened_names(served) == {"B"}
        server.journal.close()


class TestUnknownRecordKinds:
    def build(self, path):
        journal = JournaledDatabase.open(path, schema=item_schema(), name="g")
        commit(journal.db, "A", "a")
        return journal

    def test_unknown_kind_warns_and_is_skipped(self, tmp_path):
        path = tmp_path / "u.seed"
        journal = self.build(path)
        RecordFile(path).append({"kind": "replica.hint", "seq": 999})
        commit(journal.db, "B", "b")  # an intact delta after it
        with pytest.warns(RecoveryWarning, match="unknown kind"):
            reopened = JournaledDatabase.open(path, name="g")
        assert reopened.recovery.unknown_records == 1
        assert reopened.recovery.unknown_kinds == ["replica.hint"]
        assert not reopened.recovery.clean
        # both real deltas applied: skipping is surgical
        assert {o.simple_name for o in reopened.db.objects()} == {"A", "B"}

    def test_unknown_kind_raises_under_strict(self, tmp_path):
        path = tmp_path / "s.seed"
        self.build(path)
        RecordFile(path).append({"kind": "replica.hint", "seq": 999})
        with pytest.raises(StorageError, match="unknown kind"):
            JournaledDatabase.open(path, name="g", strict=True)

    def test_unknown_kind_before_the_base_is_superseded(
        self, tmp_path, recwarn
    ):
        path = tmp_path / "old.seed"
        journal = self.build(path)
        RecordFile(path).append({"kind": "replica.hint", "seq": 999})
        journal.checkpoint()  # supersedes the alien record
        reopened = JournaledDatabase.open(path, name="g")
        assert reopened.recovery.clean
        assert not [
            w for w in recwarn if isinstance(w.message, RecoveryWarning)
        ]

    def test_fsck_reports_unknown_kinds_and_exits_zero(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "f.seed"
        self.build(path)
        RecordFile(path).append({"kind": "replica.hint", "seq": 999})
        assert main(["fsck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unknown kind 'replica.hint'" in out


# ---------------------------------------------------------------------------
# kept means copied: compaction and salvage never re-serialize a frame
# ---------------------------------------------------------------------------

def parent_compaction_bytes(path, live=None) -> bytes:
    """What the eager ``compact()`` wrote: decode, filter, re-encode.

    The reference the copying, lazily decoding rewrite is held against
    — decode every record of the file, search all of them for the
    newest complete image unit (none: a fresh image of *live*), and
    re-encode what is kept, as this repo did before
    ``rewrite(keep=...)`` and the remembered base unit existed.
    """
    from repro.core.storage.engine import _image_units
    from repro.core.storage.recordfile import _frame

    events = [e for e in RecordFile(path).decoded() if e.kind == "record"]
    units = _image_units(events)
    if not units:
        image = {"kind": "image", "image": database_to_dict(live)}
        return _frame(RecordFile.encode(image))
    base = units[-1]
    tail = [e.record for e in events[base["start_index"]:]]
    aborted = {
        r.get("seq") for r in tail
        if isinstance(r, dict) and r.get("kind") == "checkin.abort"
    }

    def keeps(record):
        if not isinstance(record, dict):
            return True
        kind = record.get("kind")
        if kind in ("checkin", "checkin.abort") and record.get("seq") in aborted:
            return False
        if kind in ("image.begin", "image.rec", "image.end"):
            return base["cp"] is not None and record.get("cp") == base["cp"]
        return True

    return b"".join(
        _frame(RecordFile.encode(record)) for record in tail if keeps(record)
    )


class TestCompactionCopiesFrames:
    def build(self, path, *, streamed_base):
        """A journal with one of everything ``compact()`` must judge."""
        from repro.core.faults import FaultPlan, SimulatedCrash

        journal = JournaledDatabase.open(path, schema=item_schema(), name="g")
        commit(journal.db, "Old", "superseded by the base")
        journal.checkpoint(streamed=streamed_base)  # the base unit
        commit(journal.db, "A", "ä non-ascii value \U0010ffff")
        journal.append_abort(journal.append_delta({"never": "applied"}))
        # a streamed checkpoint interrupted after begin + 2 parts
        plan = FaultPlan().crash("recordfile.append.pre_write", at=4)
        with plan, pytest.raises(SimulatedCrash):
            journal.checkpoint(streamed=True)
        journal = JournaledDatabase.open(path, name="g")
        RecordFile(path).append({"kind": "replica.hint", "seq": 999})
        RecordFile(path).append(["not", "a", "record", "object"])
        commit(journal.db, "B", "after the junk")
        journal.db.create_version()
        return journal

    def frames(self, path):
        data = path.read_bytes()
        return [
            (event.record, data[event.offset:event.end])
            for event in RecordFile(path).scan()
        ]

    @pytest.mark.parametrize("streamed_base", [False, True])
    def test_compacted_file_is_the_kept_frames_verbatim(
        self, tmp_path, streamed_base
    ):
        path = tmp_path / "c.seed"
        journal = self.build(path, streamed_base=streamed_base)
        before = self.frames(path)
        kinds = [
            r.get("kind") if isinstance(r, dict) else None for r, __ in before
        ]
        # the journal really holds everything the rule has to judge
        for expected in (
            "checkin", "checkin.abort", "image.rec", "replica.hint", None,
            "image.begin" if streamed_base else "image", "version",
        ):
            assert expected in kinds
        reference = parent_compaction_bytes(path)
        journal.compact()
        after = path.read_bytes()
        assert after == reference
        # ... and it is a subsequence of the original frames, byte for byte
        original = [blob for __, blob in before]
        position = 0
        for record, blob in self.frames(path):
            position = original.index(blob, position) + 1
            if isinstance(record, dict):
                assert record.get("kind") not in ("checkin", "checkin.abort")
        with pytest.warns(RecoveryWarning, match="unknown kind"):
            reopened = JournaledDatabase.open(path, name="g")
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)
        assert reopened.recovery.unknown_records == 2  # alien + non-dict

    def test_a_save_point_is_a_checkpoint_then_a_compaction(self, tmp_path):
        from repro.core.faults import FaultPlan

        by_hand = self.build(tmp_path / "pair.seed", streamed_base=False)
        saving = self.build(tmp_path / "save.seed", streamed_base=False)
        with FaultPlan() as pair_plan:
            by_hand.checkpoint()
            size = by_hand.compact()
        with FaultPlan() as save_plan:
            assert saving.save_point() == size
        assert save_plan.hits == pair_plan.hits
        assert saving.path.read_bytes() == by_hand.path.read_bytes()

    def test_compact_encodes_nothing_when_an_image_is_intact(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "spy.seed"
        journal = self.build(path, streamed_base=False)
        calls = []
        real_encode = RecordFile.encode
        monkeypatch.setattr(
            RecordFile, "encode",
            staticmethod(lambda record: (calls.append(1), real_encode(record))[1]),
        )
        journal.compact()
        assert calls == []
        # the no-intact-image fallback is the one path that encodes
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF  # inside the base image's payload
        path.write_bytes(bytes(data))
        with pytest.warns(RecoveryWarning, match="no intact image"):
            journal.compact()
        assert calls

    def test_salvage_copies_the_intact_frames(self, tmp_path):
        path = tmp_path / "s.seed"
        self.build(path, streamed_base=True)
        frames = self.frames(path)
        victim = len(frames) // 2
        offset = sum(len(blob) for __, blob in frames[:victim]) + 25
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        survivors = frames[:victim] + frames[victim + 1:]
        from repro.core.storage.recordfile import _frame

        report = RecordFile(path).salvage()
        assert report.intact_records == len(survivors)
        salvaged = path.read_bytes()
        assert salvaged == b"".join(blob for __, blob in survivors)
        assert salvaged == b"".join(
            _frame(RecordFile.encode(record)) for record, __ in survivors
        )


def spy_scans(monkeypatch) -> list:
    """The start offset of every ``RecordFile.scan``."""
    starts = []
    real = RecordFile.scan

    def scan(self, start=0):
        starts.append(start)
        return real(self, start)

    monkeypatch.setattr(RecordFile, "scan", scan)
    return starts


class TestCompactionReadsFromItsBase:
    """``compact()`` scans from the remembered base unit: the bytes
    before it are never read, and the rewrite copies the kept frames
    out of what the scan read."""

    @pytest.mark.parametrize("streamed_base", [False, True])
    def test_the_scan_starts_at_the_remembered_base(
        self, tmp_path, monkeypatch, streamed_base
    ):
        path = tmp_path / "b.seed"
        journal = TestCompactionCopiesFrames().build(path, streamed_base=streamed_base)
        journal.checkpoint()
        commit(journal.db, "C", "after the base")
        base = journal._base  # noqa: SLF001
        assert base.offset > 0
        reference = parent_compaction_bytes(path)
        starts = spy_scans(monkeypatch)
        read = []
        real_read = RecordFile._read_ranges  # noqa: SLF001
        monkeypatch.setattr(
            RecordFile, "_read_ranges",
            lambda self, ranges, source=None: (
                read.append(source is None), real_read(self, ranges, source)
            )[1],
        )
        journal.compact()
        assert starts == [base.offset]
        assert read == [False], "the rewrite read the file again"
        assert path.read_bytes() == reference
        reopened = JournaledDatabase.open(path, name="g")
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)

    def test_a_rotted_base_falls_back_to_the_full_search(self, tmp_path, monkeypatch):
        path = tmp_path / "r.seed"
        journal = TestCompactionCopiesFrames().build(path, streamed_base=False)
        journal.checkpoint()
        commit(journal.db, "C", "after the base")
        base = journal._base  # noqa: SLF001
        data = bytearray(path.read_bytes())
        data[base.offset + 40] ^= 0xFF  # inside the base image's payload
        path.write_bytes(bytes(data))
        reference = parent_compaction_bytes(path)
        starts = spy_scans(monkeypatch)
        journal.compact()
        assert starts == [base.offset, 0]
        assert path.read_bytes() == reference

    def test_a_compact_journal_is_not_rewritten(self, tmp_path, monkeypatch):
        from repro.core.faults import FaultPlan

        path = tmp_path / "n.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="n")
        commit(journal.db, "A", "a")
        size = journal.save_point()
        compacted = path.read_bytes()
        assert len(compacted) == size
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        with FaultPlan() as plan:
            assert journal.compact() == size
        assert synced == [] and plan.hits == {}
        assert path.read_bytes() == compacted
        # a torn or corrupt tail after the base is still cut by a rewrite
        for tail in (b"00000042 dead", _frame(b'{"kind":"x"}')[:-1] + b"?"):
            with open(path, "ab") as handle:
                handle.write(tail)
            assert journal.compact() == size
            assert synced and path.read_bytes() == compacted
            synced.clear()


class TestTheAppendHandle:
    """One append handle per journal file: offsets from the real end,
    dropped by every replacement or cut and by any failed write, closed
    by ``close()`` or, for a forgotten journal, by a finalizer."""

    def test_a_foreign_append_between_journal_appends(self, tmp_path):
        path = tmp_path / "f.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="f")
        commit(journal.db, "A", "a")
        RecordFile(path).append({"kind": "replica.hint", "seq": 999})
        commit(journal.db, "B", "b")
        RecordFile(path).append({"kind": "replica.hint", "seq": 1000})
        journal.checkpoint()
        events = list(RecordFile(path).scan())
        assert [e.kind for e in events] == ["record"] * 6
        base = journal._base  # noqa: SLF001
        assert (base.offset, base.end) == (events[-1].offset, events[-1].end)
        reference = parent_compaction_bytes(path)
        journal.compact()
        assert path.read_bytes() == reference
        reopened = JournaledDatabase.open(path)
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)

    @pytest.mark.parametrize("replacement", ["compact", "truncate", "salvage"])
    def test_the_next_commit_lands_in_the_current_file(self, tmp_path, replacement):
        path = tmp_path / "r.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="r")
        commit(journal.db, "A", "a")
        if replacement == "compact":
            journal.checkpoint()
            journal.compact()
        elif replacement == "truncate":
            commit(journal.db, "Torn", "t")
            with open(path, "r+b") as handle:
                handle.truncate(path.stat().st_size - 5)
            journal = JournaledDatabase.open(path)  # cuts the torn tail
            assert journal.db.find_object("Torn") is None
        else:
            commit(journal.db, "Lost", "l")
            lost = list(RecordFile(path).scan())[-1]
            data = bytearray(path.read_bytes())
            data[lost.offset + 30] ^= 0xFF
            path.write_bytes(bytes(data))
            assert not journal._file.salvage().is_clean  # noqa: SLF001
        commit(journal.db, "After", "lands")
        last = list(RecordFile(path).decoded())[-1]
        assert last.kind == "record" and last.record["kind"] == "txn"
        assert last.end == path.stat().st_size
        reopened = JournaledDatabase.open(path)
        assert reopened.recovery.clean
        assert reopened.db.find_object("After") is not None
        assert reopened.db.find_object("A") is not None

    @pytest.mark.parametrize("foreign", ["compact", "rewrite"])
    def test_a_file_replaced_under_the_handle_gets_the_next_commit(
        self, tmp_path, foreign
    ):
        """Another writer replaces the file under the open journal (a
        second journal compacting it, a raw rewrite): the next commit
        lands in the file at the path, not in the unlinked one, and
        the journal's compaction searches the new file."""
        path = tmp_path / "x.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="x")
        commit(journal.db, "A", "a")
        journal.checkpoint()
        commit(journal.db, "B", "b")
        if foreign == "compact":
            other = JournaledDatabase.open(path)
            other.compact()
            other.close()
        else:
            scanned = list(RecordFile(path).scan())
            RecordFile(path).rewrite(keep=[(e.offset, e.end) for e in scanned])
        commit(journal.db, "After", "lands")
        assert journal._file.replacements == 1  # noqa: SLF001
        assert journal._remembered_base() is None  # noqa: SLF001
        reopened = JournaledDatabase.open(path)
        assert reopened.db.find_object("After") is not None
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)
        journal.compact()
        commit(journal.db, "Later", "after the compaction")
        reopened = JournaledDatabase.open(path)
        assert reopened.recovery.clean
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)

    @pytest.mark.parametrize("fault", ["crash", "torn"])
    def test_an_interrupted_stream_keeps_its_frames_and_the_next_append_follows(
        self, tmp_path, fault
    ):
        from repro.core.faults import FaultPlan, SimulatedCrash
        from repro.core.storage.serialize import iter_image_records

        path = tmp_path / "s.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="s")
        for name in "ABC":
            commit(journal.db, name, name.lower())
        before = path.read_bytes()
        cp = journal._next_seq  # noqa: SLF001
        frames = [
            _frame(RecordFile.encode(record))
            for record in (
                {"kind": "image.begin", "cp": cp},
                *({"kind": "image.rec", "cp": cp, "rec": rec}
                  for rec in iter_image_records(journal.db)),
            )
        ]
        plan = FaultPlan()
        if fault == "torn":
            plan.torn_write("recordfile.append.pre_write", keep=9, at=3)
        else:
            plan.crash("recordfile.append.pre_write", at=3)
        with plan, pytest.raises(SimulatedCrash):
            journal.checkpoint(streamed=True)
        intact = before + frames[0] + frames[1]
        assert path.read_bytes() == intact + (frames[2][:9] if fault == "torn" else b"")
        if fault == "torn":
            journal = JournaledDatabase.open(path)  # cuts the torn prefix
        commit(journal.db, "D", "d")
        after = [e for e in RecordFile(path).scan() if e.offset >= len(intact)]
        assert [e.record["kind"] for e in after] == ["txn"]
        assert after[0].offset == len(intact)
        reopened = JournaledDatabase.open(path)
        assert reopened.db.find_object("D") is not None
        assert canonical_bytes(reopened.db) == canonical_bytes(journal.db)

    def test_close_twice_and_a_forgotten_journal_closes_its_handle(self, tmp_path):
        journal = JournaledDatabase.open(tmp_path / "c.seed", schema=item_schema())
        commit(journal.db, "A", "a")
        journal.close()
        journal.close()
        commit(journal.db, "B", "after the close")  # opens a new handle
        journal.close()
        assert JournaledDatabase.open(journal.path).db.find_object("B") is not None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            forgotten = JournaledDatabase.open(
                tmp_path / "forgotten.seed", schema=item_schema()
            )
            commit(forgotten.db, "A", "a")
            handle = forgotten._file._handle  # noqa: SLF001
            assert handle is not None and not handle.closed
            del forgotten
            gc.collect()
        assert handle.closed
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
