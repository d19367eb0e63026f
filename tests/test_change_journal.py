"""The change-capture seam: streamed images, group commit, unknown kinds.

Three claims, each tested against the monolithic reference or a
durability oracle:

* **streamed image equivalence** — `iter_image_records` /
  `database_from_records` round-trip any population (randomized,
  versioned, post-replay) to a canonical image *byte-identical* to
  `database_to_dict`'s, and streamed checkpoints load to the same
  state as monolithic ones;
* **group-commit windows** — with a `GroupCommitPolicy` on a fake
  clock, a crash loses at most the buffered partial batch (bounded by
  `max_txns` / `max_bytes` / `max_delay_s`), and every barrier —
  flush, checkpoint, compact, budget enforcement, change-event
  appends, snapshot pins, service shutdown — loses nothing;
* **unknown record kinds** — a journal written by a newer build is
  skipped-and-surfaced (`RecoveryWarning`, or `StorageError` under
  ``strict=True``), never crashed on and never silently accepted.
"""

from __future__ import annotations

import json
import random
import warnings

import pytest

from repro.core import SchemaBuilder, SeedDatabase, figure3_schema
from repro.core.errors import RecoveryWarning, SeedError, StorageError
from repro.core.versions.compaction import RetentionPolicy
from repro.core.versions.version_id import VersionId
from repro.core.storage import (
    GroupCommitPolicy,
    JournaledDatabase,
    RecordFile,
    database_from_records,
    database_to_dict,
    iter_image_records,
)


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
            loaded_stream.recovery.base_offset
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
        """A ``version`` record lists its cells in record order — the
        sorted dirty keys, then whatever online consolidation
        materialized — and a journal of such records reopens to the
        live database's canonical image, cell order included."""
        path = tmp_path / "versions.seed"
        journal = JournaledDatabase.open(
            path, schema=figure3_schema(), name="vr"
        )
        db = journal.db
        db.versions.retention = RetentionPolicy(snapshot_interval=2)
        oldest = db.create_object("Action", "Oldest")
        described = oldest.add_sub_object("Description", "first")
        for round_number in range(4):
            populate(db, seed=5 + round_number, ops=25, versions=0)
            data = db.create_object("Data", f"Flow{round_number}")
            db.relate("Access", {"data": data, "by": oldest})
            db.create_version()
        described.set_value("edited late")  # a dirty key with an old cell
        db.create_object("Action", "Newest")
        db.create_version()
        store = db.versions.store
        records = [
            record["delta"]
            for record in RecordFile(path).records()
            if record.get("kind") == "version"
        ]
        assert len(records) == len(db.saved_versions()) >= 5
        materialized_cells = 0
        for delta in records:
            keys = [(cell["kind"], cell["id"]) for cell in delta["cells"]]
            recorded = [
                key
                for key, cell in zip(keys, delta["cells"])
                if not cell.get("materialized")
            ]
            assert recorded == sorted(recorded)
            assert keys[: len(recorded)] == recorded
            materialized_cells += len(keys) - len(recorded)
            version = VersionId.parse(delta["version"])
            assert keys == list(store.keys_in_version(version))
            assert delta["snapshot"] == store.is_snapshot(version)
        assert materialized_cells  # consolidation rode in a record
        assert [d["snapshot"] for d in records].count(True) >= 2
        reopened = JournaledDatabase.open(path).db
        assert canonical_bytes(reopened) == canonical_bytes(db)
        assert list(reopened.versions.store.keys()) == list(store.keys())
        for version in db.saved_versions():
            assert list(reopened.versions.store.states_at(version)) == list(
                store.states_at(version)
            )


class TestBulkIngest:
    def test_ingest_equivalence(self):
        src = SeedDatabase(figure3_schema(), "src")
        populate(src, seed=3, ops=40, versions=0)
        dst = SeedDatabase(figure3_schema(), "dst")
        created = dst.bulk_load(records=iter_image_records(src))
        a = database_to_dict(src)
        b = database_to_dict(dst)
        assert a["objects"] == b["objects"]
        assert a["relationships"] == b["relationships"]
        assert all(name in created or "/" in name for name in created)

    def test_ingest_refuses_version_cells(self):
        src = SeedDatabase(figure3_schema(), "src")
        populate(src, seed=3, ops=20, versions=1)  # has stored cells
        dst = SeedDatabase(figure3_schema(), "dst")
        with pytest.raises(StorageError, match="version-cell"):
            dst.bulk_load(records=iter_image_records(src))

    def test_records_and_items_are_mutually_exclusive(self):
        db = SeedDatabase(figure3_schema(), "x")
        with pytest.raises(SeedError):
            db.bulk_load(objects=[("Data", "D")], records=iter([]))

    def test_short_stream_rolls_the_batch_back(self):
        src = SeedDatabase(figure3_schema(), "src")
        populate(src, seed=7, ops=30, versions=0)
        records = list(iter_image_records(src))
        assert "end" in records[-1]
        dst = SeedDatabase(figure3_schema(), "dst")
        before = canonical_bytes(dst)
        # drop one item record but keep the footer: count mismatch
        with pytest.raises(StorageError):
            dst.bulk_load(records=iter(records[:-2] + [records[-1]]))
        assert canonical_bytes(dst) == before  # whole-batch rollback

    def test_an_orphaned_object_record_rolls_the_batch_back(self):
        src = SeedDatabase(figure3_schema(), "src")
        populate(src, seed=7, ops=30, versions=0)
        records = list(iter_image_records(src))
        child = next(r for r in records if r.get("s", {}).get("parent") is not None)
        orphaned = [r for r in records if r.get("o") != child["s"]["parent"]]
        dst = SeedDatabase(figure3_schema(), "dst")
        before = canonical_bytes(dst)
        with pytest.raises(StorageError, match="before its parent"):
            dst.bulk_load(records=iter(orphaned))
        assert canonical_bytes(dst) == before
        assert dst.statistics()["objects"] == 0
        dst.indexes.verify()


def open_group(path, **kwargs):
    clock = kwargs.pop("clock", None) or (lambda: 0.0)
    policy = kwargs.pop(
        "policy",
        GroupCommitPolicy(max_txns=4, max_bytes=1 << 20, max_delay_s=1e9),
    )
    return JournaledDatabase.open(
        path, schema=item_schema(), name="g",
        group_commit=policy, clock=clock, **kwargs
    )


def commit(db, name, value):
    with db.transaction():
        obj = db.find_object(name) or db.create_object("Item", name)
        obj.set_value(value)


def reopened_names(path):
    journal = JournaledDatabase.open(path, name="g")
    return {o.simple_name for o in journal.db.objects()}


class TestGroupCommitWindows:
    def test_crash_loses_at_most_the_buffered_batch(self, tmp_path):
        path = tmp_path / "g.seed"
        journal = open_group(path)
        commit(journal.db, "A", "a")
        commit(journal.db, "B", "b")
        commit(journal.db, "C", "c")
        assert journal.pending_txns() == 3  # < max_txns: still buffered
        # the "crash": reopen from the bytes on disk — exactly the
        # buffered partial batch is lost, nothing durable is
        assert reopened_names(path) == set()
        commit(journal.db, "D", "d")  # 4th commit: max_txns flush
        assert journal.pending_txns() == 0
        assert journal.group_flushes == 1
        assert reopened_names(path) == {"A", "B", "C", "D"}

    def test_max_bytes_bound(self, tmp_path):
        path = tmp_path / "b.seed"
        journal = open_group(
            path,
            policy=GroupCommitPolicy(
                max_txns=10_000, max_bytes=256, max_delay_s=1e9
            ),
        )
        commit(journal.db, "A", "x" * 300)  # one encoded record > 256B
        assert journal.pending_txns() == 0  # flushed immediately
        assert reopened_names(path) == {"A"}

    def test_max_delay_bound_on_a_fake_clock(self, tmp_path):
        now = [0.0]
        path = tmp_path / "d.seed"
        journal = open_group(
            path,
            clock=lambda: now[0],
            policy=GroupCommitPolicy(
                max_txns=10_000, max_bytes=1 << 30, max_delay_s=0.05
            ),
        )
        commit(journal.db, "A", "a")
        assert journal.pending_txns() == 1
        now[0] = 0.04  # inside the window: still buffered
        commit(journal.db, "B", "b")
        assert journal.pending_txns() == 2
        now[0] = 0.06  # the oldest buffered commit is now too old
        commit(journal.db, "C", "c")
        assert journal.pending_txns() == 0
        assert reopened_names(path) == {"A", "B", "C"}

    def test_barriers_lose_nothing(self, tmp_path):
        barriers = {
            "flush": lambda j: j.flush(),
            "checkpoint": lambda j: j.checkpoint(),
            "streamed_checkpoint": lambda j: j.checkpoint(streamed=True),
            "compact": lambda j: j.compact(),
            "enforce_budget": lambda j: j.enforce_budget(1),
            "version_event": lambda j: j.db.create_version(),
        }
        for index, (name, barrier) in enumerate(barriers.items()):
            path = tmp_path / f"bar{index}.seed"
            journal = open_group(path)
            commit(journal.db, "A", "a")
            assert journal.pending_txns() == 1, name
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                barrier(journal)
            assert journal.pending_txns() == 0, name
            assert "A" in reopened_names(path), name

    def test_change_event_drains_buffer_in_commit_order(self, tmp_path):
        path = tmp_path / "o.seed"
        journal = open_group(path)
        commit(journal.db, "A", "a")
        commit(journal.db, "B", "b")
        journal.db.create_version()
        kinds = [
            event.record.get("kind")
            for event in RecordFile(path).scan()
            if event.kind == "record"
        ]
        assert kinds == ["image", "txn", "txn", "version"]
        seqs = [
            event.record.get("seq")
            for event in RecordFile(path).scan()
            if event.kind == "record" and "seq" in event.record
        ]
        assert seqs == sorted(seqs)
        assert journal.group_flushes == 1  # one fsync for all three

    def test_default_stays_strictly_per_commit(self, tmp_path):
        path = tmp_path / "strict.seed"
        journal = JournaledDatabase.open(path, schema=item_schema(), name="g")
        assert journal.group_commit is None
        commit(journal.db, "A", "a")
        assert journal.pending_txns() == 0
        assert reopened_names(path) == {"A"}  # durable before return

    def test_server_pin_is_a_barrier(self, tmp_path):
        from repro.multiuser import SeedServer

        path = tmp_path / "srv.seed"
        server = SeedServer.open(
            path,
            schema=item_schema(),
            group_commit=GroupCommitPolicy(
                max_txns=100, max_bytes=1 << 30, max_delay_s=1e9
            ),
        )
        server.master.create_object("Item", "A").set_value("a")
        assert server.journal.pending_txns() > 0
        server.publish_snapshot()  # the pin
        assert server.journal.pending_txns() == 0
        assert "A" in reopened_names(path)

    def test_service_stop_flushes_without_checkpoint(self, tmp_path):
        from repro.multiuser import SeedServer
        from repro.multiuser.service import SeedService

        path = tmp_path / "svc.seed"
        server = SeedServer.open(
            path,
            schema=item_schema(),
            group_commit=GroupCommitPolicy(
                max_txns=100, max_bytes=1 << 30, max_delay_s=1e9
            ),
        )
        service = SeedService(server, port=0)
        with service:
            server.master.create_object("Item", "A").set_value("a")
            assert server.journal.pending_txns() > 0
        # stop() ran with final_checkpoint=False: no new checkpoint,
        # but the shutdown drain flushed the buffer
        assert JournaledDatabase.open(path, name="g").checkpoints() == 1
        assert "A" in reopened_names(path)


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

    @pytest.mark.parametrize("streamed", [False, True])
    def test_a_save_point_is_a_checkpoint_then_a_compaction(
        self, tmp_path, streamed
    ):
        from repro.core.faults import FaultPlan

        by_hand = self.build(tmp_path / "pair.seed", streamed_base=False)
        saving = self.build(tmp_path / "save.seed", streamed_base=False)
        with FaultPlan() as pair_plan:
            by_hand.checkpoint(streamed=streamed)
            size = by_hand.compact()
        with FaultPlan() as save_plan:
            assert saving.save_point(streamed=streamed) == size
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
