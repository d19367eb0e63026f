"""A scan validates frames; whoever reads a record decodes it.

``RecordFile.scan`` checks length, CRC and terminator and hands out
``ScanEvent``s that parse their payload on first access;
``JournaledDatabase`` remembers where its base image unit sits, and
``compact()`` keeps that unit by byte range without looking inside.
Four claims:

* **an intact frame that is not JSON is a corrupt region** to every
  reader, exactly as when the scan decoded eagerly — decided once, in
  ``RecordFile.decoded``;
* **lazy compaction ≡ eager compaction** — on every journal the crash
  matrix builds through the real write paths, on a seeded sample of
  their truncations and single-byte flips, and under bit rot inside the
  remembered base unit, ``compact()`` leaves the bytes the
  decode-everything selection leaves (``parent_compaction_bytes``, the
  test-only reference);
* **a kept image is never parsed** — pinned structurally, in the idiom
  of ``test_faults.TestTheOneWriter``;
* **byte accounting rides on the remembered unit** — ``tail_bytes()``
  is the file size minus the base unit's offset wherever the unit came
  from.
"""

from __future__ import annotations

import json
import random
import warnings

import pytest

import test_change_journal as change_journal
import test_crash_matrix as crash_matrix
from test_change_journal import parent_compaction_bytes
from test_crash_matrix import (  # noqa: F401 - the corpora are fixtures
    budget_corpus,
    canonical,
    change_corpus,
    corpus,
    matrix_schema,
)

from repro.cli import main
from repro.core.errors import RecoveryWarning, StorageError
from repro.core.storage import JournaledDatabase, RecordFile, load_database
from repro.core.storage.recordfile import _frame

NOT_JSON = _frame(b"not json")


def commit(db, name, value):
    db.create_object("Item", name).set_value(value)


def open_quietly(path, **options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return JournaledDatabase.open(path, **options)


def flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------------
# a CRC-valid frame that is not JSON
# ---------------------------------------------------------------------------

class TestUnparseablePayload:
    """The frame's range is a corrupt region: reported, replay stops at
    it, ``strict`` raises — and nothing else raises out of a load."""

    def build(self, path, *, at_tail):
        """image, A's two commits, then the bad frame and C's two
        commits in either order."""
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        commit(journal.db, "A", "a")
        if at_tail:
            commit(journal.db, "C", "c")
        bad = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(NOT_JSON)
        if not at_tail:
            commit(journal.db, "C", "c")
        return journal, (bad, bad + len(NOT_JSON))

    def test_mid_journal_is_a_corrupt_range(self, tmp_path):
        path = tmp_path / "j.seed"
        __, bad = self.build(path, at_tail=False)
        report = RecordFile(path).verify()
        assert [(r.offset, r.end, r.problem) for r in report.corrupt_ranges] == [
            (*bad, "unparseable payload")
        ]
        assert report.intact_records == 5  # image, A's two commits, C's two
        assert report.tail_problem is None and report.needs_attention
        assert RecordFile(path).count() == 3  # stops at the bad frame
        with pytest.raises(StorageError, match="unparseable payload"):
            list(RecordFile(path).records(strict=True))

    def test_at_the_tail_is_a_rotted_tail(self, tmp_path):
        path = tmp_path / "j.seed"
        __, bad = self.build(path, at_tail=True)
        report = RecordFile(path).verify()
        assert report.corrupt_ranges == []
        assert report.tail_problem == "unparseable payload"
        assert (report.tail_offset, report.total_bytes) == bad
        assert not report.tail_is_torn and report.needs_attention

    def test_it_merges_with_the_damage_it_touches(self, tmp_path):
        """A flipped record followed by the bad frame is one region with
        the first problem's name, as one eager resync search found it."""
        path = tmp_path / "j.seed"
        __, bad = self.build(path, at_tail=False)
        before = [e for e in RecordFile(path).scan() if e.end == bad[0]][0]
        flip(path, before.offset + 30)
        report = RecordFile(path).verify()
        assert [(r.offset, r.end, r.problem) for r in report.corrupt_ranges] == [
            (before.offset, bad[1], "checksum mismatch")
        ]
        events = list(RecordFile(path).decoded())
        assert [e.offset for e in events[1:]] == [e.end for e in events[:-1]]

    @pytest.mark.parametrize("at_tail", [False, True])
    def test_loads_recover_the_prefix_and_say_so(self, tmp_path, at_tail):
        path = tmp_path / "j.seed"
        self.build(path, at_tail=at_tail)
        with pytest.warns(RecoveryWarning, match="unparseable payload"):
            reopened = JournaledDatabase.open(path)
        with pytest.warns(RecoveryWarning, match="unparseable payload"):
            loaded = load_database(path)
        assert canonical(loaded) == canonical(reopened.db)
        assert reopened.db.find_object("A") is not None
        # replay stops at the corrupt gap: C is stranded behind it
        assert (reopened.db.find_object("C") is None) == (not at_tail)
        assert reopened.recovery.skipped_deltas == (0 if at_tail else 2)
        for load in (JournaledDatabase.open, load_database):
            with pytest.raises(StorageError, match="unparseable payload"):
                load(path, strict=True)

    @pytest.mark.parametrize("at_tail", [False, True])
    def test_fsck_exits_2_and_salvage_quarantines_it(
        self, tmp_path, capsys, at_tail
    ):
        path = tmp_path / "j.seed"
        __, bad = self.build(path, at_tail=at_tail)
        assert main(["fsck", str(path)]) == 2
        assert "unparseable payload" in capsys.readouterr().out
        assert main(["fsck", str(path), "--salvage"]) == 0
        assert f"quarantined {len(NOT_JSON)} byte(s)" in capsys.readouterr().out
        assert main(["fsck", str(path)]) == 0
        (quarantined,) = RecordFile(str(path) + ".corrupt").records()
        assert quarantined["offset"] == bad[0]
        assert quarantined["problem"] == "unparseable payload"
        loaded = load_database(path, strict=True)
        assert loaded.find_object("A") and loaded.find_object("C")

    @pytest.mark.parametrize("at_tail", [False, True])
    def test_compact_drops_it_and_keeps_what_follows(self, tmp_path, at_tail):
        path = tmp_path / "j.seed"
        journal, bad = self.build(path, at_tail=at_tail)
        data = path.read_bytes()
        journal.compact()
        assert path.read_bytes() == data[: bad[0]] + data[bad[1] :]
        reopened = JournaledDatabase.open(path, strict=True)
        assert canonical(reopened.db) == canonical(journal.db)


# ---------------------------------------------------------------------------
# lazy compaction ≡ eager compaction
# ---------------------------------------------------------------------------

def assert_compacts_like_the_reference(journal, *, reopens_to_live):
    path = journal.path
    reference = parent_compaction_bytes(path, live=journal.db)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        journal.compact()
    assert path.read_bytes() == reference
    assert journal.tail_bytes() == len(reference)
    reopened = open_quietly(path)
    if reopens_to_live:
        assert canonical(reopened.db) == canonical(journal.db)
        assert reopened.recovery.clean


CORPORA = ["corpus", "budget_corpus", "change_corpus"]


@pytest.fixture(params=CORPORA)
def corpus_data(request):
    return request.getfixturevalue(request.param).data


class TestCompactionOracle:
    def test_every_corpus_journal(self, corpus_data, tmp_path):
        path = tmp_path / "j.seed"
        path.write_bytes(corpus_data)
        journal = JournaledDatabase.open(path)  # base from RecoveryInfo
        assert_compacts_like_the_reference(journal, reopens_to_live=True)

    @pytest.mark.parametrize("streamed_base", [False, True])
    def test_abort_pairs_strays_and_unknown_records(self, tmp_path, streamed_base):
        builder = change_journal.TestCompactionCopiesFrames()
        journal = builder.build(tmp_path / "j.seed", streamed_base=streamed_base)
        reference = parent_compaction_bytes(journal.path)
        journal.compact()
        assert journal.path.read_bytes() == reference
        assert canonical(open_quietly(journal.path).db) == canonical(journal.db)

    def test_a_base_remembered_from_checkpoint(self, tmp_path):
        journal, __ = crash_matrix.TestCompactionCrash().build(tmp_path / "j.seed")
        assert journal._base.offset > 0  # noqa: SLF001 - set by checkpoint()
        assert_compacts_like_the_reference(journal, reopens_to_live=True)

    def test_sampled_truncations_and_flips(self, corpus_data, tmp_path):
        """Damage before the open: whatever state the load recovered,
        compaction selects the frames the eager search selects."""
        rng = random.Random(18)
        size = len(corpus_data)
        for number in range(40):
            path = tmp_path / f"j{number}.seed"
            offset = rng.randrange(size)
            if number % 2:
                path.write_bytes(corpus_data[:offset])
            else:
                damaged = bytearray(corpus_data)
                damaged[offset] ^= 0xFF
                path.write_bytes(bytes(damaged))
            journal = open_quietly(path, schema=matrix_schema(), name="central")
            assert_compacts_like_the_reference(journal, reopens_to_live=False)

    @pytest.mark.parametrize("reopened", [False, True])
    def test_bit_rot_inside_the_remembered_base(
        self, corpus_data, tmp_path, reopened
    ):
        """The unit rots after it was remembered: it is never kept — the
        eager search finds the previous intact unit, whose tail replays
        to the live state."""
        rng = random.Random(81)
        for number in range(12):
            path = tmp_path / f"j{number}.seed"
            path.write_bytes(corpus_data)
            journal = JournaledDatabase.open(path)
            if not reopened:
                journal.checkpoint(streamed=bool(number % 2))
            base = journal._base  # noqa: SLF001
            flip(path, rng.randrange(base.offset, base.end))
            assert_compacts_like_the_reference(journal, reopens_to_live=True)

    def test_rot_in_the_only_image_checkpoints_the_live_state(self, tmp_path):
        path = tmp_path / "j.seed"
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        commit(journal.db, "A", "a")
        flip(path, 40)
        reference = parent_compaction_bytes(path, live=journal.db)
        with pytest.warns(RecoveryWarning, match="no intact image"):
            journal.compact()
        assert path.read_bytes() == reference
        assert journal.tail_bytes() == len(reference)
        assert canonical(JournaledDatabase.open(path, strict=True).db) == (
            canonical(journal.db)
        )


class TestAKeptImageIsNeverParsed:
    def test_compact_decodes_nothing_larger_than_a_delta(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.seed"
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        for generation in ("Older", "Old"):
            for index in range(30):
                commit(journal.db, f"{generation}{index}", "x" * 50)
            journal.checkpoint()  # two monolithic images of some size
        for index in range(5):
            commit(journal.db, f"New{index}", "y" * 50)
        sizes = {"image": [], "txn": []}
        for event in RecordFile(path).scan():
            sizes[event.record["kind"]].append(event.end - event.offset)
        largest_delta = max(sizes["txn"])
        # the pin can tell the two checkpoints from any delta
        assert sorted(sizes["image"])[-2] > 10 * largest_delta
        decoded = []
        real_loads = json.loads

        def counting_loads(text, **options):
            decoded.append(len(text))
            return real_loads(text, **options)

        monkeypatch.setattr(json, "loads", counting_loads)
        journal.compact()
        monkeypatch.undo()
        assert len(decoded) == 10  # the records after the base, once each
        assert max(decoded) <= largest_delta
        assert canonical(JournaledDatabase.open(path).db) == canonical(journal.db)


# ---------------------------------------------------------------------------
# byte accounting rides on the remembered unit
# ---------------------------------------------------------------------------

class TestTailBytes:
    def check(self, journal):
        base = journal._base  # noqa: SLF001
        assert journal.tail_bytes() == journal.path.stat().st_size - base.offset
        return base

    def test_after_a_streamed_checkpoint(self, tmp_path):
        journal = JournaledDatabase.open(
            tmp_path / "j.seed", schema=matrix_schema(), name="d"
        )
        commit(journal.db, "A", "a")
        before = journal.path.stat().st_size
        journal.checkpoint(streamed=True)
        base = self.check(journal)
        assert (base.offset, base.end) == (before, journal.path.stat().st_size)
        assert base.cp is not None
        commit(journal.db, "B", "b")
        assert self.check(journal) == base  # deltas grow the tail only

    def test_after_the_no_intact_image_fallback(self, tmp_path):
        path = tmp_path / "j.seed"
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        commit(journal.db, "A", "a")
        flip(path, 40)
        with pytest.warns(RecoveryWarning):
            journal.compact()
        base = self.check(journal)
        assert base == (0, path.stat().st_size, None)

    def test_after_opening_a_journal_whose_base_is_not_at_offset_0(
        self, tmp_path
    ):
        path = tmp_path / "j.seed"
        journal = JournaledDatabase.open(path, schema=matrix_schema(), name="d")
        commit(journal.db, "A", "a")
        journal.checkpoint()
        commit(journal.db, "B", "b")
        expected = journal._base  # noqa: SLF001
        reopened = JournaledDatabase.open(path)
        assert self.check(reopened) == expected == reopened.recovery.base
        assert expected.offset > 0
        assert reopened.recovery.base.offset == expected.offset
