"""Committed journals pin the on-disk format across builds.

Every other journal the tests read was written at test time by the same
build that reads it, so a change to the writer and the reader together
passes them. The files under ``tests/golden/`` were written once, by
the histories of ``tests/_golden_gen.py``, and are never rewritten:

* **reader test** — each committed file loads, through
  :func:`load_database`, :meth:`JournaledDatabase.open` and
  :meth:`SeedServer.open` (both on a copy: an open may append), to the
  canonical image whose SHA-256 sits next to it, with the committed
  ``RecoveryInfo`` counts: strictly, unless the file holds a record of
  an unknown kind, which a load must surface as a warning;
* **writer test** — re-running each history with this build writes
  the committed bytes, byte for byte;
* **damage tests** — ``torn_tail`` ends in a half-written frame and
  ``flipped_byte`` holds one flipped byte in a delta after the base.
  Opened to go on writing (a journal, a server), the torn copy loses
  exactly its torn bytes and a commit after the open survives a
  reopen; the flipped copy recovers the committed image and keeps the
  damaged bytes, which ``repro fsck --salvage`` then removes.

A change that alters on-disk bytes on purpose adds a new generation of
files beside these and keeps them as reader fixtures. A file whose
records no writer of this build makes any more (``READER_ONLY`` in
``tests/_golden_gen.py``) has no history: only the reader test and the
save-point test read it.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager

import pytest

import _golden_gen
from _golden_gen import GOLDEN, HISTORIES, READER_ONLY, image_sha256, recovery_counts
from repro.cli import main as cli_main
from repro.core.errors import RecoveryWarning
from repro.core.storage import JournaledDatabase, RecordFile, load_database
from repro.multiuser import SeedServer

#: the files the histories of this build write
WRITTEN = sorted(HISTORIES)
#: every committed file
NAMES = sorted([*HISTORIES, *READER_ONLY])


def expected(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


@contextmanager
def surfaced(name: str):
    """Expect the load inside to surface file *name*'s unknown records
    or the deltas its damage cost (as a :class:`RecoveryWarning`), or
    nothing; yields the keyword arguments the load takes: strict for a
    file with nothing to surface (a torn tail is ordinary crash
    recovery, so it surfaces nothing)."""
    recovery = expected(name)["recovery"]
    if recovery["unknown_records"]:
        match = "unknown kind"
    elif recovery["skipped_deltas"]:
        match = "past corruption"
    else:
        yield {"strict": True}
        return
    with pytest.warns(RecoveryWarning, match=match):
        yield {}


def test_every_history_has_a_small_committed_file():
    assert not HISTORIES.keys() & READER_ONLY.keys()
    files = sorted(path.stem for path in GOLDEN.glob("*.seed"))
    assert files == NAMES
    sizes = [(GOLDEN / f"{name}.seed").stat().st_size for name in NAMES]
    assert max(sizes) <= 64 * 1024
    assert sum(sizes) <= 512 * 1024
    for name in NAMES:
        assert set(expected(name)) == {"image_sha256", "recovery"}


@pytest.mark.parametrize("name", NAMES)
def test_load_database_reads_the_committed_image(name):
    with surfaced(name) as how:
        db = load_database(GOLDEN / f"{name}.seed", **how)
    assert image_sha256(db) == expected(name)["image_sha256"]


@pytest.mark.parametrize("name", NAMES)
def test_a_journal_opens_the_committed_file(name, tmp_path):
    copy = tmp_path / f"{name}.seed"
    shutil.copyfile(GOLDEN / f"{name}.seed", copy)
    with surfaced(name) as how:
        journal = JournaledDatabase.open(copy, **how)
    try:
        assert image_sha256(journal.db) == expected(name)["image_sha256"]
        assert recovery_counts(journal) == expected(name)["recovery"]
    finally:
        journal.close()


@pytest.mark.parametrize("name", NAMES)
def test_a_server_opens_the_committed_file(name, tmp_path):
    copy = tmp_path / f"{name}.seed"
    shutil.copyfile(GOLDEN / f"{name}.seed", copy)
    with surfaced(name) as how:
        server = SeedServer.open(copy, **how)
    try:
        assert image_sha256(server.journal.db) == expected(name)["image_sha256"]
        assert recovery_counts(server.journal) == expected(name)["recovery"]
    finally:
        server.journal.close()


@pytest.mark.parametrize("name", NAMES)
def test_a_save_point_keeps_the_committed_image(name, tmp_path):
    copy = tmp_path / f"{name}.seed"
    shutil.copyfile(GOLDEN / f"{name}.seed", copy)
    with surfaced(name) as how:
        journal = JournaledDatabase.open(copy, **how)
    journal.save_point()
    journal.close()
    reopened = JournaledDatabase.open(copy, strict=True)
    try:
        assert image_sha256(reopened.db) == expected(name)["image_sha256"]
    finally:
        reopened.close()


#: the two ways a program opens a journal to go on writing
OPENERS = {
    "journal": JournaledDatabase.open,
    "server": lambda path: SeedServer.open(path).journal,
}


@pytest.mark.parametrize("opener", OPENERS)
def test_open_cuts_a_torn_tail_and_a_later_commit_survives(opener, tmp_path):
    copy = tmp_path / "torn_tail.seed"
    shutil.copyfile(GOLDEN / "torn_tail.seed", copy)
    torn = copy.read_bytes()
    intact_end = [e for e in RecordFile(copy).scan() if e.kind == "record"][-1].end
    assert intact_end < len(torn)
    journal = OPENERS[opener](copy)
    try:
        # only the torn bytes go, before anything is appended
        assert copy.read_bytes() == torn[:intact_end]
        assert image_sha256(journal.db) == expected("torn_tail")["image_sha256"]
        journal.db.create_object("Data", "AfterTheCut")
    finally:
        journal.close()
    reopened = JournaledDatabase.open(copy, strict=True)
    try:
        assert reopened.db.find_object("AfterTheCut") is not None
    finally:
        reopened.close()


@pytest.mark.parametrize("opener", OPENERS)
def test_open_steps_over_a_flipped_byte_and_leaves_it_for_salvage(opener, tmp_path):
    copy = tmp_path / "flipped_byte.seed"
    shutil.copyfile(GOLDEN / "flipped_byte.seed", copy)
    damaged = copy.read_bytes()
    with pytest.warns(RecoveryWarning, match="past corruption"):
        journal = OPENERS[opener](copy)
    try:
        assert image_sha256(journal.db) == expected("flipped_byte")["image_sha256"]
        # the recovered state is checkpointed behind the damaged bytes
        assert copy.read_bytes().startswith(damaged)
        journal.db.create_object("Data", "AfterTheDamage")
    finally:
        journal.close()
    assert cli_main(["fsck", str(copy)]) == 2
    assert cli_main(["fsck", str(copy), "--salvage"]) == 0
    reopened = JournaledDatabase.open(copy, strict=True)
    try:
        assert reopened.db.find_object("AfterTheDamage") is not None
    finally:
        reopened.close()


@pytest.mark.parametrize("name", WRITTEN)
def test_the_history_writes_the_committed_bytes(name, tmp_path):
    path = tmp_path / f"{name}.seed"
    HISTORIES[name](path).close()
    assert path.read_bytes() == (GOLDEN / f"{name}.seed").read_bytes()


def test_the_generator_writes_only_missing_or_named_files(tmp_path, monkeypatch):
    monkeypatch.setattr(_golden_gen, "HISTORIES", {
        name: HISTORIES[name] for name in ("txn", "version")
    })
    kept = tmp_path / "txn.seed"
    kept.write_bytes(b"an existing file")
    _golden_gen.main([], tmp_path)
    assert kept.read_bytes() == b"an existing file"
    assert not (tmp_path / "txn.json").exists()
    assert (tmp_path / "version.seed").read_bytes() == (GOLDEN / "version.seed").read_bytes()
    assert json.loads((tmp_path / "version.json").read_text()) == expected("version")
    _golden_gen.main(["txn"], tmp_path)
    assert kept.read_bytes() == (GOLDEN / "txn.seed").read_bytes()
    with pytest.raises(SystemExit, match="materialized_version"):
        _golden_gen.main(["materialized_version"], tmp_path)
