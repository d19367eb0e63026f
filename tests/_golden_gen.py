"""Seeded journal histories whose bytes ``tests/golden/`` pins.

Each history drives one journaled figure-3 database through the public
API (a server's lease clock pinned), so the same build writes the same
bytes every time. ``tests/test_golden_journals.py`` re-runs every
history and compares the bytes with the committed file (the writer
test), and loads every committed file through each reader (the reader
test). The files of :data:`READER_ONLY` have no history here: no
writer of this build makes their records any more, so only the reader
test reads them.

Write the file of a new history (a deliberate format change adds a new
generation beside the old files; it never rewrites one)::

    PYTHONPATH=src python tests/_golden_gen.py [NAME ...]

Without names it writes every history whose ``tests/golden/NAME.seed``
does not exist yet and leaves every existing file as it is; a name
given on the command line is written even when its file exists. Each
written history gives ``tests/golden/NAME.seed`` and, next to it,
``tests/golden/NAME.json``: the SHA-256 of the canonical image the
journal loads to and the counts of its ``RecoveryInfo``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable

from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import RecoveryWarning
from repro.core.storage import JournaledDatabase, RecordFile, database_to_dict
from repro.core.values import INTEGER, STRING
from repro.core.versions.compaction import RetentionPolicy
from repro.core.versions.version_id import VersionId
from repro.multiuser import SeedServer

GOLDEN = Path(__file__).resolve().parent / "golden"

#: ``RecoveryInfo`` fields a reader test compares (the base's ``cp``
#: and the scan's intact record count come beside them)
RECOVERY_COUNTS = (
    "applied_deltas",
    "applied_txn_deltas",
    "applied_change_deltas",
    "aborted_deltas",
    "skipped_deltas",
    "recovered_records",
    "unknown_records",
)


def _clock() -> float:
    """The pinned server clock: session and lock leases never expire."""
    return 0.0


def open_journal(path: Path) -> JournaledDatabase:
    """A fresh journal at *path*."""
    return JournaledDatabase.open(path, schema=figure3_schema(), name=path.stem)


def image_sha256(db: SeedDatabase) -> str:
    """The SHA-256 of *db*'s canonical image."""
    return hashlib.sha256(RecordFile.encode(database_to_dict(db))).hexdigest()


def recovery_counts(journal: JournaledDatabase) -> dict:
    """What a reader test compares of a loaded journal's recovery."""
    info = journal.recovery
    counts = {name: getattr(info, name) for name in RECOVERY_COUNTS}
    counts["intact_records"] = info.report.intact_records
    counts["base_cp"] = info.base.cp if info.base is not None else None
    return counts


# -- the edits the histories are made of ---------------------------------------


def _populate(db: SeedDatabase, rng: random.Random, count: int) -> None:
    """*count* actions with a description and data they access."""
    for index in range(count):
        action = db.create_object("Action", f"A{index}")
        action.add_sub_object("Description", f"performs A{index}")
        data = db.create_object(rng.choice(["Data", "InputData"]), f"D{index}")
        db.relate("Access", {"data": data, "by": action})


def _edit(db: SeedDatabase, rng: random.Random, round_: int, count: int) -> None:
    """One transaction of *count* seeded edits."""
    actions = [obj for obj in db.objects("Action") if obj.parent is None]
    data = [obj for obj in db.objects("Data") if obj.parent is None]
    with db.transaction():
        for index in range(count):
            roll = rng.random()
            if roll < 0.5:
                described = rng.choice(actions).sub_objects("Description")
                db.set_value(described[0], f"round {round_}.{index}")
            elif roll < 0.7:
                db.rename(rng.choice(data), f"R{round_}x{index}")
            elif roll < 0.85:
                db.relate("Access", {"data": rng.choice(data), "by": rng.choice(actions)})
            else:
                db.create_object("Data", f"N{round_}x{index}")


# -- the histories -----------------------------------------------------------


def txn_history(path: Path) -> JournaledDatabase:
    """``txn`` records: commits, and a rolled-back unit that writes none."""
    rng = random.Random(1)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 6)
    for round_ in range(4):
        _edit(db, rng, round_, 3)
    try:
        with db.transaction():
            db.rename(db.get_object("A0"), "Gone")
            raise RuntimeError("abandon the transaction")
    except RuntimeError:
        pass
    db.delete(db.get_object("D1"))
    return journal


def version_history(path: Path) -> JournaledDatabase:
    """``version`` records on a line and a branch (``restore`` too)."""
    rng = random.Random(2)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 6)
    first = db.create_version()
    for round_ in range(3):
        _edit(db, rng, round_, 3)
        db.create_version()
    db.select_version(first)
    _edit(db, rng, 9, 2)
    db.create_version()
    return journal


def compact_history(path: Path) -> JournaledDatabase:
    """``compact`` records, each followed by a checkpoint of both kinds.

    The first pass folds the one-entry baseline (every cell holds one
    entry at 1.0) into its child; a cell with an entry at the pinned
    2.0 and one at 3.0 is relabeled by the fold of 3.0 into 4.0; a
    collected tombstone drops a cell. The second pass consolidates
    snapshots as well."""
    rng = random.Random(3)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 5)
    db.create_version()  # 1.0, the baseline
    db.delete(db.get_object("D2"))
    _edit(db, rng, 0, 3)
    pinned = db.create_version()  # 2.0
    for round_ in range(1, 4):
        _edit(db, rng, round_, 3)
        db.create_version()
    db.compact(RetentionPolicy(
        squash_chains=True, keep_last=1, pins=frozenset({pinned}), gc_tombstones=True,
    ))
    journal.checkpoint()
    journal.checkpoint(streamed=True)
    for round_ in range(4, 7):
        _edit(db, rng, round_, 3)
        db.create_version()
    db.compact(RetentionPolicy(
        squash_chains=True, snapshot_interval=2, keep_last=2, gc_tombstones=True,
    ))
    journal.checkpoint(streamed=True)
    _edit(db, rng, 7, 2)
    return journal


def image_history(path: Path) -> JournaledDatabase:
    """Monolithic ``image`` records, with deltas between and after."""
    rng = random.Random(4)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 6)
    db.create_version()
    journal.checkpoint()
    _edit(db, rng, 0, 4)
    db.create_version()
    journal.checkpoint()
    _edit(db, rng, 1, 2)
    return journal


def streamed_history(path: Path) -> JournaledDatabase:
    """Streamed ``image.begin``/``image.rec``/``image.end`` groups."""
    rng = random.Random(5)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 6)
    db.create_version()
    journal.checkpoint(streamed=True)
    _edit(db, rng, 0, 4)
    db.create_version()
    journal.checkpoint(streamed=True)
    _edit(db, rng, 1, 2)
    return journal


def maintain_history(path: Path) -> JournaledDatabase:
    """A journaled server: ``checkin`` records, each check-in published,
    server maintenance every 8 check-ins, one ``delete_version``, then a
    checkpoint of both kinds.

    Every maintenance pass folds the baseline version (the ingest) into
    its child again: the baseline carrier is never pinned. Check-ins
    edit descriptions, create data objects and delete earlier ones, so
    the passes also collect tombstones. After the 20th check-in the
    master is rebased on the version before the newest, the next
    check-in branches there, and the abandoned leaf is deleted."""
    rng = random.Random(6)
    server = SeedServer(journal=open_journal(path), clock=_clock)
    master = server.master
    with master.bulk():
        _populate(master, rng, 3)
    server.publish_snapshot()
    client = server.connect("writer")
    created: list[str] = []
    for number in range(24):
        if number == 20:
            leaf = server.latest_snapshot()
            master.select_version(master.versions.tree.parent(leaf))
        action = f"A{rng.randrange(3)}"
        doomed = created.pop(0) if created and rng.random() < 0.4 else None
        local = client.check_out(action, *([doomed] if doomed else []))
        local.set_value(local.get_object(f"{action}.Description"), f"check-in {number}")
        if doomed:
            local.delete(local.get_object(doomed))
        if rng.random() < 0.6:
            created.append(f"N{number}")
            local.create_object("Data", created[-1])
        client.check_in()
        server.publish_snapshot()
        if number == 20:
            master.delete_version(leaf)
        if number % 8 == 7:
            server.maintain()
    server.disconnect("writer")
    server.checkpoint()
    server.journal.checkpoint(streamed=True)
    return server.journal


def relabel_history(path: Path) -> JournaledDatabase:
    """Folds that move cell entries between versions, then a checkpoint
    of both kinds; no join runs between the first fold and the save
    point.

    The baseline 1.0 holds 265 keys. The first pass moves the small
    2.0 into 3.0 and renames the baseline's delta 3.0. The squashed
    label 1.0 is then taken by a new child of 3.0, and 2.0 by its
    child. The second pass (1.0 pinned) renames the baseline's delta
    1.0, which reorders a cell with an entry at 2.0 and none at 1.0;
    the third renames it 5.0 and moves the small 2.0 into 5.0. The
    fourth folds the baseline into 6.0, which deletes its 240 bulk
    objects, and tombstone collection drops them, so the save point (a
    monolithic image, the file compacted to it) and the streamed
    checkpoint after it stay small."""
    rng = random.Random(7)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 6)
        bulk = [db.create_object("Data", f"B{index}") for index in range(240)]
    db.create_version()  # 1.0, the baseline
    for round_ in range(2):
        _edit(db, rng, round_, 2 + round_)
        db.create_version()  # 2.0, 3.0
    db.compact(RetentionPolicy(squash_chains=True, keep_last=1))
    _edit(db, rng, 2, 3)
    db.create_version("1.0")
    _edit(db, rng, 3, 3)
    db.create_version()  # 2.0
    db.compact(RetentionPolicy(
        squash_chains=True, keep_last=1, pins=frozenset({VersionId.parse("1.0")}),
    ))
    _edit(db, rng, 4, 2)
    db.create_version("5.0")
    db.compact(RetentionPolicy(squash_chains=True, keep_last=1))
    with db.transaction():
        for obj in bulk:
            db.delete(obj)
    db.create_version()  # 6.0
    db.compact(RetentionPolicy(squash_chains=True, keep_last=1, gc_tombstones=True))
    journal.save_point()
    _edit(db, rng, 5, 3)
    db.create_version()
    journal.checkpoint(streamed=True)
    _edit(db, rng, 6, 2)
    return journal


def raw_restore_history(path: Path) -> JournaledDatabase:
    """A raw ``restore`` record: the routine its replay runs,
    ``SeedDatabase._restore`` with no base, brings back the first
    version's items and leaves the version base where it is
    (``"base": null``), so the edits after it and their version extend
    the newest version, not the restored one. No product operation
    writes such a record any more; the reader replays it forever."""
    rng = random.Random(8)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 6)
    first = db.create_version()  # 1.0
    for round_ in range(2):
        _edit(db, rng, round_, 3)
        db.create_version()  # 2.0, 3.0
    db._restore(*db.version_view(first).states())  # noqa: SLF001
    _edit(db, rng, 2, 3)
    db.create_version()  # 4.0, a child of 3.0
    _edit(db, rng, 3, 2)
    return journal


def unknown_kind_history(path: Path) -> JournaledDatabase:
    """A record of a kind this build does not know (as a newer build
    would write one) between deltas: a load skips and counts it and
    replays the deltas on both sides."""
    rng = random.Random(9)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 5)
    _edit(db, rng, 0, 3)
    db.create_version()
    newer = RecordFile(path)
    newer.append({"kind": "replica.hint", "note": "written by a newer build"})
    newer.close()
    for round_ in range(1, 3):
        _edit(db, rng, round_, 3)
    db.create_version()
    return journal


def schema_history(path: Path) -> JournaledDatabase:
    """``schema`` records: a schema migration between edits and
    versions, a save point (its image holds both schema versions), then
    a second migration, with edits of the new dependents after each."""
    rng = random.Random(11)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 5)
    db.create_version()
    _edit(db, rng, 0, 3)
    noted = db.schema.copy("noted")
    noted.entity_class("Data").add_dependent("Note", "0..1", value_sort=STRING)
    db.migrate_schema(noted)
    db.get_object("D0").add_sub_object("Note", "after the first migration")
    _edit(db, rng, 1, 3)
    db.create_version()
    journal.save_point()
    _edit(db, rng, 2, 3)
    ranked = db.schema.copy("ranked")
    ranked.entity_class("Action").add_dependent("Rank", "0..1", value_sort=INTEGER)
    db.migrate_schema(ranked)
    db.get_object("A1").add_sub_object("Rank", 1)
    db.create_version()
    _edit(db, rng, 3, 2)
    return journal


def torn_tail_history(path: Path) -> JournaledDatabase:
    """A crash mid-append: the last ``txn`` frame is cut half-way. Every
    commit before it recovers, silently; ``JournaledDatabase.open``
    cuts the torn bytes before it appends."""
    rng = random.Random(12)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 5)
    db.create_version()
    for round_ in range(3):
        _edit(db, rng, round_, 3)
    journal.close()
    last = list(RecordFile(path).scan())[-1]
    with path.open("r+b") as file:
        file.truncate((last.offset + last.end) // 2)
    return journal


def flipped_byte_history(path: Path) -> JournaledDatabase:
    """Bit rot after the base: one byte flipped inside the second
    ``txn`` frame after a checkpoint. A load replays the base and the
    delta before the damage, stops there and surfaces it;
    ``JournaledDatabase.open`` checkpoints what it recovered behind the
    damaged bytes and leaves them for ``repro fsck --salvage``."""
    rng = random.Random(13)
    journal = open_journal(path)
    db = journal.db
    with db.transaction():
        _populate(db, rng, 5)
    db.create_version()
    journal.checkpoint()
    for round_ in range(3):
        _edit(db, rng, round_, 3)
    journal.close()
    frames = list(RecordFile(path).scan())
    base = max(i for i, frame in enumerate(frames) if frame.record["kind"] == "image")
    hit = frames[base + 2]
    data = bytearray(path.read_bytes())
    data[(hit.offset + hit.end) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return journal


HISTORIES: dict[str, Callable[[Path], JournaledDatabase]] = {
    "txn": txn_history,
    "version": version_history,
    "compact": compact_history,
    "image": image_history,
    "streamed": streamed_history,
    "maintain": maintain_history,
    "relabel": relabel_history,
    "raw_restore": raw_restore_history,
    "unknown_kind": unknown_kind_history,
    "schema": schema_history,
    "torn_tail": torn_tail_history,
    "flipped_byte": flipped_byte_history,
}

#: committed files that no history of this build writes: name -> the
#: build that wrote it and what its history did
READER_ONLY: dict[str, str] = {
    "materialized_version": (
        "Written at commit b84c252, the last build that consolidated "
        "snapshots inside create_version, with the version manager's "
        "online policy set to RetentionPolicy(snapshot_interval=2) and "
        "the helpers of this module. Seed 10: 5 populated "
        "actions, 1.0; edits, 2.0 (an online snapshot); edits of items "
        "materialized at 2.0, 3.0; a save point (its image holds the "
        "materialized entries); edits, 4.0 (an online snapshot: its "
        "version record carries 19 cells marked materialized and "
        "snapshot true); edits of items materialized at 4.0, 5.0; an "
        "unsaved transaction."
    ),
}


def write(name: str, directory: Path) -> dict:
    """Run history *name* into ``directory/NAME.seed``; returns its
    expectation (what ``NAME.json`` holds)."""
    path = directory / f"{name}.seed"
    path.unlink(missing_ok=True)
    journal = HISTORIES[name](path)
    journal.close()
    with tempfile.TemporaryDirectory() as scratch:
        # an open may cut or append: it reads a copy
        copy = Path(scratch) / path.name
        shutil.copyfile(path, copy)
        with warnings.catch_warnings():
            # unknown kinds and damage are surfaced on every load
            warnings.simplefilter("ignore", RecoveryWarning)
            reopened = JournaledDatabase.open(copy)
        expected = {
            "image_sha256": image_sha256(reopened.db),
            "recovery": recovery_counts(reopened),
        }
        reopened.close()
    return expected


def main(names: list[str], directory: Path = GOLDEN) -> None:
    """Write the files of the histories *names*, or of every history
    whose file does not exist in *directory* yet."""
    unknown = [name for name in names if name not in HISTORIES]
    if unknown:
        raise SystemExit(f"no history writes {', '.join(unknown)}")
    directory.mkdir(exist_ok=True)
    for name in names or HISTORIES:
        if not names and (directory / f"{name}.seed").exists():
            continue
        expected = write(name, directory)
        (directory / f"{name}.json").write_text(json.dumps(expected, indent=2) + "\n")
        size = (directory / f"{name}.seed").stat().st_size
        print(f"{name}.seed: {size} bytes, image {expected['image_sha256'][:12]}")


if __name__ == "__main__":
    main(sys.argv[1:])
