"""The storage engine: database images, write-ahead deltas, recovery.

**Every committed mutation is a journaled delta.** A
:class:`JournaledDatabase` binds the database's change-capture seam
(``SeedDatabase._change_sink``) and appends one write-ahead record per
committed mutation, whatever its shape. The record kinds, composable
in one journal file:

* **images** — ``{"kind": "image", "image": ...}``: one complete
  database image (the canonical dict of
  :mod:`repro.core.storage.serialize`), appended by
  :meth:`JournaledDatabase.checkpoint` and written/read whole by
  :func:`save_database` / :func:`load_database`. No writer rebuilds
  that dict: each joins the image from one encoded JSON
  fragment per object, relationship and version-store cell
  (:class:`~repro.core.storage.serialize.ImageFragments`), which
  :func:`save_database` encodes afresh and the journal keeps. A state is
  encoded once, when it is journaled: the fragment is *filled* where a
  record encodes the state — every item a ``txn`` record carries, with
  its id spliced into the state kernel's bytes, and every cell a
  ``version`` record opens — and *dropped* elsewhere state is written:
  every key a unit of work touched (committed or rolled back, check-in
  applies included), every item ``wire_item_states`` thawed (replay),
  every cell a :class:`~repro.core.versions.store.VersionStore` writer
  changed (a cell that gains a second entry, compaction), all live
  items on a ``restore`` or ``schema`` event. A checkpoint joins the
  kept fragments with a freshly encoded header, re-encoding only the
  dropped ones. The payload equals ``RecordFile.encode`` of the
  :func:`~repro.core.storage.serialize.database_to_dict` record byte
  for byte; that from-scratch encode stays as the oracle. A *streamed*
  checkpoint instead appends a counted group —
  ``{"kind": "image.begin", "cp": k}``, one ``{"kind": "image.rec",
  "cp": k, "rec": ...}`` per streamed image record, ``{"kind":
  "image.end", "cp": k, "n": count}`` — one frame at a time, joined
  from the same fragments; ``RecordFile.encode`` of the group built
  from :func:`~repro.core.storage.serialize.iter_image_records` is its
  oracle. Only a *complete* group (matching ``cp`` and count) counts
  as an image; a crash mid-stream leaves an incomplete group that
  recovery ignores, exactly like a torn monolithic append;
* **check-in deltas** — ``{"kind": "checkin", "seq": n, "delta": ...}``
  appended by :meth:`JournaledDatabase.append_delta` *before* the
  master applies a multi-user check-in (write-ahead); a failed apply
  is neutralized by ``{"kind": "checkin.abort", "seq": n}``;
* **transaction deltas** — ``{"kind": "txn", "seq": n, "delta": ...}``
  for every committed *direct* transaction (anything outside a
  check-in apply, whose commits the check-in delta already covers);
  rollbacks append nothing;
* **mutation deltas** — the non-transactional mutators journal
  through the same seam: ``{"kind": "schema", ...}`` (a completed
  ``migrate_schema``: the serialized new schema + migration stats),
  ``{"kind": "restore", ...}`` (a completed ``restore_from_view``:
  the restored view delta), ``{"kind": "version", ...}`` (a completed
  ``create_version``: the snapshot's recorded cells). Each appends
  exactly one record before control returns, so these operations are
  durable with **zero** checkpoints.

Recovery contract (shared by :func:`load_database` and
:meth:`JournaledDatabase.open`, built on the salvage scan of
:class:`~repro.core.storage.recordfile.RecordFile`):

1. The **base** is the newest *complete* image anywhere in the file —
   a monolithic image record or a complete streamed group, both loaded
   as one record stream by the one image decoder
   (:func:`~repro.core.storage.serialize.database_from_records`). The
   scan resynchronizes past corrupt regions, so corruption cannot
   shadow a newer intact checkpoint; an incomplete streamed group is
   never a base.
2. Deltas *after* the base replay in file order: check-in deltas each
   in their own transaction, skipping aborted seqs (a live abort whose
   marker was lost re-fails deterministically); txn deltas as direct
   state upserts of their committed after-states (``thaw``-based, via
   :func:`repro.core.bulk.wire_item_states` — as is the base load and
   restore replay); schema, restore, and version deltas through their
   :mod:`~repro.core.storage.serialize` appliers, interleaved exactly
   where they committed.
3. Replay stops at the first corrupt region after the base: deltas
   beyond a gap may depend on the lost record, so applying them could
   not be prefix-consistent. They are counted, not applied.
4. A record of an **unknown kind** (a journal written by a newer
   build) is skipped, counted, and surfaced — degrade gracefully, but
   never silently.
5. The result is always a **prefix-consistent committed state**, and
   any mid-journal corruption, rotted tail, skipped delta, or unknown
   record is surfaced via :class:`~repro.core.errors.RecoveryWarning`
   (or raised, with ``strict=True``). A *torn tail* (the clean prefix
   an interrupted append leaves) stays silent: that is ordinary crash
   recovery, not data loss.
6. :meth:`JournaledDatabase.open` — the one loader that goes on to
   append — never appends behind damage a load stops at, so a commit
   acknowledged after a damaged open survives the next reopen (and a
   compaction). It truncates a torn tail to the end of the last intact
   frame (fsync'd), and after a corrupt region past the base (or a
   rotted tail) it checkpoints the recovered state before returning —
   a fresh base past the damage, which stays in the file for
   ``repro fsck --salvage`` to quarantine. :func:`load_database` and
   ``repro fsck`` stay read-only, and a ``strict=True`` open that
   raises writes nothing.

**Group commit.** By default every committed transaction is its own
fsync'd append — the strict PR 9 contract. Opting in to a
:class:`GroupCommitPolicy` batches encoded txn records in memory and
appends each batch with one fsync, bounding the durability window by
``max_txns`` / ``max_bytes`` / ``max_delay_s`` (checked at each
commit against an injectable monotonic clock). Every consistency
point is a **hard flush barrier**: check-in appends, checkpoints,
compaction, budget enforcement, snapshot pins, and service shutdown
drain the buffer first, so a crash can only lose the last
partial batch of *direct* commits — never a check-in, never anything
after a barrier. The strict default is opt-out, not weakened.

The journal is self-bounding. :class:`JournaledDatabase` remembers
its **base unit** — the byte range (and streamed-group id) of the
newest image, as :meth:`~JournaledDatabase.checkpoint` appended it or
:meth:`~JournaledDatabase.open` found it: bytes before it are
superseded (a load never replays them), everything from it on is the
live tail. A ``byte_budget`` (set on the journal and nowhere else) is
checked against that on every append. When total file
size exceeds the budget, the journal auto-compacts — first appending a
fresh checkpoint if the live tail alone exceeds the budget, so the
rewrite actually shrinks the file. The trigger points are post-commit
(after a record's effects are already applied in memory) and explicit
maintenance (:meth:`~JournaledDatabase.enforce_budget`) — never inside
:meth:`~JournaledDatabase.append_delta`, where a checkpoint would
supersede a write-ahead record whose apply has not happened yet.
Compaction copies frames: it hands
:meth:`~repro.core.storage.recordfile.RecordFile.rewrite` the byte
ranges of the records it keeps and never re-encodes one — and it
decodes only what it must judge. Its scan validates framing (length,
CRC, terminator); when intact frames cover the remembered base unit
exactly, that unit is kept by range unparsed, nothing before it is
looked at, and only the records after it (small deltas, abort markers,
stray group parts) are decoded. A base that no longer passes its CRC
is never kept: compaction then decodes every record and searches for
the newest complete unit, as every load does. Its crash
safety rides on that rewrite's atomic temp-and-rename (exercised via
the ``journal.compact.rewrite`` failpoint): a crash mid-compaction
leaves either the old file or the new one, both of which recover the
same committed state.

A full write-ahead log of individual updates would exceed the paper
("SEED does not keep a log of every database update"); the checkpoint
journal with per-mutation deltas matches its session-oriented saving
style while making every committed change durable at O(change).
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.core import faults
from repro.core.database import SeedDatabase
from repro.core.errors import RecoveryWarning, SeedError, StorageError
from repro.core.schema.attached import ProcedureRegistry
from repro.core.storage.recordfile import IntegrityReport, RecordFile
from repro.core.storage.serialize import (
    ImageFragments,
    apply_restore_delta,
    apply_schema_delta,
    apply_txn_delta,
    apply_version_delta,
    _image_dict_records,
    database_from_records,
    restore_delta_from_db,
    schema_delta_from_migration,
    txn_delta_from_txn,
    version_delta_from_db,
)

__all__ = [
    "save_database",
    "load_database",
    "GroupCommitPolicy",
    "JournaledDatabase",
    "BaseUnit",
    "RecoveryInfo",
    "KNOWN_RECORD_KINDS",
]

#: record kinds the replay window treats as deltas (anything of these
#: kinds stranded past a corrupt gap counts as skipped)
_DELTA_KINDS = ("checkin", "txn", "schema", "restore", "version")
#: every record kind this build understands; anything else in the
#: replay window is an unknown-future-kind record (skip + surface)
KNOWN_RECORD_KINDS = frozenset(
    {
        "image",
        "image.begin",
        "image.rec",
        "image.end",
        "checkin",
        "checkin.abort",
        "txn",
        "schema",
        "restore",
        "version",
    }
)


@dataclass(frozen=True)
class GroupCommitPolicy:
    """Bounds for batching direct-transaction journal appends.

    With a policy installed, committed ``txn`` records are buffered in
    memory and appended with **one fsync per batch** instead of one per
    commit. A buffered commit is applied in memory but not yet durable:
    the policy bounds that window — a batch flushes when it reaches
    ``max_txns`` records, ``max_bytes`` of encoded payload, or when
    ``max_delay_s`` has elapsed since the first buffered commit
    (checked at each commit against the journal's monotonic clock; no
    background timer thread — an idle journal flushes at the next
    commit or barrier). Check-in appends, checkpoints, compaction,
    budget enforcement, and explicit :meth:`JournaledDatabase.flush`
    are hard barriers that drain the buffer first, so only the last
    partial batch of direct commits can ever be lost to a crash.
    """

    #: flush after this many buffered commits
    max_txns: int = 8
    #: flush once the encoded batch reaches this many bytes
    max_bytes: int = 64 * 1024
    #: flush once the oldest buffered commit is this old (seconds)
    max_delay_s: float = 0.05


class BaseUnit(NamedTuple):
    """Where a journal's base image unit sits: one monolithic ``image``
    frame, or the contiguous frames of one complete streamed group."""

    offset: int
    end: int
    #: the streamed group's id; None for a monolithic image
    cp: Optional[int]


def _delta_record(kind: str, seq: int, delta: bytes) -> bytes:
    """``RecordFile.encode({"kind": kind, "seq": seq, "delta": ...})``
    for a delta that is already encoded."""
    return b'{"delta":%b,"kind":%b,"seq":%d}' % (delta, RecordFile.encode(kind), seq)


def _holds(events: list, base: BaseUnit) -> bool:
    """True when intact frames among scan *events* tile *base* exactly.

    Framing only: a remembered unit that passes is the bytes that were
    written (every frame's CRC holds), so nobody has to decode it.
    """
    unit = [e for e in events if base.offset <= e.offset < base.end]
    return (
        bool(unit)
        and unit[0].offset == base.offset
        and unit[-1].end == base.end
        and all(e.kind == "record" for e in unit)
    )


def _image_units(record_events: list) -> list[dict]:
    """Find every complete image unit among *record_events*.

    A unit is either a monolithic ``image`` record or a complete
    streamed checkpoint group (``image.begin`` .. ``image.end`` with a
    matching ``cp`` id and part count). Returns dicts with ``start`` /
    ``end`` byte offsets, ``start_index`` into *record_events*, the
    group's ``cp`` id (None for a monolithic image), and ``records`` —
    the unit as one image-record stream for
    :func:`~repro.core.storage.serialize.database_from_records`,
    whichever way it was written. Incomplete groups — a crash
    mid-stream, or corruption that ate a part or endpoint — yield no
    unit, exactly like a torn monolithic append.
    """
    units: list[dict] = []
    pending: dict[Any, dict] = {}
    for index, event in enumerate(record_events):
        record = event.record
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        if kind == "image":
            units.append(
                {
                    "start": event.offset,
                    "end": event.end,
                    "start_index": index,
                    "records": _image_dict_records(record.get("image")),
                    "cp": None,
                }
            )
        elif kind == "image.begin":
            pending[record.get("cp")] = {
                "start": event.offset,
                "start_index": index,
                "parts": [],
            }
        elif kind == "image.rec":
            group = pending.get(record.get("cp"))
            if group is not None:
                group["parts"].append(record.get("rec"))
        elif kind == "image.end":
            group = pending.pop(record.get("cp"), None)
            if group is not None and record.get("n") == len(group["parts"]):
                units.append(
                    {
                        "start": group["start"],
                        "end": event.end,
                        "start_index": group["start_index"],
                        "records": group["parts"],
                        "cp": record.get("cp"),
                    }
                )
    return units


@dataclass
class RecoveryInfo:
    """What a journal load found and did (attached to the loaded db)."""

    report: IntegrityReport
    #: the image unit the load started from, None when no image survived
    base: Optional[BaseUnit] = None
    #: check-in deltas replayed successfully after the base image
    applied_deltas: int = 0
    #: direct-transaction deltas replayed successfully after the base
    applied_txn_deltas: int = 0
    #: schema/restore/version mutation deltas replayed after the base
    applied_change_deltas: int = 0
    #: deltas skipped via abort markers or deterministic re-failure
    aborted_deltas: int = 0
    #: deltas (any kind in ``_DELTA_KINDS``) after the first post-base
    #: corrupt region (not applied)
    skipped_deltas: int = 0
    #: intact records found *after* a corrupt region (would have been
    #: lost by a stop-at-first-error scan — the pre-salvage-scan bug)
    recovered_records: int = 0
    #: intact records in the replay window whose kind this build does
    #: not understand (journal written by a newer build): skipped, not
    #: applied, surfaced
    unknown_records: int = 0
    #: the distinct unknown kinds encountered (stringified)
    unknown_kinds: list[str] = field(default_factory=list)

    @property
    def base_offset(self) -> Optional[int]:
        """Byte offset of the base image unit (None without one)."""
        return None if self.base is None else self.base.offset

    @property
    def clean(self) -> bool:
        """Nothing to surface: no suspicious corruption, nothing skipped."""
        return (
            not self.report.needs_attention
            and self.skipped_deltas == 0
            and self.unknown_records == 0
        )

    def problems(self) -> list[str]:
        """Human-readable descriptions of everything worth surfacing."""
        found: list[str] = []
        for corrupt in self.report.corrupt_ranges:
            found.append(
                f"skipped corrupt region [{corrupt.offset}:{corrupt.end}] "
                f"({corrupt.problem})"
            )
        if (
            self.report.tail_problem is not None
            and not self.report.tail_is_torn
        ):
            found.append(
                f"corrupt tail at byte {self.report.tail_offset} "
                f"({self.report.tail_problem})"
            )
        if self.recovered_records:
            found.append(
                f"recovered {self.recovered_records} intact record(s) past "
                "the corruption (a stop-at-first-error load would have "
                "served stale state)"
            )
        if self.skipped_deltas:
            found.append(
                f"{self.skipped_deltas} delta(s) after the corruption "
                "were not replayed (prefix consistency); run "
                "`repro fsck --salvage` to quarantine the damage"
            )
        if self.unknown_records:
            kinds = ", ".join(sorted(set(self.unknown_kinds)))
            found.append(
                f"{self.unknown_records} record(s) of unknown kind(s) "
                f"[{kinds}] were skipped (journal written by a newer "
                "build?)"
            )
        return found


def save_database(db: SeedDatabase, path: str | Path) -> int:
    """Write a complete image of *db* to *path* (atomic replace).

    Returns the image size in bytes.
    """
    record_file = RecordFile(path)
    record_file.rewrite([ImageFragments().encode(db)])
    return record_file.size_bytes()


def load_database(
    path: str | Path,
    registry: Optional[ProcedureRegistry] = None,
    *,
    strict: bool = False,
) -> SeedDatabase:
    """Load the newest committed state from *path*.

    The newest intact image (found by the salvage scan, so corruption
    cannot shadow it) plus every safely replayable check-in delta after
    it. Corruption is surfaced per the module recovery contract:
    :class:`~repro.core.errors.RecoveryWarning` by default, raised as
    :class:`~repro.core.errors.StorageError` with ``strict=True``.
    """
    record_file = RecordFile(path)
    if not record_file.exists():
        raise StorageError(f"no database file at {path}")
    db, info, __ = _load_journal_state(record_file, registry)
    if db is None:
        raise StorageError(f"no intact database image in {path}")
    _surface_recovery(info, path, strict)
    return db


def _load_journal_state(
    record_file: RecordFile, registry: Optional[ProcedureRegistry]
) -> tuple[Optional[SeedDatabase], RecoveryInfo, int]:
    """Shared loader: salvage scan, base image, delta replay.

    Returns ``(db or None, RecoveryInfo, next delta seq)``.
    """
    events = list(record_file.decoded())
    info = RecoveryInfo(report=record_file.verify(events))

    record_events = [event for event in events if event.kind == "record"]
    max_seq = 0
    for event in record_events:
        if isinstance(event.record, dict):
            # streamed checkpoints draw their ``cp`` id from the same
            # counter, so it participates in the high-water mark too
            for key in ("seq", "cp"):
                value = event.record.get(key)
                if isinstance(value, int) and value > max_seq:
                    max_seq = value
    units = _image_units(record_events)
    if not units:
        return None, info, max_seq + 1
    base = units[-1]
    info.base = BaseUnit(base["start"], base["end"], base["cp"])

    first_corrupt = [event for event in events if event.kind == "corrupt"]
    info.recovered_records = sum(
        1
        for event in record_events
        if first_corrupt and event.offset >= first_corrupt[0].end
    )
    # replay window: record events after the base unit, up to the first
    # corrupt region after the base (prefix consistency past a gap).
    # Corruption *inside* a streamed base group cannot happen — a group
    # missing any part is incomplete and never becomes the base.
    gap_offset = None
    for event in first_corrupt:
        if event.offset > base["start"]:
            gap_offset = event.offset
            break
    window = [
        event
        for event in record_events
        if event.offset >= base["end"]
        and (gap_offset is None or event.end <= gap_offset)
    ]
    info.skipped_deltas = sum(
        1
        for event in record_events
        if gap_offset is not None
        and event.offset >= gap_offset
        and isinstance(event.record, dict)
        and event.record.get("kind") in _DELTA_KINDS
    )

    db = database_from_records(base["records"], registry)
    aborted_seqs = {
        event.record.get("seq")
        for event in window
        if isinstance(event.record, dict)
        and event.record.get("kind") == "checkin.abort"
    }
    # imported lazily: the delta payload is a multi-user check-in
    # package; the storage layer stays import-independent of the
    # multiuser package except on this replay path
    from repro.multiuser.checkin import package_from_dict

    for event in window:
        record = event.record
        if not isinstance(record, dict):
            info.unknown_records += 1
            info.unknown_kinds.append("<not a record object>")
            continue
        kind = record.get("kind")
        if kind == "txn":
            # committed after-states of a direct transaction: validated
            # when they committed, so replay is a plain state upsert
            apply_txn_delta(db, record["delta"])
            info.applied_txn_deltas += 1
            continue
        if kind == "schema":
            apply_schema_delta(db, record["delta"], registry)
            info.applied_change_deltas += 1
            continue
        if kind == "restore":
            apply_restore_delta(db, record["delta"])
            info.applied_change_deltas += 1
            continue
        if kind == "version":
            apply_version_delta(db, record["delta"])
            info.applied_change_deltas += 1
            continue
        if kind != "checkin":
            if kind not in KNOWN_RECORD_KINDS:
                # a future build's record: skipping it keeps the load
                # prefix-consistent *as this build understands state*;
                # surface it so nobody mistakes the result for complete
                info.unknown_records += 1
                info.unknown_kinds.append(str(kind))
            # image-family records in the window belong to an
            # incomplete streamed checkpoint (crash mid-stream): state
            # no-ops, skipped silently like a torn tail
            continue
        if record.get("seq") in aborted_seqs:
            info.aborted_deltas += 1
            continue
        package = package_from_dict(record["delta"])
        try:
            with db.transaction():
                package.apply_to(db)
        except SeedError:
            # a live abort whose marker did not survive re-fails
            # deterministically here — same committed state either way
            info.aborted_deltas += 1
        else:
            info.applied_deltas += 1
    return db, info, max_seq + 1


def _damaged_after(report: IntegrityReport, base: BaseUnit) -> bool:
    """True when damage a load stops at sits after *base*: a corrupt
    region, or a tail that rotted rather than tore (once something is
    appended, it is a corrupt region too)."""
    return any(r.offset > base.offset for r in report.corrupt_ranges) or (
        report.tail_problem is not None and not report.tail_is_torn
    )


def _surface_recovery(
    info: RecoveryInfo, path: str | Path, strict: bool
) -> None:
    """Warn (or raise) per the recovery contract; silent when clean."""
    if info.clean:
        return
    problems = info.problems()
    message = f"recovered {path} past corruption: " + "; ".join(problems)
    if strict:
        raise StorageError(message)
    warnings.warn(RecoveryWarning(message), stacklevel=3)


class JournaledDatabase:
    """A database bound to a record file of checkpoints and deltas.

    Usage::

        journal = JournaledDatabase.open(path, schema=my_schema)
        db = journal.db
        ...updates...                 # every commit appends a txn delta
        db.migrate_schema(new)        # appends one ``schema`` delta
        db.create_version("v")        # appends one ``version`` delta
        journal.checkpoint()          # appends a recoverable image
        journal.append_delta(pkg)     # durable O(change) check-in record
        journal.compact()             # drops superseded records
        journal.save_point()          # checkpoint, then compact

    Binding installs the database's change sink: every committed
    mutation — direct transaction, schema migration, version restore,
    version creation — appends a write-ahead delta before control
    returns to the caller (rollbacks append nothing). With a
    *byte_budget*, each post-commit append also enforces the budget —
    see :meth:`enforce_budget`.

    With a :class:`GroupCommitPolicy`, direct-transaction deltas are
    buffered and appended with one fsync per batch; everything else
    (check-ins, mutation deltas, checkpoints, compaction) is a hard
    flush barrier. The default (``group_commit=None``) keeps strict
    per-commit durability.

    After :meth:`open`, :attr:`recovery` describes what the load found
    (corruption skipped, deltas replayed/aborted/stranded).
    """

    def __init__(
        self,
        db: SeedDatabase,
        record_file: RecordFile,
        *,
        recovery: Optional[RecoveryInfo] = None,
        next_seq: int = 1,
        byte_budget: Optional[int] = None,
        group_commit: Optional[GroupCommitPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        streamed_checkpoints: bool = False,
    ) -> None:
        if byte_budget is not None and byte_budget <= 0:
            raise StorageError(
                f"byte_budget must be positive, got {byte_budget}"
            )
        self.db = db
        self._file = record_file
        #: what the load found; a fresh journal reports a clean scan
        self.recovery = recovery or RecoveryInfo(
            report=IntegrityReport(path=record_file.path)
        )
        self._next_seq = next_seq
        #: auto-compaction threshold in bytes (None = unbounded)
        self.byte_budget = byte_budget
        #: txn batching policy (None = strict per-commit fsync)
        self.group_commit = group_commit
        #: default checkpoint mode (overridable per call)
        self.streamed_checkpoints = streamed_checkpoints
        #: batches durably appended so far (one fsync each)
        self.group_flushes = 0
        self._clock = clock if clock is not None else time.monotonic
        #: encoded payloads of buffered txn records (encoded once: the
        #: same bytes size the batch and are framed at flush)
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._pending_since: Optional[float] = None
        # the newest image unit: everything before it is superseded (a
        # load never replays it), the rest is live tail; None only
        # until a fresh journal's first checkpoint
        self._base = self.recovery.base
        # sink suspension depth: >0 while a check-in apply runs (the
        # check-in delta already covers those commits write-ahead)
        self._sink_suspended = 0
        # the checkpoints' encoded items and cells: the txn and version
        # records fill them, every other state write drops the fragment
        # it may have changed
        self._fragments = ImageFragments()
        db._change_sink = self._on_change_event  # noqa: SLF001 - the seam
        db._state_sink = self._fragments.item_changed  # noqa: SLF001
        db.versions.store._cell_sink = self._fragments.cell_changed  # noqa: SLF001

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        schema=None,
        name: str = "db",
        registry: Optional[ProcedureRegistry] = None,
        strict: bool = False,
        byte_budget: Optional[int] = None,
        group_commit: Optional[GroupCommitPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        streamed_checkpoints: bool = False,
    ) -> "JournaledDatabase":
        """Open an existing journal or start a fresh one.

        When the file holds an intact image, the newest one is loaded,
        every safely replayable delta after it is applied, and *schema*
        is ignored; otherwise *schema* is required and an initial image
        is written. A file that exists but contains no intact record at
        all (e.g. a crash tore the very first checkpoint) counts as
        fresh: recovering to the empty pre-first-commit state is the
        prefix-consistent answer. Before appending anything, a torn tail
        is cut and damage past the base is stepped over with a fresh
        checkpoint (recovery contract, point 6).
        """
        record_file = RecordFile(path)
        if record_file.exists():
            db, info, next_seq = _load_journal_state(record_file, registry)
            report = info.report
            if db is not None:
                _surface_recovery(info, path, strict)
            elif report.intact_records > 0:
                # intact records but no image: not a journal we can
                # resume, and not safe to clobber with a fresh one
                raise StorageError(f"no intact database image in {path}")
            # what follows appends to the file, and a load replays
            # nothing past damage: the appends must not land behind any
            if report.tail_is_torn:
                record_file.truncate(report.tail_offset)
            if db is not None:
                journal = cls(
                    db,
                    record_file,
                    recovery=info,
                    next_seq=next_seq,
                    byte_budget=byte_budget,
                    group_commit=group_commit,
                    clock=clock,
                    streamed_checkpoints=streamed_checkpoints,
                )
                if _damaged_after(report, info.base):
                    # a fresh base past the damage, which stays in
                    # place for ``fsck --salvage`` to quarantine
                    journal.checkpoint()
                return journal
        if schema is None:
            raise StorageError(
                f"no journal at {path} and no schema given to create one"
            )
        db = SeedDatabase(schema, name)
        journal = cls(
            db,
            record_file,
            byte_budget=byte_budget,
            group_commit=group_commit,
            clock=clock,
            streamed_checkpoints=streamed_checkpoints,
        )
        journal.checkpoint()
        return journal

    @property
    def path(self) -> Path:
        """Where the journal lives on disk."""
        return self._file.path

    def checkpoint(self, *, streamed: Optional[bool] = None) -> int:
        """Append a recovery image of the current state; returns file size.

        The image supersedes every earlier record on load (deltas
        before it replay into it implicitly). Flush barrier: any
        buffered group-commit records are appended first. A monolithic
        image is joined from the journal's cached per-item fragments:
        only what changed since the last checkpoint is encoded again.

        With ``streamed=True`` (or :attr:`streamed_checkpoints`), the
        image is appended as a counted ``image.begin`` / ``image.rec``
        / ``image.end`` group, one frame per
        :func:`~repro.core.storage.serialize.iter_image_records` record,
        joined from the same fragments. Recovery treats only a
        complete group as an image; a crash mid-stream is a torn
        checkpoint and the previous base still recovers the same
        committed state (checkpoints change no state).
        """
        self.flush(enforce=False)
        if streamed is None:
            streamed = self.streamed_checkpoints
        if not streamed:
            cp = None
            offset, end = self._file.append(self._fragments.encode(self.db))
        else:
            cp = self._next_seq
            self._next_seq += 1

            def group() -> Iterator[bytes]:
                # RecordFile.encode of {"kind": "image.begin", "cp": cp},
                # {"kind": "image.rec", "cp": cp, "rec": ...} per image
                # record and {"kind": "image.end", "cp": cp, "n": count}
                yield b'{"cp":%d,"kind":"image.begin"}' % cp
                count = 0
                for rec in self._fragments.records(self.db):
                    count += 1
                    yield b'{"cp":%d,"kind":"image.rec","rec":%b}' % (cp, rec)
                yield b'{"cp":%d,"kind":"image.end","n":%d}' % (cp, count)

            offset, end, __ = self._file.append_stream(group())
        self._base = BaseUnit(offset, end, cp)
        return end

    def save_point(self, *, streamed: Optional[bool] = None) -> int:
        """:meth:`checkpoint` (*streamed* as there), then :meth:`compact`:
        the journal shrinks to one image. Returns the compacted size."""
        self.checkpoint(streamed=streamed)
        return self.compact()

    def append_delta(self, delta: dict[str, Any]) -> int:
        """Durably append one check-in delta; returns its sequence number.

        Write-ahead: the caller appends *before* applying the check-in
        to the database, so an accepted check-in is durable at
        O(change) cost. If the apply then fails, neutralize the record
        with :meth:`append_abort` — replay skips marked seqs (and a
        marker lost to a crash re-fails deterministically on replay).

        Hard flush barrier: buffered group-commit records land in the
        same fsync'd batch, ahead of the check-in record, preserving
        file order.

        Never auto-compacts: the record is write-ahead of its apply, so
        a checkpoint taken here would supersede a delta whose effects
        are not in the image yet. Budget enforcement belongs *after*
        the apply (see :meth:`enforce_budget`).
        """
        seq = self._next_seq
        self._next_seq += 1
        self._append_record(
            RecordFile.encode({"kind": "checkin", "seq": seq, "delta": delta})
        )
        return seq

    def append_abort(self, seq: int) -> None:
        """Mark delta *seq* as never-applied (its check-in was rejected)."""
        self._append_record(RecordFile.encode({"kind": "checkin.abort", "seq": seq}))

    # -- the change sink ----------------------------------------------------

    def _on_change_event(self, kind: str, payload: Any) -> None:
        """The database's change sink: journal one committed mutation.

        Installed as ``db._change_sink``. Runs after the mutation is
        fully applied in memory, so auto-compaction here is safe: a
        checkpoint taken now already contains the change. Direct
        transactions (``"txn"``) may buffer under a group-commit
        policy; every other kind appends exactly one write-ahead record
        — draining any buffered txns in the same fsync'd batch — before
        returning.
        """
        if kind in ("restore", "schema"):
            # every live item was rewritten or re-bound
            self._fragments.items_replaced()
        if self._sink_suspended:
            return
        if kind == "txn":
            self._on_txn_commit(payload)
            return
        if kind == "schema":
            new_schema, index = payload
            delta = RecordFile.encode(
                schema_delta_from_migration(self.db, new_schema, index)
            )
        elif kind == "restore":
            delta = RecordFile.encode(restore_delta_from_db(self.db, payload))
        elif kind == "version":
            # the cells this version opened keep the bytes the record has
            delta = version_delta_from_db(self.db, payload, self._fragments)
        else:
            raise StorageError(
                f"change sink received unknown event kind {kind!r}: "
                "refusing to drop a committed mutation silently"
            )
        if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
            faults.fire("change.journal.pre_append")
        seq = self._next_seq
        self._next_seq += 1
        self._append_record(_delta_record(kind, seq, delta))
        if self.byte_budget is not None:
            self.enforce_budget()

    def _on_txn_commit(self, txn) -> None:
        """Append (or buffer) a ``txn`` delta for a committed transaction.

        Every touched item's image fragment is kept from the bytes the
        delta encodes its state with, so the next checkpoint encodes
        none of them again.
        """
        if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
            faults.fire("txn.journal.pre_append")
        seq = self._next_seq
        self._next_seq += 1
        payload = _delta_record(
            "txn", seq, txn_delta_from_txn(self.db, txn, self._fragments)
        )
        policy = self.group_commit
        if policy is None:
            self._file.append(payload)
            if self.byte_budget is not None:
                self.enforce_budget()
            return
        now = self._clock()
        self._pending.append(payload)
        self._pending_bytes += len(payload)
        if self._pending_since is None:
            self._pending_since = now
        if (
            len(self._pending) >= policy.max_txns
            or self._pending_bytes >= policy.max_bytes
            or now - self._pending_since >= policy.max_delay_s
        ):
            self.flush()

    # -- group commit --------------------------------------------------------

    def pending_txns(self) -> int:
        """Buffered (applied-in-memory, not yet durable) txn records."""
        return len(self._pending)

    def flush(self, *, enforce: bool = True) -> int:
        """Durably append every buffered txn record with one fsync.

        Returns the number of records flushed (0 when the buffer is
        empty — a no-op without touching the file).
        """
        if not self._pending:
            return 0
        count = self._drain()
        if enforce and self.byte_budget is not None:
            self.enforce_budget()
        return count

    def _append_record(self, payload: bytes) -> None:
        """Append one encoded record, draining any buffered txns ahead
        of it.

        The buffered records and *payload* land in one fsync'd append,
        preserving commit order in the file. With an empty buffer this
        is a plain append.
        """
        if self._pending:
            self._drain(payload)
        else:
            self._file.append(payload)

    def _drain(self, *trailing: bytes) -> int:
        """Append the buffered payloads (+ *trailing*) as one fsync'd
        batch. The buffer is cleared only after the append succeeds, so
        an I/O failure leaves the records buffered for the next barrier.
        """
        count = self._file.append_encoded([*self._pending, *trailing])
        self._pending = []
        self._pending_bytes = 0
        self._pending_since = None
        self.group_flushes += 1
        return count

    @contextmanager
    def suspended_txn_sink(self) -> Iterator[None]:
        """Suppress txn-delta appends for the duration (reentrant).

        Used around check-in applies: those commits are already covered
        write-ahead by their check-in delta, and double-journaling them
        would double-apply on replay.
        """
        self._sink_suspended += 1
        try:
            yield
        finally:
            self._sink_suspended -= 1

    # -- size bounding ------------------------------------------------------

    def tail_bytes(self) -> int:
        """Bytes a load would actually replay (newest image onward)."""
        superseded = 0 if self._base is None else self._base.offset
        return self._file.size_bytes() - superseded

    def enforce_budget(self, budget: Optional[int] = None) -> int:
        """Compact if the journal exceeds *budget* bytes; returns size.

        With no budget (argument and :attr:`byte_budget` both None)
        this is a size probe. Over budget, superseded records are
        dropped via :meth:`compact`; if the live tail alone already
        exceeds the budget, a fresh checkpoint is appended first so the
        deltas behind it become superseded and the rewrite shrinks the
        file to one image. A journal whose single image is larger than
        the budget stays over budget — the budget bounds amplification,
        it cannot make the data smaller than itself.
        """
        self.flush(enforce=False)
        if budget is None:
            budget = self.byte_budget
        size = self._file.size_bytes()
        if budget is None or size <= budget:
            return size
        if self.tail_bytes() > budget:
            self.checkpoint()
        return self.compact()

    def compact(self) -> int:
        """Drop superseded records; returns the new file size.

        Flush barrier: buffered group-commit records are appended
        before the scan, so none can be dropped by the rewrite. Copies
        (as byte ranges, never re-encoding) the newest complete image
        unit (monolithic record or streamed group) plus the deltas
        after it, minus aborted delta/marker pairs and minus any
        incomplete streamed-checkpoint leftovers.

        The scan checks framing only. The remembered base unit, when
        intact frames still cover it exactly, is kept without being
        decoded and nothing before it is read as a record; only the
        records after it are decoded, to be judged. A remembered unit
        that rotted (or none) means decoding every record to find the
        newest complete unit — the search a load makes.
        Corrupt regions are implicitly dropped by the rewrite;
        quarantine first via
        :meth:`~repro.core.storage.recordfile.RecordFile.salvage` if
        the bytes matter. When no complete image survives anywhere in
        the file, falls back to checkpointing the live in-memory state
        and compacting to that (surfaced via
        :class:`~repro.core.errors.RecoveryWarning`) — a damaged-but-
        loaded journal can always be bounded.
        """
        self.flush(enforce=False)
        events = list(self._file.scan())
        base = self._base
        fresh, keep = [], []
        if base is not None and _holds(events, base):
            # intact frames tile the remembered unit exactly: keep it by
            # range, look at nothing before it, decode only what follows
            keep = [(base.offset, base.end)]
            tail = self._record_events(
                e for e in events if e.offset >= base.end
            )
        else:
            # no remembered unit, or it rotted since it was written:
            # search every record for the newest one that is complete
            tail = self._record_events(events)
            units = _image_units(tail)
            if units:
                found = units[-1]
                base = BaseUnit(found["start"], found["end"], found["cp"])
                tail = tail[found["start_index"]:]
            else:
                base = tail = None
        if base is None:
            fresh = [self._fragments.encode(self.db)]
            warnings.warn(
                RecoveryWarning(
                    f"journal {self._file.path} holds no intact image; "
                    "compacted to a fresh checkpoint of the live state "
                    f"(dropped damaged bytes [0:{self._file.size_bytes()}])"
                ),
                stacklevel=2,
            )
        else:
            aborted = {
                event.record.get("seq")
                for event in tail
                if isinstance(event.record, dict)
                and event.record.get("kind") == "checkin.abort"
            }
            # image-family records in the tail that are not part of the
            # (complete) base unit belong to an interrupted streamed
            # checkpoint: state no-ops a load ignores — drop the junk
            base_cp = base.cp

            def keeps(record: Any) -> bool:
                if not isinstance(record, dict):
                    return True
                kind = record.get("kind")
                if (
                    kind in ("checkin", "checkin.abort")
                    and record.get("seq") in aborted
                ):
                    return False
                if kind in ("image.begin", "image.rec", "image.end"):
                    return base_cp is not None and record.get("cp") == base_cp
                return True

            keep += [(e.offset, e.end) for e in tail if keeps(e.record)]
        if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
            faults.fire("journal.compact.rewrite")
        self._file.rewrite(fresh, keep=keep)
        # the rewrite starts the file at its base unit: nothing is
        # superseded until the next checkpoint
        size = self._file.size_bytes()
        self._base = (
            BaseUnit(0, size, None)
            if base is None
            else BaseUnit(0, base.end - base.offset, base.cp)
        )
        return size

    def _record_events(self, events=None) -> list:
        """The intact, decodable records of a scan (or of *events*)."""
        return [e for e in self._file.decoded(events) if e.kind == "record"]

    def checkpoints(self) -> int:
        """Number of complete images (monolithic or streamed groups)."""
        return len(_image_units(self._record_events()))

    def deltas(self) -> int:
        """Number of intact check-in delta records in the journal."""
        return self._count_kind("checkin")

    def txn_deltas(self) -> int:
        """Number of intact direct-transaction delta records."""
        return self._count_kind("txn")

    def _count_kind(self, kind: str) -> int:
        return sum(
            1
            for event in self._record_events()
            if isinstance(event.record, dict)
            and event.record.get("kind") == kind
        )
