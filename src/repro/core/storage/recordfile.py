"""An append-only, checksummed record file with salvage recovery.

The SEED prototype persisted its database; this module provides the
storage primitive our engine uses: a log of length-prefixed,
CRC-protected JSON records. Appends are atomic at the record level — a
torn final record (crash mid-write) is detected by checksum/length
mismatch and ignored by the recovery scan, so the file never poisons a
load.

Format, per record::

    8 bytes  payload length (decimal, zero-padded ASCII)
    1 byte   space
    8 bytes  CRC32 of payload (hex, zero-padded ASCII)
    1 byte   newline
    N bytes  payload (UTF-8 JSON)
    1 byte   newline

The ASCII framing keeps files inspectable with standard tools while
remaining strict enough for reliable recovery.

One writer, one parser
----------------------

The surface is append (``append``, ``append_many``),
stream (``append_stream``), replace (``rewrite``) and cut a torn tail
(``truncate``) — the seam a ``StorageBackend`` protocol would name;
nothing is built behind it.

* ``RecordFile._write`` is the only code that adds bytes to a record
  file: write each blob, one fsync, plus a directory fsync when the
  call created the file. The one writer owns one append handle per
  ``RecordFile``: opened by the first write, kept across writes, and
  closed by :meth:`RecordFile.close`, by a ``weakref.finalize`` when the
  object is forgotten, and on *any* exception inside the writer (which
  also flushes what the interrupted call had written, as closing always
  did). Each write takes its offset from the file's real end (a seek to
  the end), never from a remembered position, so an append by another
  ``RecordFile`` on the same path cannot throw the ranges off. Every
  replacement or cut of the file — ``rewrite`` (so ``salvage``) and
  ``truncate`` — drops the handle first, so no write lands in a file
  that is no longer at the path; a write that finds the file replaced
  under its handle by anyone else (one ``fstat``: no link left)
  reopens the path and counts it in ``RecordFile.replacements``.
  Failpoints (armed via
  :mod:`repro.core.faults`): ``recordfile.append.pre_write`` per blob
  (a torn write persists the truncated prefix and crashes),
  ``recordfile.append.pre_fsync`` per call. ``append``, ``append_many``
  (all frames joined) and ``rewrite`` (the whole replacement, into the
  temp file; none when empty) write one blob, ``append_stream`` one per
  frame. ``rewrite`` fsyncs the directory again after ``os.replace``
  (failpoints ``recordfile.rewrite.replace`` / ``.post_replace`` either
  side), so the atomic replacement survives power loss.
* ``_parse_record`` is the only code that reads a frame header, and
  it validates framing only — length, CRC, terminator. ``scan()``
  drives it and yields :class:`ScanEvent` objects that carry their
  payload undecoded; decoding belongs to whoever reads
  ``event.record`` (once, cached). ``decoded()`` is ``scan()`` with
  every record decoded — the
  one place that decides what an intact frame holding something other
  than JSON is (a corrupt region, as ever). ``records()`` is
  ``decoded()`` up to the first non-record event (raising there with
  ``strict=True``), ``verify()`` the one fold from decoded events to an
  :class:`IntegrityReport`. A reader that needs only byte ranges (the
  journal keeping its base image through a compaction) takes ``scan()``
  and never pays for the JSON in a frame it copies.
* Kept means copied: ``rewrite(records, keep=[(offset, end), ...])``
  carries byte ranges of the current file over verbatim; compaction
  and ``salvage()`` pass only ranges, so a frame that was CRC-checked
  on scan is never re-serialized. Given the bytes of the scan that
  found the ranges (its start and :attr:`ScanEvent.scanned`), the
  rewrite slices them from there instead of reading them again;
  ``scan(start=)`` reads only from *start* on, so a compaction that
  trusts its remembered base never reads what precedes it.

Recovery contract
-----------------

* **Detection** — every single-byte corruption is detected by the
  framing alone, without parsing a payload: payload bytes by the CRC
  (CRC32 catches all error bursts <= 32 bits), header bytes by the
  digit/hex/framing checks, and truncation by the length prefix. What
  the CRC cannot vouch for is a writer that framed something other
  than JSON; that surfaces where the payload is decoded, and
  :meth:`RecordFile.decoded` reports such a frame as a corrupt region
  (``"unparseable payload"``) to every reader that decodes.
* **Resynchronization** — :meth:`RecordFile.scan` does not stop: after
  a corrupt region it searches forward for the next *plausible header*
  (17 digit/space/hex bytes followed by a newline whose framed payload
  passes the length, CRC and terminator checks) and resumes there.
  Payloads are single-line JSON, so an intact record can never contain
  a raw newline — the next real header is always found, and a false
  resync would need a 1-in-2^32 CRC collision.
* **Classification** — :meth:`RecordFile.verify` folds the scan into an
  :class:`IntegrityReport`: mid-file corruption (``corrupt_ranges``,
  always suspicious) is distinguished from a trailing problem, and a
  trailing *torn write* (a clean prefix of an append: truncated header/
  payload or missing terminator) is distinguished from trailing bit rot
  (e.g. a checksum mismatch with all bytes present) via
  :attr:`IntegrityReport.tail_is_torn` — only the former is the normal
  crash-recovery case that loaders may stay silent about.
* **Salvage** — :meth:`RecordFile.salvage` quarantines every corrupt
  byte range, losslessly, into a ``<name>.corrupt`` sidecar record
  file, then replaces the file with its intact frames.
"""

from __future__ import annotations

import base64
import json
import os
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Optional

from repro.core import faults
from repro.core.errors import StorageError
from repro.core.faults import SimulatedCrash, TornWrite

__all__ = ["RecordFile", "IntegrityReport", "CorruptRange", "ScanEvent"]

_HEADER_LENGTH = 8 + 1 + 8 + 1

#: the one canonical JSON encoder (``json.dumps`` would build a new
#: encoder for these arguments on every call)
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: tail problems a clean prefix of an interrupted append can produce —
#: the normal crash case, as opposed to in-place corruption
_TORN_TAIL_PROBLEMS = frozenset(
    {"truncated header", "truncated payload", "missing record terminator"}
)


@dataclass(frozen=True)
class CorruptRange:
    """One skipped byte range and why it failed to parse."""

    offset: int
    end: int
    problem: str

    @property
    def length(self) -> int:
        return self.end - self.offset

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.offset}:{self.end}] {self.problem}"


class ScanEvent:
    """One event of a salvage scan: an intact frame or a skipped range.

    A ``"record"`` event is a frame whose length, CRC and terminator
    hold. It carries the payload bytes undecoded: :attr:`record` parses
    them on first access and caches the result, so a reader that only
    needs a frame's byte range (compaction keeping its base image)
    never pays for the JSON inside it.

    While the payload is undecoded, :attr:`scanned` is the buffer it
    points into: the bytes the scan read, from its start offset on. A
    rewrite handed them copies kept ranges out of them instead of
    reading the file again.
    """

    __slots__ = ("kind", "offset", "end", "problem", "_payload", "_record")

    def __init__(
        self,
        kind: str,  # "record" | "corrupt" | "tail"
        offset: int,
        end: int,
        payload: Optional[memoryview] = None,
        problem: str = "",
    ) -> None:
        self.kind = kind
        self.offset = offset
        self.end = end
        self.problem = problem
        self._payload = payload
        self._record: Any = None

    @property
    def scanned(self) -> Optional[bytes]:
        """The bytes this event's scan read (from the scan's start on),
        or None once the payload is decoded (or for a skipped range)."""
        return None if self._payload is None else self._payload.obj

    @property
    def record(self) -> Any:
        """The decoded payload (None for a skipped range).

        Raises ``ValueError`` when the frame is intact but its payload
        is not UTF-8 JSON; :meth:`RecordFile.decoded` is where that
        case is decided for every reader.
        """
        if self._payload is not None:
            self._record = json.loads(str(self._payload, "utf-8"))
            self._payload = None
        return self._record


@dataclass
class IntegrityReport:
    """What a full salvage scan found in one record file."""

    path: Path
    total_bytes: int = 0
    intact_records: int = 0
    #: mid-file regions the resync scan skipped (always suspicious)
    corrupt_ranges: list[CorruptRange] = field(default_factory=list)
    #: unparseable trailing region, when the scan could not resync
    tail_problem: Optional[str] = None
    tail_offset: int = 0

    @property
    def is_clean(self) -> bool:
        """No corruption of any kind, not even a torn tail."""
        return not self.corrupt_ranges and self.tail_problem is None

    @property
    def tail_is_torn(self) -> bool:
        """The trailing problem is a clean crash tear, not bit rot."""
        return self.tail_problem in _TORN_TAIL_PROBLEMS

    @property
    def needs_attention(self) -> bool:
        """Corruption a loader must surface (mid-file, or rotted tail)."""
        return bool(self.corrupt_ranges) or (
            self.tail_problem is not None and not self.tail_is_torn
        )

    @property
    def corrupt_bytes(self) -> int:
        total = sum(r.length for r in self.corrupt_ranges)
        if self.tail_problem is not None:
            total += self.total_bytes - self.tail_offset
        return total

    def render(self) -> str:
        """Human-readable multi-line summary (the ``fsck`` report)."""
        lines = [
            f"{self.path}: {self.total_bytes} bytes, "
            f"{self.intact_records} intact record(s)"
        ]
        for corrupt in self.corrupt_ranges:
            lines.append(
                f"  corrupt [{corrupt.offset}:{corrupt.end}] "
                f"({corrupt.length} bytes): {corrupt.problem}"
            )
        if self.tail_problem is not None:
            kind = "torn tail" if self.tail_is_torn else "corrupt tail"
            lines.append(
                f"  {kind} [{self.tail_offset}:{self.total_bytes}] "
                f"({self.total_bytes - self.tail_offset} bytes): "
                f"{self.tail_problem}"
            )
        if self.is_clean:
            lines.append("  clean")
        return "\n".join(lines)


def _fsync_directory(directory: Path) -> None:
    """Make a directory entry durable (rename/create survives power loss)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame(payload: bytes) -> bytes:
    """Wrap one encoded payload into its framed on-disk bytes."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    # one copy of the payload (a checkpoint's is megabytes)
    return b"%08d %08x\n%b\n" % (len(payload), crc, payload)


class RecordFile:
    """Append-only record log with checksummed, resynchronizing recovery."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: the one writer's append handle (None until the first write
        #: and after every close), and the finalizer that closes it
        #: when this object is forgotten
        self._handle: Optional[BinaryIO] = None
        self._closer: Optional[weakref.finalize] = None
        #: writes that found the file at the path replaced (or deleted)
        #: under the kept handle, and so reopened the path
        self.replacements = 0

    # -- writing ------------------------------------------------------------

    def append(self, record: Any) -> tuple[int, int]:
        """Append one record, fsync'd: a JSON-serialisable value, or the
        payload bytes :meth:`encode` would make of one (a checkpoint
        joins its image from cached per-item fragments).

        Returns the appended record's byte range ``(offset, end)``.
        """
        payload = record if isinstance(record, bytes) else self.encode(record)
        return self._write([_frame(payload)])[:2]

    def append_many(self, records: Iterator[Any] | list[Any]) -> int:
        """Append several records with one write and fsync; returns the count."""
        frames = [_frame(self.encode(record)) for record in records]
        if frames:
            self._write([b"".join(frames)])
        return len(frames)

    @staticmethod
    def encode(record: Any) -> bytes:
        """The payload bytes (single-line JSON) every append writes."""
        return _ENCODER.encode(record).encode("utf-8")

    def append_stream(
        self, records: Iterator[Any] | list[Any]
    ) -> tuple[int, int, int]:
        """Append records one frame at a time with a single fsync.

        The streaming sibling of :meth:`append_many`: each frame is its
        own blob, written as the iterator produces it — O(largest
        record) memory, and a torn write leaves the frames already
        written plus a torn prefix. Like :meth:`append`, a record may
        be the payload bytes :meth:`encode` would make of it. Returns
        the group's byte range and the number appended: ``(offset,
        end, count)``.
        """
        return self._write(
            _frame(r if isinstance(r, bytes) else self.encode(r)) for r in records
        )

    def _write(self, blobs: Iterable[bytes]) -> tuple[int, int, int]:
        """The one durable writer; returns ``(offset, end, blobs written)``."""
        creating = False
        count = 0
        try:
            handle = self._handle
            if handle is not None and os.fstat(handle.fileno()).st_nlink == 0:
                # another writer replaced the file (or deleted it): the
                # kept handle writes to an unlinked inode, so write to
                # the file at the path, as a fresh open would
                self.close()
                self.replacements += 1
                handle = None
            if handle is None:
                creating = not self.path.exists()
                handle = self._handle = open(self.path, "ab")
                self._closer = weakref.finalize(self, handle.close)
            # the real end, not a remembered one: another appender may
            # have written since
            offset = end = handle.seek(0, os.SEEK_END)
            for count, blob in enumerate(blobs, 1):
                if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
                    try:
                        blob = faults.fire("recordfile.append.pre_write", blob)
                    except TornWrite as torn:
                        # power loss mid-write: a prefix reaches the platter
                        handle.write(torn.data)
                        handle.flush()
                        os.fsync(handle.fileno())
                        raise SimulatedCrash(
                            f"torn write to {self.path}: "
                            f"{len(torn.data)}/{len(blob)} bytes survive"
                        ) from None
                handle.write(blob)
                end += len(blob)
            if faults._PLAN is not None:  # noqa: SLF001
                faults.fire("recordfile.append.pre_fsync")
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            # closing flushes what this call wrote, and the next write
            # starts from a fresh handle
            self.close()
            raise
        if creating:
            _fsync_directory(self.path.parent)
        return offset, end, count

    def close(self) -> None:
        """Close the append handle (idempotent); a later write opens a
        new one."""
        if self._closer is not None:
            self._closer()
        self._handle = self._closer = None

    def truncate(self, end: int) -> None:
        """Cut the file back to its first *end* bytes, fsync'd.

        How a torn tail (the partial frame an interrupted append left)
        is dropped, so the next append follows the last intact frame.
        """
        self.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(end)
            handle.flush()
            os.fsync(handle.fileno())

    def _read_ranges(
        self,
        ranges: list[tuple[int, int]],
        source: Optional[tuple[int, bytes]] = None,
    ) -> list[bytes]:
        """The current file's bytes at each ``(offset, end)`` range:
        sliced from a scan's *source* (no copy) when given, else read."""
        if source is not None:
            start, data = source
            view = memoryview(data)
            if any(o < start or e > start + len(data) for o, e in ranges):
                raise ValueError("a kept range lies outside the scanned bytes")
            return [view[offset - start : end - start] for offset, end in ranges]
        chunks = []
        with open(self.path, "rb") as handle:
            for offset, end in ranges:
                handle.seek(offset)
                chunks.append(handle.read(end - offset))
        return chunks

    def rewrite(
        self,
        records: Iterable[Any] = (),
        *,
        keep: list[tuple[int, int]] = (),
        source: Optional[tuple[int, bytes]] = None,
    ) -> None:
        """Atomically replace the file's contents (write-temp-and-rename).

        The new contents: the *keep* byte ranges of the current file,
        copied verbatim in the order given, then the encoded *records*
        (like :meth:`append`, a record may be the payload bytes
        :meth:`encode` would make of it). With the *source* of the scan
        that found the ranges — ``(start, data)``, its start offset and
        :attr:`ScanEvent.scanned` — they are sliced from the bytes it
        read. The writer fsyncs the temp file; the directory is fsync'd
        again after ``os.replace``. The append handle is dropped first:
        it would write to the replaced file.
        """
        self.close()
        blob = b"".join(
            (self._read_ranges(keep, source) if keep else [])
            + [_frame(r if isinstance(r, bytes) else self.encode(r)) for r in records]
        )
        temp = RecordFile(self.path.with_suffix(self.path.suffix + ".tmp"))
        temp.path.unlink(missing_ok=True)  # a crashed rewrite's leftover
        temp._write([blob] if blob else [])  # noqa: SLF001 - same class
        temp.close()  # before the rename: nothing writes to it after
        if faults._PLAN is not None:  # noqa: SLF001
            faults.fire("recordfile.rewrite.replace")
        os.replace(temp.path, self.path)
        if faults._PLAN is not None:  # noqa: SLF001
            faults.fire("recordfile.rewrite.post_replace")
        _fsync_directory(self.path.parent)

    # -- reading ------------------------------------------------------------

    def records(self, *, strict: bool = False) -> Iterator[Any]:
        """The intact records before :meth:`scan`'s first problem.

        A torn/corrupt tail is silently ignored (crash recovery); with
        ``strict=True`` any corruption raises
        :class:`~repro.core.errors.StorageError`.
        """
        for event in self.decoded():
            if event.kind != "record":
                if strict:
                    raise StorageError(f"corrupt record file: {event.problem}")
                return
            yield event.record

    # -- salvage scan -------------------------------------------------------

    def scan(self, start: int = 0) -> Iterator[ScanEvent]:
        """Full salvage scan: frames *and* skipped ranges, with resync.

        Framing only — length, CRC, terminator; no payload is decoded
        (see :attr:`ScanEvent.record`, :meth:`decoded`). Corruption
        does not end the scan: the corrupt region is reported as one
        ``"corrupt"`` event and the scan resumes at the next plausible
        record header. A trailing region with no further header is a
        single ``"tail"`` event. Events tile the file from *start* (a
        frame boundary; nothing before it is read): each starts where
        the previous ended. Offsets are the file's.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(start)
                data = handle.read()
        except FileNotFoundError:
            return
        # file offsets; an event's end is the next one's offset, one int
        offset, stop = start, start + len(data)
        while offset < stop:
            parsed = _parse_record(data, offset - start)
            if isinstance(parsed, str):  # a problem, not a record
                resync = _find_resync(data, offset - start + 1)
                if resync is None:
                    yield ScanEvent("tail", offset, stop, problem=parsed)
                    return
                resync += start
                yield ScanEvent("corrupt", offset, resync, problem=parsed)
                offset = resync
                continue
            payload, end = parsed
            end += start
            yield ScanEvent("record", offset, end, payload)
            offset = end

    def decoded(
        self, events: Optional[Iterable[ScanEvent]] = None
    ) -> Iterator[ScanEvent]:
        """:meth:`scan` (or the *events* of one) with every record decoded.

        The one place a failed decode is decided. A frame that passes
        its CRC but does not hold JSON is to every reader what it
        always was, a corrupt region: it is folded back into the event
        stream as one (problem ``"unparseable payload"``), merged with
        any skipped range it touches so events still tile the file and
        a region reports the first problem found in it. A region with
        no intact record after it is the ``"tail"``.
        """
        start, problem, end = 0, "", 0  # the open problem region, if any
        for event in self.scan() if events is None else events:
            bad = event.problem
            if event.kind == "record":
                try:
                    event.record
                except ValueError:
                    bad = "unparseable payload"
            if not bad:
                if problem:
                    yield ScanEvent(
                        "corrupt", start, event.offset, problem=problem
                    )
                    problem = ""
                yield event
            elif not problem:
                start, problem = event.offset, bad
            end = event.end
        if problem:
            yield ScanEvent("tail", start, end, problem=problem)

    def verify(
        self, events: Optional[Iterable[ScanEvent]] = None
    ) -> IntegrityReport:
        """Fold scan events into an :class:`IntegrityReport` (read-only).

        Over a fresh :meth:`decoded` scan, or the *events* of one the
        caller already made (they tile the file: the last end is its
        size).
        """
        report = IntegrityReport(path=self.path)
        for event in self.decoded() if events is None else events:
            report.total_bytes = event.end
            if event.kind == "record":
                report.intact_records += 1
            elif event.kind == "corrupt":
                report.corrupt_ranges.append(
                    CorruptRange(event.offset, event.end, event.problem)
                )
            else:  # tail
                report.tail_problem = event.problem
                report.tail_offset = event.offset
        return report

    def salvage(
        self, quarantine: Optional[str | Path] = None
    ) -> IntegrityReport:
        """Repair in place: keep intact frames, quarantine the rest.

        Every corrupt byte range is preserved losslessly (base64) in a
        ``<name>.corrupt`` sidecar record file — one record per range,
        with its original offset and problem — then the file is
        atomically replaced by its intact frames, copied verbatim.
        Returns the pre-salvage :class:`IntegrityReport`; its
        :attr:`~IntegrityReport.intact_records` is the surviving count.
        A clean file is left untouched (no rewrite, no sidecar).
        """
        if quarantine is None:
            quarantine = self.path.with_name(self.path.name + ".corrupt")
        events = list(self.decoded())
        report = self.verify(events)
        if report.is_clean:
            return report
        skipped = [event for event in events if event.kind != "record"]
        chunks = self._read_ranges([(e.offset, e.end) for e in skipped])
        sidecar = RecordFile(quarantine)
        try:
            sidecar.append_many(
                {
                    "offset": event.offset,
                    "length": len(data),
                    "problem": event.problem,
                    "data_b64": base64.b64encode(data).decode("ascii"),
                }
                for event, data in zip(skipped, chunks)
            )
        finally:
            sidecar.close()
        self.rewrite(
            keep=[(e.offset, e.end) for e in events if e.kind == "record"]
        )
        return report

    def count(self) -> int:
        """Number of intact records (stops at the first problem)."""
        return sum(1 for __ in self.records())

    def exists(self) -> bool:
        """True when the file exists on disk."""
        return self.path.exists()

    def size_bytes(self) -> int:
        """File size in bytes (0 when absent) — a storage-cost metric."""
        return self.path.stat().st_size if self.path.exists() else 0


# ---------------------------------------------------------------------------
# parsing helpers (the one frame parser and its resync search)
# ---------------------------------------------------------------------------

def _parse_record(data: bytes, offset: int) -> tuple[memoryview, int] | str:
    """Validate one frame at *offset*: ``(payload, end)`` or a problem.

    The payload is checksummed and handed on as a view into *data*,
    never copied, never decoded.
    """
    remaining = len(data) - offset
    if remaining < _HEADER_LENGTH:
        return "truncated header"
    header = data[offset : offset + _HEADER_LENGTH]
    try:
        length = int(header[0:8])
        crc_expected = int(header[9:17], 16)
    except ValueError:
        return "unparseable header"
    if header[8:9] != b" " or header[17:18] != b"\n":
        return "malformed header framing"
    start = offset + _HEADER_LENGTH
    end = start + length
    if end + 1 > len(data):
        return "truncated payload"
    payload = memoryview(data)[start:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_expected:
        return "checksum mismatch"
    if data[end : end + 1] != b"\n":
        return "missing record terminator"
    return payload, end + 1


def _find_resync(data: bytes, start: int) -> Optional[int]:
    """Next offset >= *start* where a fully valid frame begins.

    Headers end with a newline at byte 17, and intact payloads are
    single-line JSON (never a raw newline), so scanning the newline
    positions finds every candidate; a candidate only counts when the
    complete frame (length, CRC, terminator) validates.
    """
    search_from = start + _HEADER_LENGTH - 1
    while True:
        newline = data.find(b"\n", search_from)
        if newline == -1:
            return None
        candidate = newline - (_HEADER_LENGTH - 1)
        if candidate >= start and not isinstance(
            _parse_record(data, candidate), str
        ):
            return candidate
        search_from = newline + 1
