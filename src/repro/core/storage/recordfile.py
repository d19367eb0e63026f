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

Recovery contract
-----------------

* **Detection** — every single-byte corruption is detected: payload
  bytes by the CRC (CRC32 catches all error bursts <= 32 bits), header
  bytes by the digit/hex/framing checks, and truncation by the length
  prefix. :meth:`RecordFile.records` streams the file and stops at the
  first problem (raising with ``strict=True``).
* **Resynchronization** — :meth:`RecordFile.scan` does not stop: after
  a corrupt region it searches forward for the next *plausible header*
  (17 digit/space/hex bytes followed by a newline whose framed payload
  passes the CRC, terminator, and JSON checks) and resumes there.
  Payloads are single-line JSON, so an intact record can never contain
  a raw newline — the next real header is always found, and a false
  resync would additionally need a 1-in-2^32 CRC collision.
* **Classification** — :meth:`RecordFile.verify` folds the scan into an
  :class:`IntegrityReport`: mid-file corruption (``corrupt_ranges``,
  always suspicious) is distinguished from a trailing problem, and a
  trailing *torn write* (a clean prefix of an append: truncated header/
  payload or missing terminator) is distinguished from trailing bit rot
  (e.g. a checksum mismatch with all bytes present) via
  :attr:`IntegrityReport.tail_is_torn` — only the former is the normal
  crash-recovery case that loaders may stay silent about.
* **Salvage** — :meth:`RecordFile.salvage` rewrites the file with the
  intact records only (atomic replace + directory fsync) after
  quarantining every corrupt byte range, losslessly, into a
  ``<name>.corrupt`` sidecar record file.
* **Durability** — appends fsync the file (and the parent directory
  when the append created it); :meth:`RecordFile.rewrite` fsyncs the
  temp file *and* the parent directory after ``os.replace``, so the
  atomic replacement survives power loss.

Failpoints (armed via :mod:`repro.core.faults`):
``recordfile.append.pre_write``, ``recordfile.append.pre_fsync``,
``recordfile.rewrite.replace``, ``recordfile.rewrite.post_replace``.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.core import faults
from repro.core.errors import StorageError
from repro.core.faults import SimulatedCrash, TornWrite

__all__ = ["RecordFile", "IntegrityReport", "CorruptRange", "ScanEvent"]

_HEADER_LENGTH = 8 + 1 + 8 + 1

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


@dataclass(frozen=True)
class ScanEvent:
    """One event of a salvage scan: an intact record or a skipped range."""

    kind: str  # "record" | "corrupt" | "tail"
    offset: int
    end: int
    record: Any = None
    problem: str = ""


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
    return f"{len(payload):08d} {crc:08x}\n".encode("ascii") + payload + b"\n"


class RecordFile:
    """Append-only record log with checksummed, resynchronizing recovery."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # -- writing ------------------------------------------------------------

    def append(self, record: Any) -> tuple[int, int]:
        """Append one JSON-serialisable record, fsync'd.

        Returns the appended record's byte range ``(offset, end)``.
        """
        return self._append_blob(_frame(self.encode(record)))

    def append_many(self, records: Iterator[Any] | list[Any]) -> int:
        """Append several records with one open/fsync; returns the count."""
        return self.append_encoded([self.encode(record) for record in records])

    @staticmethod
    def encode(record: Any) -> bytes:
        """The payload bytes (single-line JSON) every append writes.

        For callers that buffer records: size the buffer from these
        bytes, then hand them to :meth:`append_encoded` unchanged.
        """
        return json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")

    def append_encoded(self, payloads: list[bytes]) -> int:
        """:meth:`append_many` for payloads :meth:`encode` already made."""
        if not payloads:
            return 0
        self._append_blob(b"".join(map(_frame, payloads)))
        return len(payloads)

    def append_stream(self, records: Iterator[Any] | list[Any]) -> int:
        """Append records one frame at a time with a single fsync.

        The streaming sibling of :meth:`append_many`: frames are
        written to the open handle as the iterator produces them, so an
        arbitrarily large record stream appends at O(largest record)
        memory instead of materializing the joined blob. The
        ``recordfile.append.pre_write`` failpoint fires once per frame
        (a torn write crashes mid-stream, leaving the already-written
        frames plus a torn prefix — exactly what a power loss leaves),
        and ``recordfile.append.pre_fsync`` fires once before the
        single fsync. Returns the number of records appended.
        """
        creating = not self.path.exists()
        count = 0
        with open(self.path, "ab") as handle:
            for record in records:
                blob = _frame(self.encode(record))
                if faults._PLAN is not None:  # noqa: SLF001
                    try:
                        blob = faults.fire("recordfile.append.pre_write", blob)
                    except TornWrite as torn:
                        handle.write(torn.data)
                        handle.flush()
                        os.fsync(handle.fileno())
                        raise SimulatedCrash(
                            f"torn streamed append to {self.path}: "
                            f"{len(torn.data)}/{len(blob)} bytes survive"
                        ) from None
                handle.write(blob)
                count += 1
            if faults._PLAN is not None:  # noqa: SLF001
                faults.fire("recordfile.append.pre_fsync")
            handle.flush()
            os.fsync(handle.fileno())
        if creating:
            _fsync_directory(self.path.parent)
        return count

    def _append_blob(self, blob: bytes) -> tuple[int, int]:
        """The one durable append path (failpoint-instrumented)."""
        creating = not self.path.exists()
        with open(self.path, "ab") as handle:
            offset = handle.tell()
            if faults._PLAN is not None:  # noqa: SLF001 - zero-cost guard
                try:
                    blob = faults.fire("recordfile.append.pre_write", blob)
                except TornWrite as torn:
                    # power loss mid-write: a prefix reaches the platter
                    handle.write(torn.data)
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise SimulatedCrash(
                        f"torn append to {self.path}: "
                        f"{len(torn.data)}/{len(blob)} bytes survive"
                    ) from None
            handle.write(blob)
            if faults._PLAN is not None:  # noqa: SLF001
                faults.fire("recordfile.append.pre_fsync")
            handle.flush()
            os.fsync(handle.fileno())
        if creating:
            _fsync_directory(self.path.parent)
        return offset, offset + len(blob)

    def rewrite(self, records: list[Any]) -> None:
        """Atomically replace the file's contents (write-temp-and-rename).

        Durable: the temp file is fsync'd by its appends (or explicitly
        for the empty case), and the parent directory is fsync'd after
        ``os.replace`` so the rename itself survives power loss.
        """
        temp_path = self.path.with_suffix(self.path.suffix + ".tmp")
        temp = RecordFile(temp_path)
        if temp_path.exists():
            temp_path.unlink()
        temp.append_many(records)
        if not records:
            # the fsync'd-append path never ran; create + sync explicitly
            with open(temp_path, "wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
        if faults._PLAN is not None:  # noqa: SLF001
            faults.fire("recordfile.rewrite.replace")
        os.replace(temp_path, self.path)
        if faults._PLAN is not None:  # noqa: SLF001
            faults.fire("recordfile.rewrite.post_replace")
        _fsync_directory(self.path.parent)

    # -- reading ------------------------------------------------------------

    def records(self, *, strict: bool = False) -> Iterator[Any]:
        """Stream all intact records in order (no whole-file read).

        Stops at the first problem: a torn/corrupt tail is silently
        ignored (crash recovery); with ``strict=True`` any corruption
        raises :class:`~repro.core.errors.StorageError`. Use
        :meth:`scan`/:meth:`verify` to resynchronize past mid-file
        corruption instead of stopping.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            while True:
                header = handle.read(_HEADER_LENGTH)
                if not header:
                    return
                if len(header) < _HEADER_LENGTH:
                    self._tail_problem(strict, "truncated header")
                    return
                try:
                    length = int(header[0:8])
                    crc_expected = int(header[9:17], 16)
                except ValueError:
                    self._tail_problem(strict, "unparseable header")
                    return
                if header[8:9] != b" " or header[17:18] != b"\n":
                    self._tail_problem(strict, "malformed header framing")
                    return
                body = handle.read(length + 1)
                if len(body) < length + 1:
                    self._tail_problem(strict, "truncated payload")
                    return
                payload = body[:length]
                if zlib.crc32(payload) & 0xFFFFFFFF != crc_expected:
                    self._tail_problem(strict, "checksum mismatch")
                    return
                if body[length:] != b"\n":
                    self._tail_problem(strict, "missing record terminator")
                    return
                yield json.loads(payload.decode("utf-8"))

    @staticmethod
    def _tail_problem(strict: bool, problem: str) -> None:
        if strict:
            raise StorageError(f"corrupt record file: {problem}")

    # -- salvage scan -------------------------------------------------------

    def scan(self) -> Iterator[ScanEvent]:
        """Full salvage scan: records *and* skipped ranges, with resync.

        Unlike :meth:`records`, corruption does not end the scan: the
        corrupt region is reported as one ``"corrupt"`` event and the
        scan resumes at the next plausible record header. A trailing
        region with no further header is a single ``"tail"`` event.
        (The repair path reads the whole file; the happy path,
        :meth:`records`, streams.)
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        offset = 0
        while offset < len(data):
            parsed = _parse_record(data, offset)
            if isinstance(parsed, str):  # a problem, not a record
                resync = _find_resync(data, offset + 1)
                if resync is None:
                    yield ScanEvent("tail", offset, len(data), problem=parsed)
                    return
                yield ScanEvent("corrupt", offset, resync, problem=parsed)
                offset = resync
                continue
            record, end = parsed
            yield ScanEvent("record", offset, end, record=record)
            offset = end

    def verify(self) -> IntegrityReport:
        """Scan the whole file and report its integrity (read-only)."""
        report = IntegrityReport(
            path=self.path, total_bytes=self.size_bytes()
        )
        for event in self.scan():
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
        """Repair in place: keep intact records, quarantine the rest.

        Every corrupt byte range is preserved losslessly (base64) in a
        ``<name>.corrupt`` sidecar record file — one record per range,
        with its original offset and problem — then the file is
        atomically rewritten with only the intact records. Returns the
        pre-salvage :class:`IntegrityReport`; its
        :attr:`~IntegrityReport.intact_records` is the surviving count.
        A clean file is left untouched (no rewrite, no sidecar).
        """
        if quarantine is None:
            quarantine = self.path.with_name(self.path.name + ".corrupt")
        data = self.path.read_bytes() if self.path.exists() else b""
        report = IntegrityReport(path=self.path, total_bytes=len(data))
        intact: list[Any] = []
        skipped: list[CorruptRange] = []
        for event in self.scan():
            if event.kind == "record":
                report.intact_records += 1
                intact.append(event.record)
            elif event.kind == "corrupt":
                report.corrupt_ranges.append(
                    CorruptRange(event.offset, event.end, event.problem)
                )
                skipped.append(CorruptRange(event.offset, event.end, event.problem))
            else:
                report.tail_problem = event.problem
                report.tail_offset = event.offset
                skipped.append(
                    CorruptRange(event.offset, len(data), event.problem)
                )
        if not skipped:
            return report
        sidecar = RecordFile(quarantine)
        sidecar.append_many(
            {
                "offset": corrupt.offset,
                "length": corrupt.length,
                "problem": corrupt.problem,
                "data_b64": base64.b64encode(
                    data[corrupt.offset : corrupt.end]
                ).decode("ascii"),
            }
            for corrupt in skipped
        )
        self.rewrite(intact)
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
# parsing helpers (module-level: shared by the stream and salvage paths)
# ---------------------------------------------------------------------------

def _parse_record(data: bytes, offset: int) -> tuple[Any, int] | str:
    """Parse one framed record at *offset*; a problem string on failure."""
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
    payload = data[start:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_expected:
        return "checksum mismatch"
    if data[end : end + 1] != b"\n":
        return "missing record terminator"
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return "unparseable payload"
    return record, end + 1


def _find_resync(data: bytes, start: int) -> Optional[int]:
    """Next offset >= *start* where a fully valid record begins.

    Headers end with a newline at byte 17, and intact payloads are
    single-line JSON (never a raw newline), so scanning the newline
    positions finds every candidate; a candidate only counts when the
    complete record (CRC, terminator, JSON) validates.
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
