"""The fused scan kernel: one implementation, run in-thread or pooled.

A *shardable scan* — zero or more ``Select`` nodes over a bare extent or
association scan, what the planner decomposes into a :class:`ShardSpec`
— is evaluated by exactly one piece of code, :func:`run_kernel`: a tight
loop over a sorted id list that checks liveness (deleted /
pattern-context rows are skipped), family membership, and the peeled
predicates inline, without a generator per
operator. The id list comes from the :class:`~repro.core.indexes.
IndexLayer`, which already maintains every class extent and association
family as a sorted id set.

The kernel runs in one of two ways, and nothing else differs between a
serial and a parallel plan:

* **in-thread** (:func:`run_in_thread`) — on the calling thread, over
  consecutive :data:`CHUNK`-sized slices of the id list, yielding each
  slice's rows before evaluating the next: rows stream, memory is
  O(chunk), and a consumer that stops early stops the scan. Every plain
  plan executes its scans this way.
* **pooled** (:func:`run_sharded`) — the id list is cut into contiguous
  near-equal ranges (``IndexLayer.extent_shards`` /
  ``family_relationship_shards``), each range is one kernel call on a
  forked worker, and the results concatenate in shard order — which,
  for contiguous ranges of a sorted list, is the in-thread row order.
  The workers hold the database as a copy-on-write snapshot and ship
  results back as compact ``("o", oid)`` / ``("v", value)`` cells the
  parent decodes through ``object_by_oid``. Empty ranges are never
  dispatched, and a scan with at most one non-empty range runs
  in-thread.

A warm worker narrows an equality scan before it runs the kernel. When
one of an extent spec's cell tests is a ``ValueEquals`` with a scalar
``expected`` (the in-thread kernel's fast-path condition), the worker
searches a cached column of its range's values with ``list.index`` —
in C — and hands only the ids found there to :func:`run_kernel`. The
search compares with the same ``==`` as the test, plus an identity
shortcut, so the candidates are a superset of the matches, in id
order; the kernel then re-applies liveness and every peeled test, so it alone still decides each row, and the rows
and their order are those of a scan of the whole range.

**Where a pool runs.** The planner places a ``Parallel`` node only
where the pool pays (:func:`pool_pays`) and the host can run it
(:func:`host_can_pool`: ``fork`` exists and the process may run on
more than one CPU). Anywhere else the same config yields the serial
plan, which runs the same kernel in-thread. Under the GIL a thread
fan-out loses to no fan-out at all, so there is none.

**Pool lifetime.** The runtime keeps one warm pool per process and
reuses it while the database it was forked from is unchanged. Its
key is the database (held by weak reference, so a new database at a
recycled address never matches), the database's write counter at fork
time, and the worker count. ``SeedDatabase._writes`` goes up wherever
live item state can change: on entry to every primitive update (inside
a unit of work or not, so a scan inside an open transaction never reads
a snapshot taken before the transaction's own updates), in every
rollback, in :func:`~repro.core.bulk.wire_item_states` (replay,
check-out, image load, version selection, view restore), in
``migrate_schema``, and where tombstone collection drops records. A
pooled scan whose key matches sends each worker only ``(spec, its shard
indices, shard count)`` — the parent needs nothing but
:func:`scan_size` to know which shards are non-empty — and the worker
cuts its ranges from its own snapshot with :func:`_scan_ids`, keeping
the cut for the pool's lifetime, and with it the value column of each
range an equality scan has read. Cut and columns live and die
together: nothing mutates a worker's copy-on-write snapshot, and any
write retires the pool that holds them. A key mismatch retires the
pool (its idle workers see their pipe close and exit, and are reaped)
and the scan forks a fresh one; ``stats.pools_started`` counts the
forks. A pool also ends at interpreter exit, and a forked child never
inherits its parent's pool.

**What pickles.** The spec — its cell and row predicates — is pickled
to reach a warm worker. Structured predicates and module-level
functions pickle; a closure or lambda does not, and such a scan runs
in-thread and counts as a fallback. Result rows and a query error
raised in a worker are pickled back.

**Failure policy.** The pool is wired through :mod:`repro.core.faults`
failpoints — ``parallel.shard.dispatch`` fires before each shard is
submitted, ``parallel.shard.result`` before each shard's result is
collected — and every result wait is bounded by :data:`TIMEOUT_S`, so a
poisoned or crashed worker can never hang the merge. On an
infrastructure failure (I/O error, broken pool, timeout, a spec or
result that does not pickle) the scan is simply run in-thread instead
(counted in :data:`stats`). A pool that failed or timed out, or whose
scan raised, is torn down with its workers killed and reaped,
never reused. :class:`~repro.core.faults.SimulatedCrash` and errors
raised by the query itself (e.g. a predicate rejecting its input)
propagate unchanged — they are deterministic and would recur
in-thread.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import multiprocessing
import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Callable, Iterator, NoReturn, Optional

from repro.core import faults
from repro.core.errors import QueryError
from repro.core.objects import SeedObject
from repro.core.query.predicates import And, NamePrefix, ValueEquals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner imports us)
    from repro.core.database import SeedDatabase

__all__ = [
    "DISPATCH_POINT",
    "RESULT_POINT",
    "ParallelConfig",
    "ParallelStats",
    "ShardSpec",
    "host_can_pool",
    "pool_pays",
    "row_filter",
    "run_in_thread",
    "run_kernel",
    "run_sharded",
    "scan_size",
    "stats",
]

#: failpoint fired before each shard is handed to the worker pool
DISPATCH_POINT = "parallel.shard.dispatch"
#: failpoint fired before each shard's result is collected from the pool
RESULT_POINT = "parallel.shard.result"

#: the pooled-vs-in-thread cost model, in scanned-row units: a base scan
#: of ``S`` rows goes to the pool only when ``S >= THRESHOLD`` (below it
#: pool spin-up dominates) and ``S / shards + DISPATCH_OVERHEAD < S``
#: (the per-shard cost plus a fixed dispatch charge must beat one thread)
THRESHOLD = 100_000
DISPATCH_OVERHEAD = 25_000
#: bound on every wait for one shard's result (seconds)
TIMEOUT_S = 60.0
#: ids one in-thread kernel call evaluates before its rows are yielded
CHUNK = 1024


@dataclass(frozen=True)
class ParallelConfig:
    """How many shards a pooled scan is cut into.

    Hashable, so plans cache per config. Whether a scan is pooled at
    all is not configured: the planner decides it per scan from the
    extent size (:func:`pool_pays`) and the host (:func:`host_can_pool`).
    """

    shards: int = 4

    def __post_init__(self) -> None:
        # exactly int: a bool or a float would validate as a number
        if type(self.shards) is not int or not 1 <= self.shards <= 64:
            raise QueryError(f"shards must be an int in 1..64, got {self.shards!r}")


@dataclass
class ParallelStats:
    """Process-wide counters for observability and tests."""

    dispatched_shards: int = 0
    completed_shards: int = 0
    fallbacks: int = 0
    #: pools forked (a warm pool serves many scans)
    pools_started: int = 0

    def reset(self) -> None:
        self.dispatched_shards = 0
        self.completed_shards = 0
        self.fallbacks = 0
        self.pools_started = 0


#: module-global counters (reset freely in tests)
stats = ParallelStats()


def pool_pays(scanned: int, shards: int) -> bool:
    """Whether a base scan of *scanned* rows is worth a worker pool."""
    return scanned >= THRESHOLD and scanned / shards + DISPATCH_OVERHEAD < scanned


def host_can_pool() -> bool:
    """Whether this host can run a pooled scan to any gain: the workers
    are forked, and on one CPU they would only take turns."""
    return "fork" in multiprocessing.get_all_start_methods() and _cpus() > 1


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    host has one (a pinned container), else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """A shardable scan, decomposed by the planner.

    ``kind`` is ``"extent"`` (one object column) or ``"rel"`` (the two
    role columns). ``cell_tests`` are the peeled
    column-bound predicates as ``(column index, cell predicate)``
    pairs; ``row_tests`` are opaque row-dict predicates. Both apply in
    the order given (predicates are pure, so order only matters for
    determinism of side-effect-free evaluation cost).
    """

    kind: str
    name: str
    columns: tuple[str, ...]
    cell_tests: tuple[tuple[int, Any], ...]
    row_tests: tuple[Any, ...]


def _specialize(predicate: Any) -> Callable[[SeedObject], bool]:
    """A fast closure equivalent of a structured object predicate.

    Structured predicates are frozen dataclasses whose ``__call__``
    re-reads their fields per row; the kernels run millions of rows, so
    hoisting the fields into closure cells measurably matters. Each
    branch copies the original predicate's semantics exactly (see
    :mod:`repro.core.query.predicates`); anything unrecognized is
    returned as-is.
    """
    if isinstance(predicate, ValueEquals):
        expected = predicate.expected

        def value_test(obj: SeedObject) -> bool:
            value = obj.value
            return value is not None and value == expected

        return value_test
    if isinstance(predicate, NamePrefix):
        prefix = predicate.prefix
        return lambda obj: str(obj.name).startswith(prefix)
    if isinstance(predicate, And):
        parts = tuple(_specialize(part) for part in predicate.parts)
        return lambda obj: all(part(obj) for part in parts)
    return predicate


def run_kernel(db: "SeedDatabase", spec: ShardSpec, ids: list[int]) -> list[tuple]:
    """Evaluate *spec* over *ids*: fused scan + peeled predicates.

    The one implementation of a shardable scan. Rows come out in *ids*
    order with ``SeedDatabase.iter_objects`` / ``iter_relationships``
    row-level semantics (deleted and pattern-context rows skipped,
    specializations included), so the concatenation of
    consecutive id ranges is row-equal to one call over the whole list.
    """
    if spec.kind == "extent":
        return _extent_kernel(db, spec, ids)
    return _rel_kernel(db, spec, ids)


def _extent_kernel(
    db: "SeedDatabase", spec: ShardSpec, ids: list[int]
) -> list[tuple]:
    # liveness is tested with inline slot loads, not the
    # ``in_pattern_context`` property: the property's descriptor call
    # and ancestor walk triple the per-object cost of this loop, and
    # extent members overwhelmingly have no parent — only that rare
    # case falls back to the property for the full ancestor chain
    objects = db._objects  # noqa: SLF001 - kernel-internal hot path
    rows: list[tuple] = []
    append = rows.append
    if len(spec.cell_tests) == 1 and not spec.row_tests:
        predicate = spec.cell_tests[0][1]
        if _scalar_equality(predicate):
            # selectivity-first: the compare rejects almost every object
            # with a single slot load
            expected = predicate.expected
            for oid in ids:
                obj = objects[oid]
                if (
                    obj.value == expected
                    and not obj.deleted
                    and not (
                        obj.is_pattern
                        or obj.parent is not None
                        and obj.in_pattern_context
                    )
                ):
                    append((obj,))
            return rows
    keep = _object_test(spec)
    for oid in ids:
        obj = objects[oid]
        if (
            obj.deleted
            or obj.is_pattern
            or obj.parent is not None
            and obj.in_pattern_context
        ):
            continue
        if keep is None or keep(obj):
            append((obj,))
    return rows


def _scalar_equality(predicate: Any) -> bool:
    """Whether *predicate* is a ``ValueEquals`` with a scalar expected
    value. Its ``==`` is total and side-effect free, so comparing the
    value of an object the kernel would skip (deleted, pattern) first
    is harmless."""
    return isinstance(predicate, ValueEquals) and isinstance(
        predicate.expected, (str, int, float)
    )


def _object_test(spec: ShardSpec) -> Optional[Callable[[SeedObject], bool]]:
    """An extent spec's peeled predicates as one test (None: keep all)."""
    tests = [_specialize(predicate) for __, predicate in spec.cell_tests]
    if spec.row_tests:
        column = spec.columns[0]  # an extent scan has exactly one column
        row_tests = spec.row_tests
        tests.append(lambda obj: all(test({column: obj}) for test in row_tests))
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]
    return lambda obj: all(test(obj) for test in tests)


def _rel_kernel(db: "SeedDatabase", spec: ShardSpec, ids: list[int]) -> list[tuple]:
    # the id list is the whole family's, so membership in the wanted
    # association's own family is tested first: one ``in`` rejects every
    # sibling association's rows
    relationships = db._relationships  # noqa: SLF001 - kernel-internal hot path
    wanted = db.schema.association(spec.name)
    family = {wanted, *wanted.all_specials()}
    keep = row_filter(spec)
    rows: list[tuple] = []
    append = rows.append
    for rid in ids:
        rel = relationships[rid]
        if rel.association not in family or rel.deleted or rel.in_pattern_context:
            continue
        row = rel.endpoints()
        if keep is None or keep(row):
            append(row)
    return rows


def row_filter(spec: ShardSpec) -> Optional[Callable[[tuple], bool]]:
    """The spec's peeled predicates as one test over a produced row.

    ``None`` when nothing was peeled (every row passes). The planner's
    index join applies this to the rows it fetches instead of scanning.
    """
    cell_tests = spec.cell_tests
    columns = spec.columns
    row_tests = spec.row_tests
    if not row_tests:
        if not cell_tests:
            return None
        if len(cell_tests) == 1:  # the common shape: no genexpr per row
            ((index, test),) = cell_tests
            return lambda row: test(row[index])
        return lambda row: all(test(row[index]) for index, test in cell_tests)

    def keep(row: tuple) -> bool:
        if not all(test(row[index]) for index, test in cell_tests):
            return False
        row_dict = dict(zip(columns, row))
        return all(test(row_dict) for test in row_tests)

    return keep


def _scan_ids(db: "SeedDatabase", spec: ShardSpec, shards: int) -> list[list[int]]:
    """The spec's base scan ids, cut into *shards* consecutive ranges.

    Association scans shard at family granularity (like the index); the
    kernel applies the association check per row.
    """
    if spec.kind == "extent":
        wanted = db.schema.entity_class(spec.name)
        return db.indexes.extent_shards(wanted, shards)
    root_name = db.schema.association(spec.name).family_root().name
    return db.indexes.family_relationship_shards(root_name, shards)


def scan_size(db: "SeedDatabase", kind: str, name: str) -> int:
    """Rows the kernel reads for a base scan: the length of the id list
    :func:`_scan_ids` cuts up — for an association scan the whole
    family's, whichever member is asked for. The unit of the planner's
    read-cost model and the input of :func:`pool_pays`."""
    if kind == "extent":
        return db.indexes.extent_size(db.schema.entity_class(name))
    root_name = db.schema.association(name).family_root().name
    return db.indexes.family_size(root_name)


def run_in_thread(db: "SeedDatabase", spec: ShardSpec) -> Iterator[tuple]:
    """Stream *spec*'s rows from the calling thread, a chunk at a time."""
    (ids,) = _scan_ids(db, spec, 1)
    for start in range(0, len(ids), CHUNK):
        yield from run_kernel(db, spec, ids[start : start + CHUNK])


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------

#: infrastructure failures after which the scan is run in-thread;
#: anything else (SimulatedCrash, query-level SeedErrors, predicate
#: bugs) is deterministic and propagates unchanged
_FALLBACK_ERRORS = (OSError, TimeoutError, pickle.PicklingError, EOFError)

#: the warm pool (see "Pool lifetime"); guarded by _POOL_LOCK, so
#: concurrent pooled scans serialize on entry
_POOL: Optional["_Pool"] = None
_POOL_LOCK = threading.Lock()


class _Pool:
    """Forked workers serving scans over one frozen database state."""

    def __init__(self, db: "SeedDatabase", workers: int) -> None:
        self.database = weakref.ref(db)
        self.writes = db._writes  # noqa: SLF001 - the pool key
        self.pids: list[int] = []
        self.conns: list[Connection] = []
        try:
            for __ in range(workers):
                parent_end, child_end = multiprocessing.Pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(db, child_end, [parent_end, *self.conns])
                child_end.close()
                self.pids.append(pid)
                self.conns.append(parent_end)
        except BaseException:
            self.close(kill=True)
            raise
        stats.pools_started += 1

    def serves(self, db: "SeedDatabase", workers: int) -> bool:
        """Whether this pool's snapshot is *db*'s current state."""
        return (
            self.database() is db
            and self.writes == db._writes  # noqa: SLF001
            and len(self.pids) == workers
        )

    def result(self, worker: int) -> list:
        """*worker*'s next shard reply, waited for at most TIMEOUT_S."""
        conn = self.conns[worker]
        if not conn.poll(TIMEOUT_S):
            raise TimeoutError(
                f"shard worker {self.pids[worker]} sent nothing in {TIMEOUT_S} s"
            )
        reply = conn.recv_bytes()
        try:
            ok, payload = pickle.loads(reply)
        except Exception as error:  # an error class that cannot be rebuilt here
            raise pickle.PicklingError(f"a shard reply does not unpickle: {error}")
        if not ok:
            raise payload
        return payload

    def close(self, *, kill: bool) -> None:
        """Stop and reap the workers. An idle worker exits when its pipe
        closes; *kill* stops a busy or stuck one first."""
        for pid, conn in zip(self.pids, self.conns):
            if kill:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            conn.close()
        for pid in self.pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _serve(
    db: "SeedDatabase", conn: Connection, inherited: list[Connection]
) -> NoReturn:
    """A pool worker's life, in the forked child: answer each scan
    message with one reply per shard until the parent closes the pipe."""
    try:
        for other in inherited:  # other workers' parent ends: their EOF
            other.close()
        # the inherited heap is never garbage here, and a full collection
        # would write to — and so copy — every page of the snapshot
        gc.freeze()
        cuts: dict[tuple, list] = {}
        while True:
            try:
                message = conn.recv_bytes()
            except EOFError:
                break
            spec, indices, shards = pickle.loads(message)
            for index in indices:
                conn.send_bytes(_shard_reply(db, spec, index, shards, cuts))
    finally:
        os._exit(0)


def _shard_reply(
    db: "SeedDatabase", spec: ShardSpec, index: int, shards: int, cuts: dict
) -> bytes:
    """Shard *index* of *shards*, pickled: ``(True, encoded rows)``, or
    ``(False, the error)`` for the parent to raise.

    *cuts* is what the worker derived from its snapshot, kept for the
    pool's lifetime: each scan's shard cut, and beside it (keyed by the
    cut key and the shard index) the shard's value column once an
    equality scan has read it.
    """
    try:
        key = (spec.kind, spec.name, shards)
        cut = cuts.get(key)
        if cut is None:
            cut = cuts[key] = _scan_ids(db, spec, shards)
        ids = _equality_candidates(db, spec, cut[index], cuts, (key, index))
        reply = (True, [_encode_row(row) for row in run_kernel(db, spec, ids)])
    except Exception as error:  # the worker's boundary: the parent decides
        reply = (False, error)
    try:
        return pickle.dumps(reply)
    except Exception as error:  # rows or an error that do not pickle
        return pickle.dumps(
            (False, pickle.PicklingError(f"shard {index} does not pickle: {error}"))
        )


def _equality_candidates(
    db: "SeedDatabase", spec: ShardSpec, ids: list[int], cuts: dict, key: tuple
) -> list[int]:
    """The ids of *ids* whose value may equal the scalar an extent spec's
    ``ValueEquals`` test expects, in id order (a superset of the
    matches, see "The fused scan kernel"); all of *ids* for any other
    spec. The shard's value column is built on first use and kept in
    *cuts* under *key*. Stored values are of SEED's scalar sorts, whose
    ``==`` does not raise, so a ``ValueError`` ends the search.
    """
    equalities = [test for __, test in spec.cell_tests if _scalar_equality(test)]
    if spec.kind != "extent" or not equalities:
        return ids
    expected = equalities[0].expected
    column = cuts.get(key)
    if column is None:
        objects = db._objects  # noqa: SLF001 - kernel-internal hot path
        column = cuts[key] = [objects[oid].value for oid in ids]
    found: list[int] = []
    position = -1
    try:
        while True:
            position = column.index(expected, position + 1)
            found.append(ids[position])
    except ValueError:
        return found


def _retire(kill: bool) -> None:
    """Drop the warm pool and stop its workers."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.close(kill=kill)


def _forget_pool() -> None:
    """In a forked child: the pool's workers are its parent's."""
    global _POOL
    if _POOL is not None:
        for conn in _POOL.conns:
            conn.close()
        _POOL = None


# the workers hold nothing to flush: at exit they are killed, not waited for
atexit.register(_retire, True)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _encode_row(row: tuple) -> tuple:
    return tuple(
        ("o", cell.oid) if isinstance(cell, SeedObject) else ("v", cell)
        for cell in row
    )


def _decode_row(db: "SeedDatabase", row: tuple) -> tuple:
    return tuple(
        db.object_by_oid(payload) if tag == "o" else payload
        for tag, payload in row
    )


def run_sharded(db: "SeedDatabase", spec: ShardSpec, *, shards: int) -> list[tuple]:
    """Run *spec* across the warm pool; the planner's Parallel runtime.

    Returns the merged rows in shard order — the in-thread row order.
    Only non-empty shards are dispatched; with at most one of them, or
    after an infrastructure failure in the pool, the scan runs in-thread.
    """
    # the ranges are filled first to last: with fewer ids than shards,
    # only the first scan_size of them are non-empty
    busy = min(scan_size(db, spec.kind, spec.name), shards)
    if busy > 1:
        try:
            return _run_pooled(db, spec, busy, shards)
        except _FALLBACK_ERRORS:
            stats.fallbacks += 1
    return list(run_in_thread(db, spec))


def _run_pooled(
    db: "SeedDatabase", spec: ShardSpec, busy: int, shards: int
) -> list[tuple]:
    """Run the first *busy* of *shards* ranges on the warm pool, forking
    it first when *db* changed since (see "Pool lifetime")."""
    global _POOL
    workers = min(busy, _cpus())
    try:  # worker w runs shards w, w + workers, ...: one message each
        messages = [
            pickle.dumps((spec, range(worker, busy, workers), shards))
            for worker in range(workers)
        ]
    except (AttributeError, TypeError) as error:  # a closure, a lock, ...
        raise pickle.PicklingError(f"the scan does not pickle: {error}")
    with _POOL_LOCK:
        if _POOL is None or not _POOL.serves(db, workers):
            _retire(kill=False)
            _POOL = _Pool(db, workers)
        pool = _POOL
        try:
            for __ in range(busy):
                if faults._PLAN is not None:  # noqa: SLF001 - documented guard idiom
                    faults.fire(DISPATCH_POINT)
                stats.dispatched_shards += 1
            for conn, message in zip(pool.conns, messages):
                conn.send_bytes(message)
            encoded: list = []
            for index in range(busy):
                if faults._PLAN is not None:  # noqa: SLF001
                    faults.fire(RESULT_POINT)
                encoded.extend(pool.result(index % workers))
                stats.completed_shards += 1
        except BaseException:
            # replies may still be in flight, or a worker hangs: never reuse
            _retire(kill=True)
            raise
    return [_decode_row(db, row) for row in encoded]
