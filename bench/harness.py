"""What every workload shares: run context, samples, percentiles, and
the outside-the-program measurements (RSS, bytes written)."""

from __future__ import annotations

import contextlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from bench.trace import Tracer

__all__ = [
    "Context",
    "FlushCounter",
    "Measured",
    "Pace",
    "Zipf",
    "median_ms",
    "tail_ms",
    "peak_rss_mb",
    "bytes_written",
    "merge_passes",
    "mixed",
    "timed_ops",
]

#: tail percentiles tried from the top; the highest one with at least
#: ten samples beyond it is reported (choosing-metrics, section 1)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class FlushCounter:
    """``os.fsync`` for the length of a run: counted, not sent to the device.

    The program's flush policy is untouched (strict per-commit fsync:
    it issues every flush and waits for the call to return); the
    benchmark answers the call itself. On this sandbox the virtual
    disk's flush latency swings by two orders of magnitude within an
    hour (fsync p50 measured between 0.05 ms and 4 ms, p90 11 ms, on an
    otherwise idle box): real flushes would drown every change to the
    program and, at their slowest, alone outlast the time a run is
    allowed. No gate needs them: a killed process leaves the operating
    system's cache intact, so a real flush would prove nothing that the
    reopen-and-verify gates do not prove without it. Flushes are
    *counted* exactly instead.
    """

    def __init__(self) -> None:
        self.count = 0
        self._real = os.fsync

    def install(self) -> None:
        os.fsync = self._counted

    def uninstall(self) -> None:
        os.fsync = self._real

    def _counted(self, fd: int) -> None:
        self.count += 1


class Pace:
    """The host's momentary speed, from a fixed loop run between ops.

    This sandbox shares its cores: for minutes on end everything in it
    runs 1.2 to 1.8 times slower than in the minutes before, in CPU
    time too, and the factor moves from one tenth of a second to the
    next. No statistic taken inside a run can see that, and it is
    larger than any bound. So the benchmark measures it: a pure-Python
    loop that touches nothing of the program is timed (in the thread's
    CPU time) every few milliseconds of measured work, and every
    measured time is scaled by ``REFERENCE_S`` over the loop's time
    around it: it reads as it would on this box running at the speed at
    which the loop takes ``REFERENCE_S``, its undisturbed time here.
    The loop knows nothing of the program, so a change to the program
    moves the measured time and not the scale.
    """

    REFERENCE_S = 0.0008
    #: measured work between two runs of the loop
    EVERY_S = 0.004

    def __init__(self) -> None:
        self.samples: list[float] = []  #: the loop's CPU seconds, in order

    def sample(self) -> None:
        begin = time.thread_time()
        table = {}
        for index in range(6000):
            table[index & 1023] = str(index)
        self.samples.append(time.thread_time() - begin)

    def scale(self, before: int, after: int) -> float:
        """What to multiply a time by that was measured between sample
        *before* (the last one taken ahead of it) and sample *after*."""
        return self.REFERENCE_S * 2 / (self.samples[before] + self.samples[after])

    def timed(self, clock: Callable[[], float], work: Callable[[], Any]) -> tuple[float, Any]:
        """``(scaled seconds, result)`` of one piece of work, with three
        runs of the loop on either side (for set-up and recovery, which
        are long and cannot be sampled inside)."""
        first = len(self.samples)
        for __ in range(3):
            self.sample()
        begin = clock()
        result = work()
        elapsed = clock() - begin
        for __ in range(3):
            self.sample()
        around = self.samples[first:]
        return elapsed * self.REFERENCE_S * len(around) / sum(around), result


@dataclass
class Context:
    """One benchmark run's parameters, handed to every workload phase."""

    seed: int
    seconds: float  #: length of one measured pass the op counts are sized for
    smoke: bool  #: a-few-hundred-ops scale for the tier-1 smoke test
    workdir: Path  #: scratch directory inside the checkout
    #: what times set-up and every op: ``time.thread_time`` (the calling
    #: thread's CPU time, which the hypervisor taking the CPU away does
    #: not lengthen) where the workload waits for nothing, else
    #: ``time.perf_counter``
    clock: Callable[[], float]
    pace: Pace
    tracer: Optional[Tracer] = None

    def rng(self, stream: str) -> random.Random:
        """An independent seeded stream per purpose, so adding draws to
        one generator never shifts another's inputs."""
        return random.Random(f"{self.seed}:{stream}")

    def span(self, name: str) -> Any:
        """A tracer span around benchmark code (no-op when untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def timed(self, work: Callable[[], Any]) -> tuple[float, Any]:
        """``(seconds, result)`` of *work* outside an op loop, on this
        run's clock and scaled to the reference speed."""
        return self.pace.timed(self.clock, work)

    def ops(self, per_second: float, smoke_ops: int) -> int:
        """The fixed op count of a phase in one pass: sized so the phase
        lasts about ``seconds`` on the reference box, never time-boxed,
        so counts repeat exactly for a seed."""
        if self.smoke:
            return smoke_ops
        return max(1, int(per_second * self.seconds))


@dataclass
class Measured:
    """What a workload's measured phase produced."""

    attempted: int = 0
    failed: int = 0
    #: op latencies in seconds, per stream ("op" is the primary one)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: per stream, seconds of timed work that is no sample of the
    #: stream's latency but counts in its ``*_per_s`` (``bulk_evolve``'s
    #: ingest, compaction and checkpoint)
    phases: dict[str, list[float]] = field(default_factory=dict)
    #: work items behind each ``*_per_s`` (defaults to the sample count)
    work: dict[str, int] = field(default_factory=dict)
    #: workload-specific user-facing numbers (recovery_s, space_amp, ...)
    extras: dict[str, float] = field(default_factory=dict)
    #: exact counts: program counters and seed-determined checksums
    counts: dict[str, float] = field(default_factory=dict)
    #: write ops (denominator of the ``*_per_write`` ratios)
    writes: int = 0
    #: correctness-gate failures, one line each
    problems: list[str] = field(default_factory=list)


class Zipf:
    """Zipf(s)-skewed choice over a fixed item list.

    By default popularity is independent of the items' order (they are
    shuffled first); with ``ranked=True`` ``items[0]`` is the most
    popular.
    """

    def __init__(
        self,
        rng: random.Random,
        items: Sequence[Any],
        s: float = 1.0,
        *,
        ranked: bool = False,
    ) -> None:
        self._rng = rng
        self._items = list(items)
        if not ranked:
            rng.shuffle(self._items)
        total = 0.0
        self._cumulative = []
        for rank in range(1, len(self._items) + 1):
            total += 1.0 / rank**s
            self._cumulative.append(total)

    def pick(self) -> Any:
        return self._rng.choices(self._items, cum_weights=self._cumulative)[0]


def mixed(rng: random.Random, mix: Sequence[tuple[str, float]], count: int) -> list[str]:
    """*count* op kinds in seeded order, each kind at exactly its share
    of *mix* (to rounding): a seed decides when the expensive kinds
    come, not how many of them a run holds."""
    kinds = [kind for kind, share in mix for __ in range(round(share * count))]
    names, shares = zip(*mix)
    kinds += rng.choices(names, weights=shares, k=max(0, count - len(kinds)))
    rng.shuffle(kinds)
    return kinds[:count]


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return sorted_values[int(rank) - 1]


def median_ms(latencies: Sequence[float]) -> float:
    return statistics.median(latencies) * 1e3


def tail_ms(latencies: Sequence[float]) -> tuple[float, float]:
    """``(percentile used, its value in ms)``: the highest percentile
    with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(ordered, pct) * 1e3
    return 50.0, statistics.median(ordered) * 1e3


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its waited-for children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def bytes_written() -> int:
    """Bytes this process has passed to ``write`` so far (``wchar``).

    Read from outside the program, so the untraced run needs no hook on
    the record file: over a phase that prints nothing and opens no
    socket, the difference is exactly the bytes appended to plus
    rewritten in the journal.
    """
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar field")


def timed_ops(
    ctx: Context,
    measured: Measured,
    ops: Iterator[tuple[str, Callable[[], Any]]],
    *,
    stream: str = "op",
    errors: tuple[type[BaseException], ...] = (Exception,),
    first_op: int = 1,
    paced: bool = True,
) -> dict[str, list[float]]:
    """Run a closed loop of ``(kind, thunk)`` ops; returns latencies by kind.

    Each op is timed on its own with ``ctx.clock`` and runs under a
    ``bench.op.<kind>`` root span when traced. Between ops, whenever
    ``Pace.EVERY_S`` of measured work has passed, the pace loop runs,
    and every latency is scaled by the loop's time just before and just
    after the op (*paced* is off for a second client thread, whose
    times are taken as they are). An op that raises counts as failed
    (and still contributes its latency: a refused op misses any limit).
    """
    tracer = ctx.tracer
    clock = ctx.clock
    pace = ctx.pace
    timings: list[tuple[str, float, int]] = []  # kind, seconds, pace samples before it
    since_sample = Pace.EVERY_S
    for op_id, (kind, thunk) in enumerate(ops, first_op):
        if paced and since_sample >= Pace.EVERY_S:
            pace.sample()
            since_sample = 0.0
        if tracer is not None:
            tracer.set_op(op_id)
            span = tracer.span("bench.op." + kind)
        else:
            span = contextlib.nullcontext()
        begin = clock()
        try:
            with span:
                thunk()
        except errors as exc:
            measured.failed += 1
            measured.problems.append(f"{kind} op {op_id} failed: {exc!r}"[:300])
        elapsed = clock() - begin
        since_sample += elapsed
        timings.append((kind, elapsed, len(pace.samples)))
        measured.attempted += 1
    if paced:
        pace.sample()  # closes the last bracket
    by_kind: dict[str, list[float]] = {}
    latencies = measured.latencies.setdefault(stream, [])
    for kind, elapsed, taken in timings:
        if paced:
            elapsed *= pace.scale(taken - 1, taken)
        latencies.append(elapsed)
        by_kind.setdefault(kind, []).append(elapsed)
    return by_kind


def merge_passes(passes: Sequence[Measured]) -> Measured:
    """What a run reports from its passes.

    The passes run the same seeded ops on identically prepared states,
    so op *i* of one pass is op *i* of every other: its latency is the
    **fastest** of them. The host only ever adds time (it takes the
    CPU away, evicts the caches), so the fastest of a few attempts is
    the one least disturbed; medians and rates are then taken over the
    ops as usual. A stream whose length the run's own timing decides
    (``team_service``'s reader) has no op *i* to pair and is pooled.
    Timed extras are the fastest pass's; counts are the last pass's.
    """
    last = passes[-1]
    merged = Measured(
        attempted=sum(m.attempted for m in passes),
        failed=sum(m.failed for m in passes),
        work=last.work,
        counts=last.counts,
        writes=last.writes,
        problems=[problem for m in passes for problem in m.problems],
    )
    for field_name in ("latencies", "phases"):
        for stream in getattr(last, field_name):
            columns = [getattr(m, field_name)[stream] for m in passes]
            if len({len(column) for column in columns}) == 1:
                samples = [min(attempts) for attempts in zip(*columns)]
            else:
                samples = [sample for column in columns for sample in column]
            getattr(merged, field_name)[stream] = samples
    for name in last.extras:
        merged.extras[name] = min(m.extras[name] for m in passes)
    return merged
