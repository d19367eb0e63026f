"""The SEED benchmark's one command.

::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N                  # all four, untraced then traced
    python3 bench/run.py --compare A.jsonl B.jsonl # two run sets, per-metric verdicts
    python3 bench/run.py --self-times SPANS.jsonl  # per-layer self-time table

A single-workload run prints every metric by name with its unit and,
as the last line of standard output, the JSON object the benchmark
contract asks for. ``--out FILE`` appends the full run record (every
printed metric plus exact counts) as one JSON line for ``--compare``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the script directory leads sys.path when run as a script; it would
# make ``import trace`` anywhere in the process find bench/trace.py
# instead of the standard library's module. Import as a package from
# the checkout root, and the program from src/.
if sys.path and Path(sys.path[0]).resolve() == HERE:
    del sys.path[0]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import layers, metrics  # noqa: E402
from bench.harness import Context, FlushCounter, Measured, Pace, merge_passes, tail_ms  # noqa: E402
from bench.trace import Tracer, calibrate_span_ns, load_spans, self_times  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

OUT = HERE / "out"


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict[str, Any]:
    """One run of one workload; returns the full run record."""
    module = WORKLOADS[name]
    teardown = getattr(module, "teardown", lambda state: None)
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    flush = FlushCounter()
    flush.install()
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)
    clock = time.perf_counter if module.WAITS_FOR_PROCESSES else time.thread_time
    ctx = Context(
        seed=seed, seconds=seconds / module.PASSES, smoke=smoke, workdir=workdir,
        clock=clock, pace=Pace(), tracer=tracer,
    )
    state = None
    try:
        # an untraced run measures the same ops in several passes, each
        # on a freshly set-up state (unless the workload leaves its state
        # as it found it), and reports every op's fastest pass and the
        # median set-up; a traced run is one pass and reports no setup_s
        setup_seconds, passes, marks = [], [], []
        for number in range(1 if trace else module.PASSES):
            if number < module.SETUP_REPS:
                if state is not None:
                    teardown(state)
                    state = None
                    gc.collect()  # so that peak RSS is one pass's, not two
                if tracer:
                    tracer.quiet = True  # set-up: only the spans its metrics read
                elapsed, state = ctx.timed(lambda: module.setup(ctx, number))
                setup_seconds.append(elapsed)
                if tracer:
                    tracer.quiet = False
            if tracer:
                marks.append(tracer.span_count())
            wall, flushes = time.perf_counter(), flush.count
            passes.append(module.measure(ctx, state))
            wall = time.perf_counter() - wall
            if flush.count > flushes:  # a child server's are the child's
                passes[-1].counts.setdefault("flushes", flush.count - flushes)
            if tracer:
                marks.append(tracer.span_count())
        measured = merge_passes(passes)
        module.verify(ctx, state, measured)
    finally:
        if state is not None:
            teardown(state)
        if tracer:
            tracer.unpatch()
        flush.uninstall()
        for child in multiprocessing.active_children():
            child.join()  # parallel-query workers: wait until each has ended
        shutil.rmtree(workdir, ignore_errors=True)

    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "correct": not measured.problems,
        "problems": measured.problems[:20],
        "counts": measured.counts,
        # how much slower than the reference speed the host ran, so that
        # a reader sees what the scaling took out
        "host_slowdown": statistics.median(ctx.pace.samples) / Pace.REFERENCE_S,
    }
    if tracer is None:
        values, notes = metrics.user_metrics(
            measured,
            statistics.median(setup_seconds),
            getattr(module, "RSS_OF_CHILDREN", False),
        )
        record["notes"] = notes
    else:
        values = _per_layer(name, seed, tracer, marks, measured, wall, module)
    record["metrics"] = {
        metric: {"value": value, "unit": unit}
        for metric, (value, unit) in values.items()
    }
    return record


def _phase_tables(spans: list, marks: list[int]) -> dict[str, dict]:
    """Self-time tables of the setup, measure and recover phases.

    Spans are stored in finishing order, so *marks* (span counts at the
    phase boundaries) split them; the recover phase is whatever ran
    under a ``bench.phase.recover`` span during verification.
    """
    setup, measure, after = spans[: marks[0]], spans[marks[0] : marks[1]], spans[marks[1] :]
    windows = [(s[2], s[3]) for s in after if s[1] == "bench.phase.recover"]
    recover = [
        s for s in after
        if any(start <= s[2] and s[3] <= end for start, end in windows)
    ]
    return {
        "setup": self_times(setup),
        "measure": self_times(measure),
        "recover": self_times(recover),
    }


def _per_layer(
    name: str,
    seed: int,
    tracer: Tracer,
    marks: list[int],
    measured: Measured,
    wall: float,
    module: Any,
) -> dict[str, tuple[float, str]]:
    spans = list(tracer.spans())
    path = OUT / f"spans-{name}-{seed}.jsonl"
    tracer.dump(path, {"workload": name, "seed": seed, "marks": marks})
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
    tables = _phase_tables(spans, marks)
    counts = dict(measured.counts)
    if hasattr(module, "trace_counts"):
        counts.update(module.trace_counts(spans[marks[0] : marks[1]], measured))
    rewritten = tables["measure"].get("core.storage.recordfile.rewrite", {}).get("n", 0)
    counts["bytes_appended"] = counts.get("journal_bytes", 0) - rewritten
    # tracing overhead: spans of the measured phase times the cost of
    # one span on this box, as a share of the phase's traced wall time
    span_s = (marks[1] - marks[0]) * calibrate_span_ns() / 1e9
    counts["trace_overhead_ratio"] = wall / max(wall - span_s, 1e-9)
    counts["trace_spans"] = marks[1] - marks[0]
    counts["op_tail_ms"] = tail_ms(measured.latencies["op"])[1]
    return layers.per_layer_metrics(tables, counts, measured.attempted, measured.writes)


def _print_record(record: dict[str, Any]) -> None:
    head = "workload={workload} seed={seed} seconds={seconds:g} trace={trace}".format(**record)
    print(head + (" smoke" if record["smoke"] else ""))
    notes = record.get("notes", {})
    for name, metric in record["metrics"].items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name, value in sorted(record["counts"].items()):
        print(f"  count {name} = {value:.6g}")
    print(f"  host_slowdown = {record['host_slowdown']:.3g}")
    print(f"  attempted = {record['attempted']}  failed = {record['failed']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def _contract_line(record: dict[str, Any]) -> str:
    """The last line of standard output: exactly the contract's keys,
    and exactly the metrics ``BENCHMARK.json`` lists for this mode."""
    listed = metrics.benchmark_spec()["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: record["metrics"][m["name"]] for m in listed},
        }
    )


def _self_times_report(path: Path) -> None:
    header, spans = load_spans(path)
    tables = _phase_tables(spans, header["marks"])
    print(f"workload={header['workload']} seed={header['seed']}")
    for phase, table in tables.items():
        roots = table.pop("")["total_ns"]
        if not table:
            continue
        print(f"-- {phase}: root spans total {roots / 1e6:.1f} ms")
        print(f"  {'span':58} {'calls':>9} {'total ms':>11} {'self ms':>11} {'share':>7}")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_ns"]):
            share = row["self_ns"] / roots if roots else 0.0
            print(
                f"  {name:58} {row['calls']:9d} {row['total_ns'] / 1e6:11.2f} "
                f"{row['self_ns'] / 1e6:11.2f} {share:7.1%}"
            )


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (so peak RSS is per workload),
    untraced then traced."""
    status = 0
    for trace in ("0", "1"):
        for name in WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", trace,
            ]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few hundred ops per workload")
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-times", metavar="SPANS")
    args = parser.parse_args(argv)
    if args.compare:
        from bench.compare import compare

        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.self_times:
        _self_times_report(Path(args.self_times))
        return 0
    if args.seconds is None:
        args.seconds = float(metrics.benchmark_spec()["run_seconds"])
    if args.workload is None:
        return _run_all(args)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    _print_record(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(_contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
