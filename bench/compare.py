"""``bench/run.py --compare A.jsonl B.jsonl`` — B judged against A.

Both files hold run records appended by ``--out``. For every
(workload, metric) pair that has a bound — the end-to-end metrics of
``BENCHMARK.json`` and the workload-specific ones of
:data:`bench.metrics.EXTRA` — one row shows both medians, quartiles and
sample counts, and a verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, on either side) is wider than the bound, so the comparison
  cannot tell; never reported as unchanged;
* ``ok`` — otherwise.

Exits non-zero on a regression or when B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench import metrics

__all__ = ["compare"]


def _load(path: Path) -> tuple[dict, dict]:
    """(values by (workload, metric), [attempted, failed] by workload)."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    ops: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue  # traced timings carry the tracing overhead
            workload = record["workload"]
            ops[workload][0] += record["attempted"]
            ops[workload][1] += record["failed"] + (0 if record["correct"] else 1)
            for name, metric in record["metrics"].items():
                values[(workload, name)].append(metric["value"])
    return values, ops


def _summary(samples: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    first, __, third = statistics.quantiles(samples, n=4)
    return median, first, third


def compare(path_a: Path, path_b: Path) -> int:
    bounds = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in metrics.benchmark_spec()["end_to_end"]
    }
    bounds.update(
        {name: (better, bound) for name, (__, better, bound) in metrics.EXTRA.items()}
    )
    values_a, ops_a = _load(path_a)
    values_b, ops_b = _load(path_b)
    status = 0
    print(
        f"{'workload':16} {'metric':24} {'A median [q1, q3] n':>40} "
        f"{'B median [q1, q3] n':>40} {'change':>8} {'bound':>6}  verdict"
    )
    for key in sorted(set(values_a) & set(values_b)):
        workload, name = key
        if name not in bounds:
            continue
        better, bound = bounds[name]
        med_a, q1_a, q3_a = _summary(values_a[key])
        med_b, q1_b, q3_b = _summary(values_b[key])
        change = (med_b - med_a) / med_a if med_a else 0.0
        worse = -change if better == "higher" else change
        spread = max(
            (q3_a - q1_a) / abs(med_a) if med_a else 0.0,
            (q3_b - q1_b) / abs(med_b) if med_b else 0.0,
        )
        if worse > bound:
            verdict = "regressed"
            status = 1
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        side_a = f"{med_a:.5g} [{q1_a:.5g}, {q3_a:.5g}] {len(values_a[key])}"
        side_b = f"{med_b:.5g} [{q1_b:.5g}, {q3_b:.5g}] {len(values_b[key])}"
        print(
            f"{workload:16} {name:24} {side_a:>40} {side_b:>40} "
            f"{change:+8.1%} {bound:6.2f}  {verdict}"
        )
    for workload in sorted(set(ops_a) & set(ops_b)):
        share_a = ops_a[workload][1] / max(ops_a[workload][0], 1)
        share_b = ops_b[workload][1] / max(ops_b[workload][0], 1)
        print(f"{workload:16} failed share      A {share_a:.4%}   B {share_b:.4%}")
        if share_b > share_a:
            print(f"{workload:16} B failed a larger share of its operations")
            status = 1
    return status
