"""The user-facing metric vocabulary: what each number means, its unit,
direction and regression bound.

``BENCHMARK.json`` holds the end-to-end metrics every workload reports
(the contract wants each of them on each workload, never zero). The
workload-specific user-facing numbers — a second op stream, recovery,
checkpoint, bytes written, space — cannot be reported by every
workload (``query_mix`` writes nothing and has no file), so they live
here as :data:`EXTRA`: printed by the same untraced run, gated by
``--compare`` with their own bounds, and mirrored per layer in the
traced run.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from bench.harness import Measured, median_ms, peak_rss_mb, tail_ms

__all__ = ["benchmark_spec", "EXTRA", "user_metrics"]

#: name -> (unit, better, bound); which workloads report which is
#: tabulated in ``bench/README.md``
EXTRA: dict[str, tuple[str, str, float]] = {
    # the tail is the noisiest number here (its ten-seed spread passed
    # 0.25 in a noisy hour), so the contract does not gate it
    "op_tail_ms": ("ms", "lower", 0.25),
    "read_per_s": ("1/s", "higher", 0.25),
    "read_p50_ms": ("ms", "lower", 0.25),
    "read_tail_ms": ("ms", "lower", 0.25),
    "recovery_s": ("s", "lower", 0.25),
    "checkpoint_s": ("s", "lower", 0.25),
    # exact for a seed; across seeds team_service's writer checks out
    # 1-3 roots a cycle and its bytes per cycle spread 6 %
    "journal_bytes_per_write": ("bytes", "lower", 0.10),
    "space_amp": ("ratio", "lower", 0.05),
}


@functools.lru_cache(maxsize=None)
def benchmark_spec() -> dict:
    """``BENCHMARK.json`` at the root of the checkout."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def user_metrics(
    measured: Measured, setup_s: float, rss_of_children: bool
) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """End-to-end and extra metrics of one untraced run as
    ``name -> (value, unit)``, plus notes (which tail percentile, how
    many samples) for the printed report. A stream's rate is its work
    over the time its ops (and phases) took: the loops are closed and
    have no think time, so nothing else passes between two ops."""
    metrics: dict[str, tuple[float, str]] = {"setup_s": (setup_s, "s")}
    notes: dict[str, str] = {}
    for stream in ("op", "read"):
        latencies = measured.latencies.get(stream)
        if not latencies:
            continue
        work = measured.work.get(stream, len(latencies))
        seconds = sum(latencies) + sum(measured.phases.get(stream, ()))
        metrics[f"{stream}_per_s"] = (work / seconds, "1/s")
        metrics[f"{stream}_p50_ms"] = (median_ms(latencies), "ms")
        pct, value = tail_ms(latencies)
        metrics[f"{stream}_tail_ms"] = (value, "ms")
        notes[f"{stream}_per_s"] = f"{work} items in {seconds:.3f} s"
        notes[f"{stream}_p50_ms"] = f"{len(latencies)} samples"
        notes[f"{stream}_tail_ms"] = f"p{pct:g} of {len(latencies)} samples"
    metrics["peak_rss_mb"] = (peak_rss_mb(children=rss_of_children), "MB")
    for name, value in measured.extras.items():
        metrics[name] = (value, EXTRA[name][0])
    return metrics, notes
