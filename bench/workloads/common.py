"""Pieces the journaled workloads share: canonical images, the
reopen-and-verify recovery gate, and file-size bookkeeping."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.harness import Context, Measured
from repro.core.database import SeedDatabase
from repro.core.storage.engine import JournaledDatabase
from repro.core.storage.serialize import database_to_dict
from repro.workloads.specgen import GeneratedSpec, SpecShape, generate_spec

__all__ = ["canonical_image", "generate", "recover_and_check", "space_amp"]


def canonical_image(db: SeedDatabase) -> bytes:
    """The database's canonical image bytes (the equality oracle the
    repo's crash matrix uses)."""
    return json.dumps(
        database_to_dict(db), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def generate(ctx: Context, shape: SpecShape) -> GeneratedSpec:
    """The seeded specification every workload starts from."""
    return generate_spec(shape, seed=ctx.seed)


def recover_and_check(
    ctx: Context,
    path: Path,
    live: SeedDatabase,
    measured: Measured,
    *,
    times: int,
) -> None:
    """Reopen the journal *times* times; each recovery must reproduce the
    live database byte for byte and leave verifiable indexes.

    Reports ``recovery_s`` (median reopen time) and the replayed-delta
    count. Only the reopen is timed; the comparison is not.
    """
    expected = canonical_image(live)
    seconds = []
    for __ in range(times):
        with ctx.span("bench.phase.recover"):
            elapsed, reopened = ctx.timed(lambda: JournaledDatabase.open(path))
            seconds.append(elapsed)
        info = reopened.recovery
        measured.counts["replayed_deltas"] = (
            info.applied_deltas + info.applied_txn_deltas + info.applied_change_deltas
        )
        if not info.clean:
            measured.problems.append(f"recovery not clean: {info.problems()}")
        if canonical_image(reopened.db) != expected:
            measured.problems.append(
                "recovered canonical image differs from the live database"
            )
        try:
            reopened.db.indexes.verify()
        except AssertionError as exc:
            measured.problems.append(f"recovered indexes fail verify(): {exc}"[:300])
    measured.extras["recovery_s"] = statistics.median(seconds)


def space_amp(path: Path, live: SeedDatabase) -> float:
    """Final file bytes over the canonical live-image bytes."""
    return path.stat().st_size / len(canonical_image(live))
