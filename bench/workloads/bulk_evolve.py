"""``bulk_evolve`` — the same layers as ``analyst_session``, used in batches.

A generated specification is ingested into a journaled database through
``load_into_spades`` (one ``bulk()`` batch: deferred maintenance, one big
journal delta). Then come evolve rounds — a few dozen edits in **one
transaction** followed by ``create_version`` — a version-store
``compact()``, one ``checkpoint(streamed=True)``, a few more rounds (so
recovery has deltas to replay on top of the streamed image), Zipf-chosen
**historical reads** (``versions.view(v)`` materialization, ``find``,
``states_of_item``), and a reopen-and-verify recovery.

``core.bulk``, ``core.versions`` and checkpoint/recovery dominate;
per-item index and consistency maintenance does little. A gain on
``analyst_session``'s per-item path that slows rebuild/finalize, or a
journal change that fattens images, shows here.

Evolve rounds edit values, notes and object classes, not flows: see the
note on relationship re-classification in ``analyst_session``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from bench.harness import Context, Measured, Zipf, bytes_written, timed_ops
from bench.workloads.common import canonical_image, generate, recover_and_check, space_amp
from repro.core.errors import SeedError
from repro.core.storage.engine import JournaledDatabase
from repro.core.storage.serialize import database_from_records, iter_image_records
from repro.core.versions.compaction import RetentionPolicy
from repro.spades.model import spades_schema
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import GeneratedSpec, SpecShape

PASSES = 3
SETUP_REPS = 3  # every pass ingests into a new journal
WAITS_FOR_PROCESSES = False
RECOVERIES = 1

#: ingested specification (~15k statements)
SHAPE = SpecShape(actions=3000, data=1500, flows=4500)
SMOKE_SHAPE = SpecShape(actions=80, data=40, flows=120)
ROUNDS_PER_SECOND = 9
SMOKE_ROUNDS = 12
EDITS_PER_ROUND = 40
#: share of the rounds that run after the checkpoint
TAIL_SHARE = 0.15
READS_PER_SECOND = 3
SMOKE_READS = 10
#: every PIN_EVERY-th version is a release the compaction must keep
PIN_EVERY = 4


@dataclass
class State:
    path: Path
    spec: GeneratedSpec
    rounds: list[list[tuple]]  #: per round: (kind, name, text)
    read_count: int
    journal: Any = None
    tool: Any = None
    versions: list[Any] = field(default_factory=list)  #: version id per round
    #: name -> [(round, description text)], the historical-read oracle
    history: dict[str, list[tuple[int, str]]] = field(default_factory=dict)


def _generate_rounds(ctx: Context, spec: GeneratedSpec, count: int) -> list[list[tuple]]:
    rng = ctx.rng("evolve.rounds")
    plain = list(spec.data_names)
    rng.shuffle(plain)
    rounds = []
    for number in range(count):
        edits: list[tuple] = []
        for index in range(EDITS_PER_ROUND):
            roll = rng.random()
            if roll < 0.4:
                edits.append(("value", rng.choice(spec.action_names), f"round {number}.{index}"))
            elif roll < 0.8 or not plain:
                edits.append(("note", rng.choice(spec.action_names), f"round {number}.{index}"))
            else:
                edits.append(("class", plain.pop(), rng.choice(("InputData", "OutputData"))))
        rounds.append(edits)
    return rounds


def setup(ctx: Context, rep: int = 0) -> State:
    spec = generate(ctx, SMOKE_SHAPE if ctx.smoke else SHAPE)
    rounds = _generate_rounds(ctx, spec, ctx.ops(ROUNDS_PER_SECOND, SMOKE_ROUNDS))
    return State(
        ctx.workdir / f"evolve-{rep}.journal", spec, rounds,
        ctx.ops(READS_PER_SECOND, SMOKE_READS),
    )


def _round_ops(state: State, rounds: range) -> Iterator[tuple[str, Callable[[], Any]]]:
    db = state.tool.db

    def evolve(number: int) -> None:
        with db.transaction():
            for kind, name, text in state.rounds[number]:
                obj = db.get_object(name)
                if kind == "value":
                    obj.sub_object("Description").set_value(text)
                    state.history.setdefault(name, []).append((number, text))
                elif kind == "note":
                    obj.add_sub_object("Note", text)
                else:
                    obj.reclassify(text)
        state.versions.append(db.create_version())

    for number in rounds:
        yield "evolve", lambda number=number: evolve(number)


def _read_ops(
    ctx: Context, state: State, measured: Measured
) -> Iterator[tuple[str, Callable[[], Any]]]:
    db = state.tool.db
    rng = ctx.rng("evolve.reads")
    surviving = set(db.saved_versions())
    # newest first: recent releases are read most
    candidates = [
        (number, vid) for number, vid in reversed(list(enumerate(state.versions)))
        if vid in surviving
    ]
    choose = Zipf(rng, candidates, ranked=True)
    edited = sorted(state.history)

    def read(number: int, vid: Any, name: str) -> None:
        view = db.versions.view(vid)
        found = view.find(name)
        value = found.sub_object("Description").value
        expected = f"performs {name}"
        for edited_in, text in state.history[name]:
            if edited_in <= number:
                expected = text
        if value != expected:
            raise SeedError(
                f"version {vid} shows {name}.Description = {value!r}, "
                f"round {number} left {expected!r}"
            )
        states = db.versions.states_of_item(("o", found.oid))
        measured.counts["history_states_read"] = (
            measured.counts.get("history_states_read", 0) + len(states)
        )

    for __ in range(state.read_count):
        number, vid = choose.pick()
        yield "history", lambda number=number, vid=vid, name=rng.choice(edited): read(number, vid, name)


def measure(ctx: Context, state: State) -> Measured:
    measured = Measured()
    written_before = bytes_written()
    state.journal = JournaledDatabase.open(state.path, schema=spades_schema(), name="spec")
    state.tool = SpadesTool(db=state.journal.db)
    db = state.tool.db

    def run(ops: Any, stream: str = "op") -> dict[str, list[float]]:
        return timed_ops(ctx, measured, ops, stream=stream, errors=(SeedError,),
                         first_op=measured.attempted + 1)

    def phase(name: str, work: Callable[[], Any]) -> float:
        """Timed work that is no evolve round: it counts in ``op_per_s``
        (a slowdown of ingest, compaction or checkpoint shows there),
        not in ``op_p50_ms``, which is per round."""
        return run([(name, work)], stream="phase")[name][0]

    def ingest() -> None:
        load_into_spades(state.spec, state.tool)
        state.versions.append(db.create_version())  # the ingested baseline

    ingest_s = phase("ingest", ingest)
    state.versions.clear()  # rounds index state.versions from 0
    before_checkpoint = int(len(state.rounds) * (1 - TAIL_SHARE))
    run(_round_ops(state, range(before_checkpoint)))

    pins = frozenset(state.versions[PIN_EVERY - 1 :: PIN_EVERY])
    policy = RetentionPolicy(
        squash_chains=True, snapshot_interval=16, keep_last=2, pins=pins, gc_tombstones=True
    )
    stats: Any = None

    def compact() -> None:
        nonlocal stats
        stats = db.compact(policy)

    phase("compact", compact)
    measured.extras["checkpoint_s"] = phase(
        "checkpoint", lambda: state.journal.checkpoint(streamed=True)
    )
    run(_round_ops(state, range(before_checkpoint, len(state.rounds))))
    written = bytes_written() - written_before
    measured.phases["op"] = measured.latencies.pop("phase")
    evolved = sum(len(edits) + 1 for edits in state.rounds)
    statements = state.spec.statement_count()
    measured.work["op"] = statements + evolved
    run(_read_ops(ctx, state, measured), stream="read")
    measured.writes = 1 + len(state.rounds)
    measured.extras["journal_bytes_per_write"] = written / (statements + evolved)
    counts = measured.counts
    counts["journal_bytes"] = written
    counts["ingest_s"] = ingest_s
    counts["ingested_statements"] = statements
    counts["states_dropped"] = stats.discarded_states + stats.tombstone_states_dropped
    counts["versions_squashed"] = len(stats.squashed_versions)
    counts["stored_states"] = db.versions.total_stored_states()
    counts["versions_surviving"] = len(db.saved_versions())
    return measured


def verify(ctx: Context, state: State, measured: Measured) -> None:
    db = state.tool.db
    expected = {
        "Action": len(state.spec.action_names),
        "Data": len(state.spec.data_names),
    }
    for class_name, count in expected.items():
        found = len(db.objects(class_name))
        if found != count:
            measured.problems.append(f"{found} live {class_name} objects, ingested {count}")
    try:
        db.indexes.verify()
    except AssertionError as exc:
        measured.problems.append(f"live indexes fail verify(): {exc}"[:300])
    # a database rebuilt from the streamed image records must be
    # byte-identical to the monolithic canonical image
    if canonical_image(database_from_records(iter_image_records(db))) != canonical_image(db):
        measured.problems.append("streamed image differs from the monolithic image")
    measured.extras["space_amp"] = space_amp(state.path, db)
    recover_and_check(ctx, state.path, db, measured, times=RECOVERIES)
