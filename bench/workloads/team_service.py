"""``team_service`` — a team sharing one master through check-out/check-in.

``python -m repro serve`` runs in a **child process** (started through
``bench/serve_child.py``, which only adds the flush counter) over a
preloaded journal (strict per-commit fsync, the CLI's default
``--maintain-every``) and is driven by two :class:`ServiceClient` connections from the
benchmark process, each a closed loop on its own thread:

* a *writer*: check-out of 1–3 Zipf-chosen roots → 1–5 local edits →
  check-in, for a fixed number of cycles;
* a *reader*: pins a snapshot and issues ``find`` 90 % /
  ``objects(class)`` 8 % / ``counts`` 2 %, ``THINK_S`` after each
  answer, re-pinning after every ``REPIN_CYCLES`` check-ins, until the
  writer has finished.

This is the only workload through ``multiuser.*`` and the wire, with
writes beside reads on one master: a snapshot/MVCC gain for readers
that costs check-in latency (or the reverse) is visible here. After the
last acknowledgement the server is SIGKILLed, the journal is ``fsck``ed
and reopened, and every acknowledged check-in must be present. SIGKILL
keeps the operating system's cache, so this proves ack-after-append,
not durability on a device.

A traced run hosts ``SeedService.start_in_thread()`` in the benchmark
process instead, so that server-side spans exist; its timings are
therefore those of three threads sharing one interpreter lock, and are
only comparable with other traced runs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from bench.harness import Context, Measured, Zipf, timed_ops
from bench.workloads.common import canonical_image, generate
from repro.core.errors import SeedError
from repro.core.storage.engine import JournaledDatabase
from repro.multiuser.server import SeedServer
from repro.multiuser.service import SeedService, ServiceClient
from repro.spades.model import spades_schema
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import GeneratedSpec, SpecShape

PASSES = 3
SETUP_REPS = 3  # every pass has its own journal and its own server
WAITS_FOR_PROCESSES = True
RSS_OF_CHILDREN = True

#: preloaded master (~5k statements). A check-in republishes a full
#: snapshot view of the master, so cycle cost grows with this size
SHAPE = SpecShape(actions=1000, data=500, flows=1500)
SMOKE_SHAPE = SpecShape(actions=60, data=30, flows=90)
CYCLES_PER_SECOND = 40
SMOKE_CYCLES = 12
#: the server keeps its newest 8 snapshot views; a reader must re-pin
#: before 8 check-ins have passed or its pin is evicted and reads are
#: refused. The reader re-pins once it has heard of this many new
#: check-ins (counting reads instead would tie the benchmark's validity
#: to how many reads fit in a cycle on the box and commit at hand)
REPIN_CYCLES = 3
#: the reader's think time. Without one it asks ~2 500 times a second,
#: and its thread, the writer's and the server are three busy loops on
#: two CPUs: the cycle times then measure the scheduler. A colleague
#: who looks something up every few milliseconds keeps reads beside the
#: writes and leaves a CPU free
THINK_S = 0.005
READER_OP_BASE = 1_000_000  #: reader op ids start here (traced runs)
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


@dataclass
class State:
    path: Path
    spec: GeneratedSpec
    cycles: list[tuple]  #: (roots, edits)
    host: str = "127.0.0.1"
    port: int = 0
    process: Optional[subprocess.Popen] = None  #: the child server
    service: Optional[SeedService] = None  #: in-process server (traced)
    writer: Optional[ServiceClient] = None
    reader: Optional[ServiceClient] = None
    cycles_acked: int = 0  #: the reader re-pins by it
    #: what acknowledged check-ins must have left in the master
    acked_notes: list[tuple[str, str]] = field(default_factory=list)
    acked_values: dict[str, str] = field(default_factory=dict)
    acked_created: list[str] = field(default_factory=list)
    acked_refined: list[tuple[str, str, str]] = field(default_factory=list)


def _generate_cycles(ctx: Context, spec: GeneratedSpec, count: int) -> list[tuple]:
    """Writer cycles as ``(roots, edits)``; every edit names a root."""
    rng = ctx.rng("team.cycles")
    actions = Zipf(rng, spec.action_names)
    vague = [(data, action) for kind, data, action in spec.flows if kind == "vague"]
    rng.shuffle(vague)
    cycles: list[tuple] = []
    for number in range(count):
        if vague and rng.random() < 0.25:
            # the paper's refinement, across the wire: both endpoints
            # are checked out, so the flow between them comes along
            data, action = vague.pop()
            direction = rng.choice(("Read", "Write"))
            cycles.append(((data, action), [("refine", data, action, direction)]))
            continue
        roots = tuple(dict.fromkeys(actions.pick() for __ in range(rng.randint(1, 3))))
        edits = []
        for index in range(rng.randint(1, 5)):
            roll = rng.random()
            target = rng.choice(roots)
            if roll < 0.5:
                edits.append(("note", target, f"cycle {number} note {index}"))
            elif roll < 0.8:
                edits.append(("value", target, f"revised in cycle {number}.{index}"))
            else:
                edits.append(("create", f"Team{number}x{index}", f"added in cycle {number}"))
        cycles.append((roots, edits))
    return cycles


def setup(ctx: Context, rep: int = 0) -> State:
    spec = generate(ctx, SMOKE_SHAPE if ctx.smoke else SHAPE)
    path = ctx.workdir / f"team-{rep}.journal"
    preload = SeedServer.open(path, schema=spades_schema())
    load_into_spades(spec, SpadesTool(db=preload.master))
    del preload  # appends are open-write-fsync-close: nothing to shut
    cycles = _generate_cycles(ctx, spec, ctx.ops(CYCLES_PER_SECOND, SMOKE_CYCLES))
    state = State(path, spec, cycles)
    if ctx.tracer is None:
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join((str(ROOT), str(SRC))),
            PYTHONUNBUFFERED="1",
        )
        state.process = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "serve_child.py"),
             "serve", str(path), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        banner = state.process.stdout.readline()  # "serving F on HOST:PORT (...)"
        try:
            state.port = int(banner.split(" on ")[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            teardown(state)
            raise RuntimeError(f"repro serve did not start: {banner!r}") from None
    else:
        state.service = SeedService(SeedServer.open(path)).start_in_thread()
        state.host, state.port = state.service.address
    schema = spades_schema()
    state.writer = ServiceClient(state.host, state.port, schema, client_id="writer")
    state.reader = ServiceClient(state.host, state.port, schema, client_id="reader")
    # the first pin snapshots the whole master once; a team pays that
    # when the service comes up, not per read
    state.reader.pin()
    return state


def teardown(state: State) -> None:
    for client in (state.writer, state.reader):
        if client is not None:
            try:
                client.close()
            except OSError:
                pass
    state.writer = state.reader = None
    if state.service is not None:
        state.service.stop_in_thread()
        state.service = None
    if state.process is not None:
        if state.process.poll() is None:
            state.process.kill()
        state.process.wait()
        state.process.stdout.close()
        state.process = None


def _writer_ops(ctx: Context, state: State) -> Iterator[tuple[str, Callable[[], Any]]]:
    writer = state.writer

    def cycle(roots: tuple, edits: list) -> None:
        with ctx.span("bench.team.check_out"):
            local = writer.check_out(*roots)
        with ctx.span("bench.team.edit"):
            for edit in edits:
                kind = edit[0]
                if kind == "note":
                    local.get_object(edit[1]).add_sub_object("Note", edit[2])
                elif kind == "value":
                    local.get_object(edit[1]).sub_object("Description").set_value(edit[2])
                elif kind == "create":
                    local.create_object("Action", edit[1]).add_sub_object("Description", edit[2])
                else:
                    target = local.get_object(edit[2])
                    for flow in local.relationships_of_object(
                        local.get_object(edit[1]), association="Access"
                    ):
                        if flow.bound_at(1) is target:
                            flow.reclassify(edit[3])
        with ctx.span("bench.team.check_in"):
            writer.check_in()
        # acknowledged: from here on the master must keep these
        state.cycles_acked += 1
        for edit in edits:
            if edit[0] == "note":
                state.acked_notes.append((edit[1], edit[2]))
            elif edit[0] == "value":
                state.acked_values[edit[1]] = edit[2]
            elif edit[0] == "create":
                state.acked_created.append(edit[1])
            else:
                state.acked_refined.append(edit[1:])

    for roots, edits in state.cycles:
        yield "cycle", lambda roots=roots, edits=edits: cycle(roots, edits)


def _reader_ops(
    ctx: Context, state: State, done: threading.Event
) -> Iterator[tuple[str, Callable[[], Any]]]:
    reader = state.reader
    rng = ctx.rng("team.reads")
    names = Zipf(rng, state.spec.action_names + state.spec.data_names)

    def find(name: str) -> None:
        found = reader.find(name)
        if found is None or found["name"] != name:
            raise SeedError(f"find({name!r}) returned {found!r}")

    def objects(class_name: str) -> None:
        if not reader.objects(class_name):
            raise SeedError(f"objects({class_name!r}) returned nothing")

    def counts() -> None:
        objects_count, __ = reader.counts()
        if objects_count < len(state.spec.action_names):
            raise SeedError(f"counts() saw only {objects_count} objects")

    pinned_at = 0
    while not done.wait(THINK_S):
        if state.cycles_acked - pinned_at >= REPIN_CYCLES:
            pinned_at = state.cycles_acked
            yield "pin", reader.pin
        roll = rng.random()
        if roll < 0.90:
            yield "find", lambda name=names.pick(): find(name)
        elif roll < 0.98:
            yield "objects", lambda: objects("Data")
        else:
            yield "counts", counts


def measure(ctx: Context, state: State) -> Measured:
    size_before = state.path.stat().st_size
    write_side, read_side = Measured(), Measured()
    done = threading.Event()

    def read_loop() -> None:
        timed_ops(
            ctx, read_side, _reader_ops(ctx, state, done),
            stream="read", errors=(SeedError, OSError), first_op=READER_OP_BASE,
            paced=False,  # the pace loop belongs to the writer's thread
        )

    thread = threading.Thread(target=read_loop, name="bench-reader")
    thread.start()
    try:
        timed_ops(ctx, write_side, _writer_ops(ctx, state), errors=(SeedError, OSError))
    finally:
        done.set()
        thread.join()
    stats = state.writer.stats()
    measured = Measured(
        attempted=write_side.attempted + read_side.attempted,
        failed=write_side.failed + read_side.failed,
        latencies={**write_side.latencies, **read_side.latencies},
        problems=write_side.problems + read_side.problems,
        writes=write_side.attempted - write_side.failed,
    )
    counts = measured.counts
    counts["cycles"] = write_side.attempted
    counts["reads"] = read_side.attempted
    counts["journal_bytes"] = state.path.stat().st_size - size_before
    for key in ("checkins_rejected", "requests_served", "reads_served"):
        counts[key] = stats[key]
    counts["maintain_runs"] = stats["maintenance_runs"]
    if measured.writes:
        # the CLI default sets no journal byte budget, so the file only
        # grows: bytes appended are its growth, bytes rewritten are 0
        measured.extras["journal_bytes_per_write"] = counts["journal_bytes"] / measured.writes
    return measured


def verify(ctx: Context, state: State, measured: Measured) -> None:
    for client in (state.writer, state.reader):
        client.close()
    state.writer = state.reader = None
    if state.process is not None:
        state.process.send_signal(signal.SIGKILL)  # no shutdown checkpoint
        state.process.wait()
        state.process.stdout.close()
        state.process = None
    else:
        state.service.stop_in_thread()
        state.service = None
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fsck = subprocess.run(
        [sys.executable, "-m", "repro", "fsck", str(state.path)],
        env=env, capture_output=True, text=True, check=False,
    )
    if fsck.returncode != 0:
        measured.problems.append(
            f"repro fsck exited {fsck.returncode}: {fsck.stdout[-200:]}"
        )
    with ctx.span("bench.phase.recover"):
        measured.extras["recovery_s"], reopened = ctx.timed(
            lambda: JournaledDatabase.open(state.path)
        )
    info = reopened.recovery
    measured.counts["replayed_deltas"] = (
        info.applied_deltas + info.applied_txn_deltas + info.applied_change_deltas
    )
    db = reopened.db
    if info.applied_deltas < measured.writes:
        measured.problems.append(
            f"{measured.writes} check-ins were acknowledged, "
            f"recovery replayed {info.applied_deltas}"
        )
    missing = 0
    for name, text in state.acked_notes:
        notes = [note.value for note in db.get_object(name).sub_objects("Note")]
        missing += text not in notes
    for name, text in state.acked_values.items():
        missing += db.get_object(name).sub_object("Description").value != text
    for name in state.acked_created:
        missing += db.find_object(name) is None
    for data, action, direction in state.acked_refined:
        target = db.get_object(action)
        kinds = [
            flow.association_name
            for flow in db.relationships_of_object(db.get_object(data), association="Access")
            if flow.bound_at(1) is target
        ]
        missing += kinds != [direction]
    if missing:
        measured.problems.append(
            f"{missing} acknowledged edits are missing after SIGKILL and reopen"
        )
    measured.counts["acked_edits_checked"] = (
        len(state.acked_notes) + len(state.acked_values)
        + len(state.acked_created) + len(state.acked_refined)
    )
    measured.extras["space_amp"] = state.path.stat().st_size / len(canonical_image(db))


def trace_counts(spans: list, measured: Measured) -> dict[str, float]:
    """Wire overhead and check-out size, from client- and server-side spans."""
    calls = [s for s in spans if s[1] == "multiuser.client.call"]
    handled = [s for s in spans if s[1] == "multiuser.service.dispatch"]
    counts: dict[str, float] = {}
    if calls and handled:
        client_ns = sum(s[3] - s[2] for s in calls) / len(calls)
        server_ns = sum(s[3] - s[2] for s in handled) / len(handled)
        counts["wire_overhead_us"] = (client_ns - server_ns) / 1e3
    # the first message a writer op decodes is its check-out ticket
    first_decode: dict[int, tuple] = {}
    for span in spans:
        op = span[5]
        if span[1].endswith("decode_message") and 0 < op < READER_OP_BASE:
            if op not in first_decode or span[2] < first_decode[op][2]:
                first_decode[op] = span
    if first_decode:
        counts["bytes_per_checkout"] = sum(s[6] for s in first_decode.values()) / len(first_decode)
    return counts
