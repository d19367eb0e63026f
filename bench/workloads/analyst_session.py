"""``analyst_session`` — one analyst editing a specification interactively.

One in-process :class:`SpadesTool` over a :class:`JournaledDatabase`
(strict per-commit fsync), preloaded with a generated specification and
then driven through a seeded stream of single-item edits. Every
``SAVE_POINT_EVERY``-th session end is a save point — checkpoint, then
compact the journal — so the same number of checkpoint-then-compact
cycles happens in every run. This is the paper's core loop: every edit goes
``spades.tool`` → ``core.database`` → per-item ``core.indexes`` /
``core.consistency`` / ``core.completeness`` maintenance →
``core.storage`` write-ahead append. ``core.query`` planning and
``multiuser`` do nothing here.

Refinement here re-classifies *objects* only (``Thing`` → ``Data`` /
``Action``, ``Data`` → ``InputData`` / ``OutputData``). Re-classifying
a vague ``Access`` *flow* is left to ``team_service``: replaying a
``txn`` delta that re-classified a relationship keeps the old role
bindings (``apply_txn_delta`` sets the association but not the
bindings), so a recovery after such an edit yields a database whose
image cannot even be serialised. Until that is fixed in ``src/``, an
op stream containing it could not pass the recovery gate.

The op stream is generated against a small model of the specification
(which names are live, which flows are still vague, which actions
already have a container) so that every generated op is valid: no
operation is expected to fail.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from bench.harness import Context, Measured, bytes_written, mixed, timed_ops
from bench.workloads.common import generate, recover_and_check, space_amp
from repro.core.errors import SeedError
from repro.core.storage.engine import JournaledDatabase
from repro.spades.model import spades_schema
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import GeneratedSpec, SpecShape

PASSES = 3
SETUP_REPS = 3  # every pass edits a freshly loaded specification
WAITS_FOR_PROCESSES = False
RECOVERIES = 1

#: preloaded specification (~8.5k statements); the smoke shape is tiny
SHAPE = SpecShape(actions=1800, data=900, flows=2700)
SMOKE_SHAPE = SpecShape(actions=60, data=30, flows=90)
#: edits per second of a pass (fixed count, sized on the reference box)
EDITS_PER_SECOND = 650
SMOKE_EDITS = 300
#: session ends between two save points (checkpoint + compact). A byte
#: budget cannot pace the cycles here: this edit mix grows the image
#: almost as fast as the journal, so a fixed budget is outgrown within
#: three cycles (every later commit would checkpoint), and a size-based
#: trigger fires a different number of times for different seeds
SAVE_POINT_EVERY = 5
SMOKE_SAVE_POINT_EVERY = 2

#: the interactive edit mix (share of ops)
MIX = (
    ("declare", 0.30),  # declare_action / declare_data / note_thing
    ("dataflow", 0.20),  # read / write / vague Access (25 % vague)
    ("refine", 0.15),  # reclassify a Thing or a Data object downwards
    ("annotate", 0.10),
    ("set_value", 0.10),
    ("decompose", 0.05),  # ACYCLIC Contained edge
    ("delete", 0.05),
    ("report", 0.03),  # completeness_report
)
#: every SESSION_EVERY-th op begins or ends a session (create_version
#: when dirty): 2 % of the ops, on a fixed schedule so that every seed
#: has the same number of sessions and save points at the same ops
SESSION_EVERY = 50
VAGUE_SHARE = 0.25


class _Pool:
    """A list with O(1) random pick and O(1) removal by value."""

    def __init__(self, items: list[str]) -> None:
        self.items = list(items)
        self._at = {name: index for index, name in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, name: str) -> None:
        self._at[name] = len(self.items)
        self.items.append(name)

    def discard(self, name: str) -> None:
        index = self._at.pop(name, None)
        if index is None:
            return
        last = self.items.pop()
        if last != name:
            self.items[index] = last
            self._at[last] = index

    def pick(self, rng: random.Random) -> str:
        return self.items[rng.randrange(len(self.items))]


class SpecModel:
    """Just enough of the specification's state to generate valid edits."""

    def __init__(self, spec: GeneratedSpec) -> None:
        self.actions = _Pool(spec.action_names)
        self.described = _Pool(spec.action_names)  # actions with a Description
        self.data = _Pool(spec.data_names)
        self.plain_data = _Pool(spec.data_names)  # still class Data
        self.things = _Pool([])
        #: creation rank; Contained edges always run low -> high rank,
        #: so the generated decomposition is acyclic by construction
        self.rank = {name: index for index, name in enumerate(spec.action_names)}
        self.contained = {child for __, child in spec.containments}
        #: every flow as a (data, action) pair, and the pairs naming an item
        self.pairs: set[tuple[str, str]] = set()
        self.flows_of: dict[str, set[tuple[str, str]]] = defaultdict(set)
        self.vague = 0  # live vague flows (they stay vague here)
        self.vague_pairs: set[tuple[str, str]] = set()
        self.vague_of: dict[str, int] = defaultdict(int)  # per data object
        for kind, data, action in spec.flows:
            self._add_flow(data, action, vague=kind == "vague")
        self.serial = 0

    def _add_flow(self, data: str, action: str, *, vague: bool) -> None:
        pair = (data, action)
        self.pairs.add(pair)
        self.flows_of[data].add(pair)
        self.flows_of[action].add(pair)
        if vague:
            self.vague_pairs.add(pair)
            self.vague += 1
            self.vague_of[data] += 1

    def fresh(self, stem: str) -> str:
        self.serial += 1
        return f"{stem}{self.serial}"

    def forget(self, name: str) -> None:
        """Drop a deleted item and every flow that named it."""
        for pool in (self.actions, self.described, self.data, self.plain_data):
            pool.discard(name)
        for pair in self.flows_of.pop(name, ()):
            self.pairs.discard(pair)
            other = pair[0] if pair[1] == name else pair[1]
            self.flows_of[other].discard(pair)
            if pair in self.vague_pairs:
                self.vague_pairs.discard(pair)
                self.vague -= 1
                self.vague_of[pair[0]] -= 1

    def generate(self, rng: random.Random, count: int) -> list[tuple]:
        """*count* valid edits as plain tuples ``(kind, *arguments)``."""
        ops: list[tuple] = []
        session_open = False
        for index, kind in enumerate(mixed(rng, MIX, count), 1):
            if index % SESSION_EVERY == 0:
                ops.append(("session", "end" if session_open else "begin"))
                session_open = not session_open
            else:
                ops.append(getattr(self, "_gen_" + kind)(rng))
        return ops

    def _gen_declare(self, rng: random.Random) -> tuple:
        roll = rng.random()
        if roll < 0.5:
            name = self.fresh("NewAction")
            self.actions.add(name)
            self.described.add(name)
            self.rank[name] = len(self.rank)
            return ("declare_action", name, f"performs {name}")
        if roll < 0.8:
            name = self.fresh("NewData")
            self.data.add(name)
            self.plain_data.add(name)
            return ("declare_data", name)
        name = self.fresh("Thing")
        self.things.add(name)
        return ("note_thing", name, f"heard about {name}")

    def _gen_dataflow(self, rng: random.Random) -> tuple:
        while True:
            data, action = self.data.pick(rng), self.actions.pick(rng)
            if (data, action) not in self.pairs:
                break
        vague = rng.random() < VAGUE_SHARE
        self._add_flow(data, action, vague=vague)
        if vague:
            return ("vague_flow", data, action)
        return (rng.choice(("read_flow", "write_flow")), data, action)

    def _gen_refine(self, rng: random.Random) -> tuple:
        if rng.random() < 0.5 and len(self.things):
            name = self.things.pick(rng)
            self.things.discard(name)
            if rng.random() < 0.5:
                self.data.add(name)
                self.plain_data.add(name)
                return ("refine_to_data", name)
            self.actions.add(name)
            self.described.add(name)
            self.rank[name] = len(self.rank)
            return ("refine_to_action", name, f"performs {name}")
        for __ in range(8):
            # refine_to_input/output would also re-classify the object's
            # vague flows (see the module docstring): pick one without
            name = self.plain_data.pick(rng)
            if not self.vague_of[name]:
                self.plain_data.discard(name)
                return (rng.choice(("refine_to_input", "refine_to_output")), name)
        return self._gen_declare(rng)

    def _gen_annotate(self, rng: random.Random) -> tuple:
        pool = self.actions if rng.random() < 0.6 else self.data
        return ("annotate", pool.pick(rng), f"note {rng.randrange(10**6)}")

    def _gen_set_value(self, rng: random.Random) -> tuple:
        return ("set_value", self.described.pick(rng), f"revised {rng.randrange(10**6)}")

    def _gen_decompose(self, rng: random.Random) -> tuple:
        while True:
            first, second = self.actions.pick(rng), self.actions.pick(rng)
            if first == second:
                continue
            container, child = sorted((first, second), key=self.rank.__getitem__)
            if child not in self.contained:
                self.contained.add(child)
                return ("decompose", container, child)

    def _gen_delete(self, rng: random.Random) -> tuple:
        pool = self.actions if rng.random() < 0.5 else self.data
        name = pool.pick(rng)
        self.forget(name)
        return ("delete", name)

    def _gen_report(self, rng: random.Random) -> tuple:
        return ("report",)


@dataclass
class State:
    path: Path
    journal: JournaledDatabase
    tool: SpadesTool
    model: SpecModel
    ops: list[tuple]
    save_point_every: int
    session_ends: int = 0


def setup(ctx: Context, rep: int = 0) -> State:
    shape = SMOKE_SHAPE if ctx.smoke else SHAPE
    spec = generate(ctx, shape)
    path = ctx.workdir / f"analyst-{rep}.journal"
    journal = JournaledDatabase.open(path, schema=spades_schema(), name="spec")
    tool = SpadesTool(db=journal.db)
    load_into_spades(spec, tool)
    # the baseline snapshot stores every item once and the first
    # completeness report primes the incremental engine with a full
    # scan; an analyst pays both once per specification, not per edit
    journal.db.create_version()
    tool.completeness_report()
    model = SpecModel(spec)
    ops = model.generate(ctx.rng("analyst.ops"), ctx.ops(EDITS_PER_SECOND, SMOKE_EDITS))
    every = SMOKE_SAVE_POINT_EVERY if ctx.smoke else SAVE_POINT_EVERY
    return State(path, journal, tool, model, ops, every)


def _thunks(state: State, measured: Measured) -> Iterator[tuple[str, Callable[[], Any]]]:
    tool = state.tool
    db = tool.db

    def set_value(name: str, text: str) -> None:
        db.get_object(name).sub_object("Description").set_value(text)

    def delete(name: str) -> None:
        db.get_object(name).delete()

    def report() -> None:
        measured.counts["completeness_dirty_total"] = (
            measured.counts.get("completeness_dirty_total", 0)
            + db.completeness.dirty_count()
        )
        measured.counts["gaps_seen"] = len(tool.completeness_report())

    def session(edge: str) -> None:
        if edge == "begin":
            tool.begin_session()
            return
        tool.end_session()
        state.session_ends += 1
        if state.session_ends % state.save_point_every == 0:
            state.journal.checkpoint()
            state.journal.compact()
            measured.counts["save_points"] = measured.counts.get("save_points", 0) + 1

    handlers: dict[str, Callable[..., Any]] = {
        "declare_action": tool.declare_action,
        "declare_data": tool.declare_data,
        "note_thing": tool.note_thing,
        "vague_flow": tool.note_dataflow,
        "read_flow": tool.read_flow,
        "write_flow": tool.write_flow,
        "refine_to_data": tool.refine_to_data,
        "refine_to_action": tool.refine_to_action,
        "refine_to_input": tool.refine_to_input,
        "refine_to_output": tool.refine_to_output,
        "annotate": tool.annotate,
        "set_value": set_value,
        "decompose": tool.decompose,
        "delete": delete,
        "report": report,
        "session": session,
    }
    for kind, *arguments in state.ops:
        handler = handlers[kind]
        yield kind, lambda handler=handler, arguments=arguments: handler(*arguments)


def measure(ctx: Context, state: State) -> Measured:
    measured = Measured()
    size_before = state.path.stat().st_size
    written_before = bytes_written()
    by_kind = timed_ops(ctx, measured, _thunks(state, measured), errors=(SeedError,))
    written = bytes_written() - written_before
    measured.writes = measured.attempted - len(by_kind.get("report", ()))
    measured.extras["journal_bytes_per_write"] = written / measured.writes
    measured.counts["journal_bytes"] = written
    measured.counts["journal_growth"] = state.path.stat().st_size - size_before
    reports = len(by_kind.get("report", ()))
    if reports:
        measured.counts["completeness_dirty_per_check"] = (
            measured.counts.pop("completeness_dirty_total") / reports
        )
    return measured


def verify(ctx: Context, state: State, measured: Measured) -> None:
    db = state.tool.db
    model = state.model
    # the seed-determined checksum: the database must hold exactly the
    # items the generator's model says the edits leave behind
    expected = {
        "Action": len(model.actions),
        "Data": len(model.data),
        "Thing": len(model.actions) + len(model.data) + len(model.things),
    }
    for class_name, count in expected.items():
        found = len(db.objects(class_name))
        measured.counts[f"live_{class_name.lower()}"] = found
        if found != count:
            measured.problems.append(
                f"{found} live {class_name} objects, the op stream leaves {count}"
            )
    vague = sum(1 for __ in db.iter_relationships("Access", include_specials=False))
    if vague != model.vague:
        measured.problems.append(
            f"{vague} vague flows live, the op stream leaves {model.vague}"
        )
    try:
        db.indexes.verify()
    except AssertionError as exc:
        measured.problems.append(f"live indexes fail verify(): {exc}"[:300])
    measured.extras["space_amp"] = space_amp(state.path, db)
    recover_and_check(ctx, state.path, db, measured, times=RECOVERIES)

