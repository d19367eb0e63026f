"""Drivers: run one generated workload against each store under test.

The benchmark harness compares stores on *identical* inputs; these
drivers translate a :class:`~repro.workloads.specgen.GeneratedSpec` into
the operations of each store:

* :func:`load_into_spades` — the SEED-backed SPADES tool (vague flows
  entered as ``Access`` and later refinable);
* :func:`load_into_handcoded` — the hand-coded baseline (vague flows are
  inexpressible there: the driver must force them to a direction,
  *losing information* — which the benchmark reports);
* :func:`refine_all_vague` — the refinement phase: every vague flow is
  specialized once the (generated) ground truth is revealed.
"""

from __future__ import annotations

import random

from repro.baselines.handcoded import HandCodedSpecStore
from repro.spades.tool import SpadesTool
from repro.workloads.specgen import GeneratedSpec

__all__ = [
    "load_into_spades",
    "load_into_handcoded",
    "refine_all_vague",
    "ground_truth_directions",
]


def load_into_spades(spec: GeneratedSpec, tool: SpadesTool) -> SpadesTool:
    """Enter a generated specification through the SPADES tool.

    The whole population runs in one deferred-maintenance bulk batch
    (:meth:`~repro.core.database.SeedDatabase.bulk`): per-item index
    maintenance and incremental ACYCLIC checks are suspended, every
    item is created in the batch (so it logs no before-image), and the
    load finalizes with one index rebuild, one
    validation pass, and one completeness merge. Generated specs are
    valid by construction, so the deferred validation is equivalent to
    the per-item checks — and the load is atomic either way.
    """
    with tool.db.bulk():
        for name in spec.action_names:
            tool.declare_action(name, f"performs {name}")
        for name in spec.data_names:
            tool.declare_data(name)
        for kind, data, action in spec.flows:
            if kind == "read":
                tool.read_flow(data, action)
            elif kind == "write":
                tool.write_flow(data, action)
            else:
                tool.note_dataflow(data, action)
        for container, contained in spec.containments:
            tool.decompose(container, contained)
        for name, note in spec.notes:
            tool.annotate(name, note)
        for data, keyword in spec.keywords:
            obj = tool.db.get_object(data)
            text = obj.find_sub_object("Text")
            if text is None:
                text = obj.add_sub_object("Text")
                text.add_sub_object("Body").add_sub_object(
                    "Contents", f"about {data}"
                )
            body = text.sub_object("Body")
            body.add_sub_object("Keywords", keyword)
    return tool


def load_into_handcoded(
    spec: GeneratedSpec, store: HandCodedSpecStore, *, seed: int = 0
) -> tuple[HandCodedSpecStore, int]:
    """Enter the same specification into the hand-coded store.

    Vague flows cannot be represented; the driver guesses a direction
    (deterministically) and counts the guesses — the information the
    fixed-schema store forces the user to invent. Returns
    ``(store, forced_guesses)``.
    """
    rng = random.Random(seed)
    forced = 0
    for name in spec.action_names:
        store.declare_action(name, f"performs {name}")
    for name in spec.data_names:
        store.declare_data(name)
    for kind, data, action in spec.flows:
        if kind == "vague":
            kind = rng.choice(("read", "write"))
            forced += 1
        store.add_flow(kind, data, action)
    for container, contained in spec.containments:
        store.contain(container, contained)
    for name, note in spec.notes:
        store.annotate(name, note)
    # keywords have no representation in the hand-coded store at all
    return store, forced


def ground_truth_directions(
    spec: GeneratedSpec, seed: int = 0
) -> dict[tuple[str, str], str]:
    """The 'actual' direction of every vague flow, revealed later.

    Deterministic in *seed*, independent of entry order — the refinement
    phase of benchmarks resolves vague flows against this map.
    """
    rng = random.Random(seed + 0x5EED)
    return {
        (data, action): rng.choice(("read", "write"))
        for kind, data, action in spec.flows
        if kind == "vague"
    }


def refine_all_vague(
    tool: SpadesTool, truth: dict[tuple[str, str], str]
) -> int:
    """Specialize every vague ``Access`` flow per the ground truth.

    Returns the number of refinements performed. This exercises the
    re-classification machinery at workload scale.
    """
    refined = 0
    for rel in list(tool.db.relationships("Access", include_specials=False)):
        data, action = rel.bound_at(0), rel.bound_at(1)
        direction = truth.get((data.simple_name, action.simple_name))
        if direction is None:
            continue
        if direction == "read":
            tool.refine_flow_to_read(rel)
        else:
            tool.refine_flow_to_write(rel)
        refined += 1
    return refined
