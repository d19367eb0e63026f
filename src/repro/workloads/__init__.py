"""Synthetic workload generation for benchmarks and stress tests."""

from repro.workloads.drivers import (
    ground_truth_directions,
    load_into_handcoded,
    load_into_spades,
    refine_all_vague,
)
from repro.workloads.evolution import (
    EvolutionResult,
    EvolutionShape,
    run_evolution,
)
from repro.workloads.specgen import GeneratedSpec, SpecShape, generate_spec

__all__ = [
    "ground_truth_directions",
    "load_into_handcoded",
    "load_into_spades",
    "refine_all_vague",
    "EvolutionResult",
    "EvolutionShape",
    "run_evolution",
    "GeneratedSpec",
    "SpecShape",
    "generate_spec",
]
