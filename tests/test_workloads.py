"""Tests for the synthetic workload generators and drivers."""

import pytest

from repro.baselines import HandCodedSpecStore
from repro.spades import SpadesTool
from repro.workloads import (
    EvolutionShape,
    SpecShape,
    generate_spec,
    ground_truth_directions,
    load_into_handcoded,
    load_into_spades,
    refine_all_vague,
    run_evolution,
)


class TestSpecGeneration:
    def test_deterministic(self):
        first = generate_spec(SpecShape(actions=10, data=10, flows=15), seed=1)
        second = generate_spec(SpecShape(actions=10, data=10, flows=15), seed=1)
        assert first.flows == second.flows
        assert first.action_names == second.action_names
        assert first.notes == second.notes

    def test_seed_changes_output(self):
        first = generate_spec(SpecShape(flows=30), seed=1)
        second = generate_spec(SpecShape(flows=30), seed=2)
        assert first.flows != second.flows

    def test_shape_respected(self):
        shape = SpecShape(actions=7, data=9, flows=12, vague_fraction=1.0)
        spec = generate_spec(shape, seed=3)
        assert len(spec.action_names) == 7
        assert len(spec.data_names) == 9
        assert len(spec.flows) == 12
        assert all(kind == "vague" for kind, __, __ in spec.flows)

    def test_no_duplicate_flows(self):
        spec = generate_spec(SpecShape(actions=5, data=5, flows=24), seed=4)
        pairs = [(d, a) for __, d, a in spec.flows]
        assert len(pairs) == len(set(pairs))

    def test_containment_is_forest(self):
        spec = generate_spec(SpecShape(actions=30), seed=5)
        children = [contained for __, contained in spec.containments]
        assert len(children) == len(set(children))  # single parent each

    def test_statement_count(self):
        spec = generate_spec(SpecShape(actions=5, data=5, flows=8), seed=6)
        assert spec.statement_count() >= 18


class TestDrivers:
    def test_spades_load_is_consistent(self):
        spec = generate_spec(SpecShape(actions=12, data=12, flows=20), seed=7)
        tool = load_into_spades(spec, SpadesTool("w"))
        assert tool.db.check_consistency() == []
        assert len(tool.db.relationships("Access")) == len(spec.flows)

    def test_handcoded_load_forces_guesses(self):
        spec = generate_spec(
            SpecShape(actions=10, data=10, flows=20, vague_fraction=0.5), seed=8
        )
        store, forced = load_into_handcoded(spec, HandCodedSpecStore(), seed=8)
        vague_count = sum(1 for kind, __, __ in spec.flows if kind == "vague")
        assert forced == vague_count > 0

    def test_refinement_resolves_all_vague_flows(self):
        spec = generate_spec(
            SpecShape(actions=10, data=10, flows=20, vague_fraction=0.4), seed=9
        )
        tool = load_into_spades(spec, SpadesTool("w"))
        truth = ground_truth_directions(spec, 9)
        refined = refine_all_vague(tool, truth)
        assert refined == len(truth)
        assert tool.db.relationships("Access", include_specials=False) == []
        assert tool.db.check_consistency() == []

    def test_ground_truth_deterministic(self):
        spec = generate_spec(SpecShape(flows=30, vague_fraction=0.5), seed=10)
        assert ground_truth_directions(spec, 10) == ground_truth_directions(spec, 10)


class TestEvolution:
    def test_delta_always_beats_fullcopy(self):
        spec = generate_spec(SpecShape(actions=15, data=15, flows=20), seed=11)
        tool = load_into_spades(spec, SpadesTool("evo"))
        result = run_evolution(
            tool.db, EvolutionShape(sessions=6, touches_per_session=3), seed=11
        )
        assert result.delta_states < result.fullcopy_states
        assert result.savings_factor > 1.5
        assert result.sessions == 6

    def test_views_remain_correct_through_evolution(self):
        spec = generate_spec(SpecShape(actions=8, data=8, flows=10), seed=12)
        tool = load_into_spades(spec, SpadesTool("evo2"))
        run_evolution(tool.db, EvolutionShape(sessions=4), seed=12)
        versions = tool.db.saved_versions()
        assert len(versions) == 5  # initial + 4 sessions
        first = tool.db.version_view(versions[0])
        last = tool.db.version_view(versions[-1])
        assert last.object_count() >= first.object_count()

    def test_deletes_produce_tombstones(self):
        spec = generate_spec(SpecShape(actions=10, data=10, flows=0), seed=13)
        tool = load_into_spades(spec, SpadesTool("evo3"))
        result = run_evolution(
            tool.db,
            EvolutionShape(sessions=3, touches_per_session=1,
                           creates_per_session=0, deletes_per_session=2),
            seed=13,
        )
        stats = tool.db.statistics()
        assert stats["tombstoned_objects"] > 0
        assert result.live_items_final < 20 + sum(
            1 for name, __ in spec.notes
        ) + len(spec.keywords) + 60
