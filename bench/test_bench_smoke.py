"""Smoke test of the benchmark itself: all four workloads at ``--smoke``
scale, untraced and traced (a few seconds in total).

It checks the benchmark's contract, not the program's speed: every
metric ``BENCHMARK.json`` names is reported with its unit, the gates
pass, exact counts repeat for a seed and differ for another, bypassed
layers read zero, self times add up, and ``--compare`` tells a
regression from noise.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from bench import layers, run
from bench.compare import compare
from bench.harness import Measured, merge_passes, mixed
from bench.trace import load_spans, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("analyst_session", "query_mix", "team_service", "bulk_evolve")

SPEC = run.metrics.benchmark_spec()

_records: dict[tuple[str, int, bool], dict] = {}


def record(workload: str, seed: int = 3, trace: bool = False) -> dict:
    """One smoke run per (workload, seed, mode), shared by the tests."""
    key = (workload, seed, trace)
    if key not in _records:
        _records[key] = run.run_workload(workload, seed, 1.0, trace, smoke=True)
    return _records[key]


def value(rec: dict, metric: str) -> float:
    return rec["metrics"][metric]["value"]


def test_benchmark_json_names_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    rec = record(workload)
    assert rec["correct"], rec["problems"]
    assert rec["failed"] == 0 and rec["attempted"] >= 1
    line = json.loads(run._contract_line(rec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    for name in rec["metrics"]:
        assert NAME.match(name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    rec = record(workload, trace=True)
    assert rec["correct"], rec["problems"]
    line = json.loads(run._contract_line(rec))
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert value(rec, "bench.trace.overhead_ratio") >= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_the_root_spans(workload):
    record(workload, trace=True)
    header, spans = load_spans(run.OUT / f"spans-{workload}-3.jsonl")
    assert header["workload"] == workload
    tables = run._phase_tables(spans, header["marks"])
    table = tables["measure"]
    roots = table.pop("")["total_ns"]
    assert roots > 0
    assert sum(row["self_ns"] for row in table.values()) == roots
    assert all(row["self_ns"] >= 0 for row in self_times(spans).values())


def test_layers_that_do_the_work_are_busy_and_bypassed_layers_read_zero():
    analyst = record("analyst_session", trace=True)
    query = record("query_mix", trace=True)
    team = record("team_service", trace=True)
    evolve = record("bulk_evolve", trace=True)
    for name in (
        "spades.tool.op_self_us", "core.database.mutate_self_us",
        "core.indexes.maintain_self_us", "core.consistency.validate_self_us",
        "core.completeness.note_commit_self_us",
        "core.storage.serialize.txn_delta_self_us",
        "core.storage.recordfile.append_self_us",
        "core.storage.recordfile.fsyncs_per_write",
        "core.storage.engine.open_s", "core.storage.engine.replayed_deltas",
    ):
        assert value(analyst, name) > 0, name
    for name in (
        "core.query.planner.optimize_self_us", "core.query.planner.execute_self_us",
        "core.query.planner.cache_hit_ratio", "core.query.retrieval.call_self_us",
        "core.indexes.lookup_self_us", "core.completeness.check_ms",
        "query_mix.join.p50_ms", "core.query.planner.rows_per_query",
    ):
        assert value(query, name) > 0, name
    for name in (
        "multiuser.server.check_out_ms", "multiuser.server.apply_check_in_ms",
        "multiuser.server.publish_snapshot_ms", "multiuser.service.requests_served",
        "multiuser.service.reads_served", "multiuser.protocol.codec_self_us",
        "multiuser.protocol.bytes_per_checkout", "multiuser.client.materialize_ms",
        "multiuser.checkin.build_package_ms", "core.bulk.load_item_states_ms",
        "core.versions.view_materialize_ms",
    ):
        assert value(team, name) > 0, name
    for name in (
        "core.bulk.finalize_s", "core.indexes.rebuild_s",
        "core.versions.create_version_ms", "core.versions.view_materialize_ms",
        "core.versions.compact_s", "core.versions.stored_states",
        "core.storage.serialize.image_encode_s",
        "core.storage.serialize.image_decode_s",
        "core.storage.engine.checkpoint_s",
    ):
        assert value(evolve, name) > 0, name
    for name in layers.PER_LAYER:
        if name.startswith(("core.storage.", "multiuser.", "core.versions.")):
            assert value(query, name) == 0, name
        if name.startswith(("core.query.planner.", "core.query.parallel.", "multiuser.")):
            assert value(analyst, name) == 0, name
            assert value(evolve, name) == 0, name


def test_counts_repeat_for_a_seed_and_differ_for_another():
    first = record("analyst_session", seed=3)
    again = run.run_workload("analyst_session", 3, 1.0, False, smoke=True)
    other = record("analyst_session", seed=4)
    for rec in (first, again, other):
        assert rec["correct"], rec["problems"]
    assert again["counts"] == first["counts"]
    assert value(again, "journal_bytes_per_write") == value(first, "journal_bytes_per_write")
    assert value(other, "journal_bytes_per_write") != value(first, "journal_bytes_per_write")
    traced = record("analyst_session", trace=True)
    traced_again = run.run_workload("analyst_session", 3, 1.0, True, smoke=True)
    traced_other = record("analyst_session", seed=4, trace=True)
    for name in (
        "core.storage.recordfile.appends", "core.database.txn_commits",
        "core.storage.recordfile.bytes_appended",
    ):
        assert value(traced_again, name) == value(traced, name), name
    assert value(traced_other, "core.storage.recordfile.bytes_appended") != value(
        traced, "core.storage.recordfile.bytes_appended"
    )
    # the bytes seen from outside the program are the bytes the record
    # file appended and rewrote
    assert traced["counts"]["journal_bytes"] == first["counts"]["journal_bytes"]
    queries = record("query_mix")
    assert (
        run.run_workload("query_mix", 3, 1.0, False, smoke=True)["counts"]["result_checksum"]
        == queries["counts"]["result_checksum"]
    )


def test_a_run_reports_each_ops_fastest_pass():
    first = Measured(
        attempted=3, latencies={"op": [3.0, 1.0, 2.0], "read": [1.0]},
        phases={"op": [5.0]}, extras={"checkpoint_s": 2.0},
    )
    second = Measured(
        attempted=3, failed=1, latencies={"op": [1.0, 2.0, 3.0], "read": [2.0, 3.0]},
        phases={"op": [4.0]}, extras={"checkpoint_s": 1.0}, problems=["op 2 failed"],
    )
    merged = merge_passes([first, second])
    assert merged.latencies["op"] == [1.0, 1.0, 2.0]
    assert merged.latencies["read"] == [1.0, 2.0, 3.0]  # unpaired: pooled
    assert merged.phases["op"] == [4.0]
    assert (merged.attempted, merged.failed) == (6, 1)
    assert merged.extras == {"checkpoint_s": 1.0}
    assert merged.problems == ["op 2 failed"]


def test_a_mix_holds_every_kind_at_exactly_its_share():
    mix = (("cheap", 0.9), ("dear", 0.1))
    for seed in (1, 2):
        kinds = mixed(random.Random(seed), mix, 250)
        assert len(kinds) == 250 and kinds.count("dear") == 25
    assert mixed(random.Random(1), mix, 250) != mixed(random.Random(2), mix, 250)


def test_compare_tells_a_regression_from_noise(tmp_path, capsys):
    base = record("bulk_evolve")
    runs_a = tmp_path / "a.jsonl"
    runs_b = tmp_path / "b.jsonl"
    slow = tmp_path / "slow.jsonl"
    worse = json.loads(json.dumps(base))
    worse["metrics"]["op_p50_ms"]["value"] *= 1.5
    for path, rec in ((runs_a, base), (runs_b, base), (slow, worse)):
        path.write_text("".join(json.dumps(rec) + "\n" for __ in range(4)))
    assert compare(runs_a, runs_b) == 0
    assert " ok" in capsys.readouterr().out
    assert compare(runs_a, slow) == 1
    assert "regressed" in capsys.readouterr().out
    # a spread wider than the bound is unresolved, never "unchanged"
    noisy = json.loads(json.dumps(base))
    records = []
    for factor in (0.7, 0.9, 1.1, 1.3):
        noisy["metrics"]["op_per_s"]["value"] = base["metrics"]["op_per_s"]["value"] * factor
        records.append(json.dumps(noisy) + "\n")
    runs_b.write_text("".join(records))
    compare(runs_a, runs_b)
    assert "unresolved" in capsys.readouterr().out
