"""Where the traced run cuts the program into layers, and how spans and
counts become the per-layer metrics of ``BENCHMARK.json``.

Span names are ``<layer>.<entry point>``; a layer's metrics select
spans by name prefix. Every metric is computed from one *phase* of the
run (``setup``, ``measure``, ``recover``) so that, for example, the
image encoding done by the benchmark's own verification never counts
as checkpoint cost.
"""

from __future__ import annotations

from typing import Any, Callable

from bench.trace import Tracer

__all__ = ["install", "PER_LAYER", "per_layer_metrics"]

_DB = "repro.core.database:SeedDatabase."
_IDX = "repro.core.indexes:IndexLayer."
_CONS = "repro.core.consistency:ConsistencyEngine."
_COMP = "repro.core.completeness:CompletenessEngine."
_SER = "repro.core.storage.serialize:"
_REC = "repro.core.storage.recordfile:RecordFile."
_ENG = "repro.core.storage.engine:JournaledDatabase."
_SRV = "repro.multiuser.server:SeedServer."


#: counts taken at a boundary, by target: ``(args, result) -> n``
_MEASURES: dict[str, Callable[[tuple, Any], int]] = {
    # bytes the rewrite left in the file (args[0] is the RecordFile)
    _REC + "rewrite": lambda args, result: args[0].size_bytes(),
    # rows a planned query returned
    "repro.core.query.planner:Plan.execute": lambda args, result: len(result.rows),
    # bytes of one wire message as the receiver saw it
    "repro.multiuser.protocol:decode_message": lambda args, result: len(args[0]),
}


def _points() -> list[tuple[str, str, str]]:
    """(span name, target, kind) for every wrapped entry point."""
    from repro.core.query.retrieval import Retrieval
    from repro.spades.tool import SpadesTool

    points: list[tuple[str, str, str]] = [
        ("workloads.specgen.generate", "repro.workloads.specgen:generate_spec", "fn"),
    ]
    for name, attr in vars(SpadesTool).items():
        if callable(attr) and not name.startswith("_"):
            points.append((f"spades.tool.{name}", f"repro.spades.tool:SpadesTool.{name}", "fn"))
    for name in (
        "create_object", "create_sub_object", "relate", "set_value",
        "set_attribute", "rename", "delete", "reclassify", "_emit_change",
    ):
        points.append((f"core.database.{name.lstrip('_')}", _DB + name, "fn"))
    points.append(("core.database.transaction", _DB + "transaction", "cm"))
    points.append(("core.database.bulk", _DB + "bulk", "cm"))
    for name in (
        "add_object", "remove_object", "move_object", "update_value",
        "add_name", "remove_name", "index_relationship",
        "unindex_relationship", "refresh_relationship",
        "set_relationship_status",
    ):
        points.append((f"core.indexes.maintain.{name}", _IDX + name, "fn"))
    points.append(("core.indexes.rebuild", _IDX + "rebuild", "fn"))
    for name in (
        "extent_oids", "extent_shards", "family_relationship_shards",
        "names_with_prefix", "participations", "extent_size",
        "association_size", "name_prefix_count", "value_histogram",
        "value_frequency", "defined_count", "distinct_participants",
        "family_relationship_ids",
    ):
        points.append((f"core.indexes.lookup.{name}", _IDX + name, "fn"))
    for name in (
        "validate_object", "validate_relationship", "validate_acyclic",
        "validate_new_edges", "run_attached_procedures",
    ):
        points.append((f"core.consistency.{name}", _CONS + name, "fn"))
    points += [
        ("core.completeness.note_commit", _COMP + "note_commit", "fn"),
        ("core.completeness.invalidate", _COMP + "invalidate", "fn"),
        ("core.completeness.check", _COMP + "check_database", "fn"),
        ("core.query.planner.optimize", "repro.core.query.planner:optimize", "fn"),
        ("core.query.planner.cache", "repro.core.query.planner:PlanCache.optimized", "fn"),
        ("core.query.planner.execute", "repro.core.query.planner:Plan.execute", "fn"),
        ("core.query.parallel.run_sharded", "repro.core.query.parallel:run_sharded", "fn"),
    ]
    for name, attr in vars(Retrieval).items():
        if callable(attr) and not name.startswith("_"):
            kind = "gen" if name == "iter_instances" else "fn"
            points.append(
                (f"core.query.retrieval.{name}", f"repro.core.query.retrieval:Retrieval.{name}", kind)
            )
    points += [
        ("core.bulk.finalize", _DB + "_finalize_bulk", "fn"),
        ("core.bulk.load_item_states", "repro.core.bulk:load_item_states", "fn"),
        ("core.versions.create_version", "repro.core.versions.manager:VersionManager.create_version", "fn"),
        ("core.versions.view", "repro.core.versions.manager:VersionManager.view", "fn"),
        ("core.versions.compact", "repro.core.versions.manager:VersionManager.compact", "fn"),
        ("core.storage.serialize.txn_delta", _SER + "txn_delta_from_txn", "fn"),
        ("core.storage.serialize.version_delta", _SER + "version_delta_from_db", "fn"),
        ("core.storage.serialize.image_encode", _SER + "database_to_dict", "fn"),
        ("core.storage.serialize.image_encode", _SER + "iter_image_records", "gen"),
        ("core.storage.serialize.image_decode", _SER + "database_from_dict", "fn"),
        ("core.storage.serialize.image_decode", _SER + "database_from_records", "fn"),
        ("core.storage.serialize.apply_delta", _SER + "apply_txn_delta", "fn"),
        ("core.storage.serialize.apply_delta", _SER + "apply_version_delta", "fn"),
        ("core.storage.serialize.apply_delta", _SER + "apply_restore_delta", "fn"),
        ("core.storage.serialize.apply_delta", _SER + "apply_schema_delta", "fn"),
        ("core.storage.recordfile.append", _REC + "append", "fn"),
        ("core.storage.recordfile.append", _REC + "append_many", "fn"),
        ("core.storage.recordfile.append", _REC + "append_stream", "fn"),
        ("core.storage.recordfile.rewrite", _REC + "rewrite", "fn"),
        ("core.storage.recordfile.scan", _REC + "scan", "gen"),
        ("core.storage.recordfile.scan", _REC + "records", "gen"),
        ("core.storage.recordfile.fsync", "os:fsync", "fn"),
        ("core.storage.engine.on_change", _ENG + "_on_change_event", "fn"),
        ("core.storage.engine.append_delta", _ENG + "append_delta", "fn"),
        ("core.storage.engine.enforce_budget", _ENG + "enforce_budget", "fn"),
        ("core.storage.engine.checkpoint", _ENG + "checkpoint", "fn"),
        ("core.storage.engine.compact", _ENG + "compact", "fn"),
        ("core.storage.engine.open", _ENG + "open", "fn"),
        ("multiuser.server.check_out", _SRV + "check_out", "fn"),
        ("multiuser.server.apply_check_in", _SRV + "apply_check_in", "fn"),
        ("multiuser.server.publish_snapshot", _SRV + "publish_snapshot", "fn"),
        ("multiuser.server.maintain", _SRV + "maintain", "fn"),
        ("multiuser.service.dispatch", "repro.multiuser.service:SeedService._dispatch", "async"),
        ("multiuser.client.call", "repro.multiuser.service:ServiceClient._call", "fn"),
        ("multiuser.client.materialize", "repro.multiuser.client:materialize_ticket", "fn"),
        ("multiuser.checkin.build_package", "repro.multiuser.checkin:build_package", "fn"),
    ]
    for name in (
        "encode_message", "decode_message", "ticket_to_dict",
        "ticket_from_dict",
    ):
        points.append((f"multiuser.protocol.codec.{name}", f"repro.multiuser.protocol:{name}", "fn"))
    for name in ("package_to_dict", "package_from_dict"):
        points.append((f"multiuser.protocol.codec.{name}", f"repro.multiuser.checkin:{name}", "fn"))
    return points


#: the spans the set-up-phase metrics read; recorded even while the
#: tracer is quiet
_SETUP_SPANS = {
    "workloads.specgen.generate", "core.indexes.rebuild", "core.bulk.finalize",
}


def install(tracer: Tracer) -> None:
    """Patch every trace point (``tracer.unpatch()`` restores them)."""
    for name, target, kind in _points():
        tracer.patch(name, target, kind, _MEASURES.get(target), name in _SETUP_SPANS)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: name -> (unit, better, how, phase, argument). *how* is one of
#: ``self_per_op`` (self µs of the prefix's spans per primary op),
#: ``self_per_call``, ``mean_ms`` / ``mean_s`` (mean inclusive time per
#: call), ``total_s`` / ``total_ms`` (inclusive time), ``calls``,
#: ``calls_per_write``, ``sum_n`` / ``n_per_call`` (the boundary count
#: *n* of the spans), ``count`` (a counter the workload or the runner
#: supplies under *argument*).
PER_LAYER: dict[str, tuple[str, str, str, str, str]] = {
    "workloads.specgen.generate_s": ("s", "lower", "total_s", "setup", "workloads.specgen."),
    "spades.tool.op_self_us": ("us", "lower", "self_per_op", "measure", "spades.tool."),
    "core.database.mutate_self_us": ("us", "lower", "self_per_op", "measure", "core.database."),
    "core.database.txn_commits": ("count", "lower", "calls", "measure", "core.completeness.note_commit"),
    "core.indexes.maintain_self_us": ("us", "lower", "self_per_op", "measure", "core.indexes.maintain."),
    "core.indexes.maintain_calls_per_write": ("count", "lower", "calls_per_write", "measure", "core.indexes.maintain."),
    "core.indexes.rebuild_s": ("s", "lower", "total_s", "setup+measure", "core.indexes.rebuild"),
    "core.indexes.lookup_self_us": ("us", "lower", "self_per_op", "measure", "core.indexes.lookup."),
    "core.consistency.validate_self_us": ("us", "lower", "self_per_op", "measure", "core.consistency."),
    "core.consistency.calls_per_write": ("count", "lower", "calls_per_write", "measure", "core.consistency."),
    "core.completeness.note_commit_self_us": ("us", "lower", "self_per_op", "measure", "core.completeness.note_commit"),
    "core.completeness.check_ms": ("ms", "lower", "mean_ms", "measure", "core.completeness.check"),
    "core.completeness.dirty_per_check": ("count", "lower", "count", "measure", "completeness_dirty_per_check"),
    "core.query.planner.optimize_self_us": ("us", "lower", "self_per_op", "measure", "core.query.planner.optimize"),
    "core.query.planner.cache_hit_ratio": ("ratio", "higher", "count", "measure", "plan_cache_hit_ratio"),
    "core.query.planner.reoptimizations": ("count", "lower", "count", "measure", "plan_cache_reoptimizations"),
    "core.query.planner.execute_self_us": ("us", "lower", "self_per_op", "measure", "core.query.planner.execute"),
    "core.query.planner.rows_per_query": ("count", "lower", "n_per_call", "measure", "core.query.planner.execute"),
    "core.query.parallel.run_sharded_self_ms": ("ms", "lower", "self_ms_per_call", "measure", "core.query.parallel.run_sharded"),
    "core.query.parallel.dispatched_shards": ("count", "higher", "count", "measure", "dispatched_shards"),
    "core.query.parallel.fallbacks": ("count", "lower", "count", "measure", "parallel_fallbacks"),
    "core.query.retrieval.call_self_us": ("us", "lower", "self_per_op", "measure", "core.query.retrieval."),
    "query_mix.point.p50_ms": ("ms", "lower", "count", "measure", "point_p50_ms"),
    "query_mix.prefix.p50_ms": ("ms", "lower", "count", "measure", "prefix_p50_ms"),
    "query_mix.navigate.p50_ms": ("ms", "lower", "count", "measure", "navigate_p50_ms"),
    "query_mix.closure.p50_ms": ("ms", "lower", "count", "measure", "closure_p50_ms"),
    "query_mix.join.p50_ms": ("ms", "lower", "count", "measure", "join_p50_ms"),
    "query_mix.scan_select.p50_ms": ("ms", "lower", "count", "measure", "scan_select_p50_ms"),
    "query_mix.report.p50_ms": ("ms", "lower", "count", "measure", "report_p50_ms"),
    "core.bulk.finalize_s": ("s", "lower", "total_s", "setup+measure", "core.bulk.finalize"),
    "core.bulk.load_item_states_ms": ("ms", "lower", "mean_ms", "measure", "core.bulk.load_item_states"),
    "core.versions.create_version_ms": ("ms", "lower", "mean_ms", "measure", "core.versions.create_version"),
    "core.versions.view_materialize_ms": ("ms", "lower", "mean_ms", "measure", "core.versions.view"),
    "core.versions.compact_s": ("s", "lower", "total_s", "measure", "core.versions.compact"),
    "core.versions.states_dropped": ("count", "higher", "count", "measure", "states_dropped"),
    "core.versions.stored_states": ("count", "lower", "count", "measure", "stored_states"),
    "core.storage.serialize.txn_delta_self_us": ("us", "lower", "self_per_op", "measure", "core.storage.serialize.txn_delta"),
    "core.storage.serialize.image_encode_s": ("s", "lower", "total_s", "measure", "core.storage.serialize.image_encode"),
    "core.storage.serialize.image_decode_s": ("s", "lower", "total_s", "recover", "core.storage.serialize.image_decode"),
    "core.storage.serialize.apply_delta_self_us": ("us", "lower", "self_per_call", "recover", "core.storage.serialize.apply_delta"),
    "core.storage.recordfile.append_self_us": ("us", "lower", "self_per_op", "measure", "core.storage.recordfile.append"),
    "core.storage.recordfile.appends": ("count", "lower", "calls", "measure", "core.storage.recordfile.append"),
    "core.storage.recordfile.fsyncs_per_write": ("count", "lower", "calls_per_write", "measure", "core.storage.recordfile.fsync"),
    "core.storage.recordfile.bytes_appended": ("bytes", "lower", "count", "measure", "bytes_appended"),
    "core.storage.recordfile.bytes_rewritten": ("bytes", "lower", "sum_n", "measure", "core.storage.recordfile.rewrite"),
    "core.storage.recordfile.scan_s": ("s", "lower", "total_s", "recover", "core.storage.recordfile.scan"),
    "core.storage.engine.budget_stall_ms": ("ms", "lower", "total_ms", "measure", "core.storage.engine.enforce_budget"),
    "core.storage.engine.compactions": ("count", "lower", "calls", "measure", "core.storage.engine.compact"),
    "core.storage.engine.compact_s": ("s", "lower", "total_s", "measure", "core.storage.engine.compact"),
    "core.storage.engine.checkpoint_s": ("s", "lower", "total_s", "measure", "core.storage.engine.checkpoint"),
    "core.storage.engine.open_s": ("s", "lower", "mean_s", "recover", "core.storage.engine.open"),
    "core.storage.engine.replayed_deltas": ("count", "lower", "count", "recover", "replayed_deltas"),
    "multiuser.server.check_out_ms": ("ms", "lower", "mean_ms", "measure", "multiuser.server.check_out"),
    "multiuser.server.apply_check_in_ms": ("ms", "lower", "mean_ms", "measure", "multiuser.server.apply_check_in"),
    "multiuser.server.checkins_rejected": ("count", "lower", "count", "measure", "checkins_rejected"),
    "multiuser.server.publish_snapshot_ms": ("ms", "lower", "mean_ms", "measure", "multiuser.server.publish_snapshot"),
    "multiuser.server.maintain_ms": ("ms", "lower", "mean_ms", "measure", "multiuser.server.maintain"),
    "multiuser.server.maintain_runs": ("count", "lower", "count", "measure", "maintain_runs"),
    "multiuser.service.wire_overhead_us": ("us", "lower", "count", "measure", "wire_overhead_us"),
    "multiuser.service.requests_served": ("count", "higher", "count", "measure", "requests_served"),
    "multiuser.service.reads_served": ("count", "higher", "count", "measure", "reads_served"),
    "multiuser.protocol.codec_self_us": ("us", "lower", "self_per_op", "measure", "multiuser.protocol.codec."),
    "multiuser.protocol.bytes_per_checkout": ("bytes", "lower", "count", "measure", "bytes_per_checkout"),
    "multiuser.client.materialize_ms": ("ms", "lower", "mean_ms", "measure", "multiuser.client.materialize"),
    "multiuser.checkin.build_package_ms": ("ms", "lower", "mean_ms", "measure", "multiuser.checkin.build_package"),
    "bench.op_tail_ms": ("ms", "lower", "count", "measure", "op_tail_ms"),
    "bench.trace.overhead_ratio": ("ratio", "lower", "count", "measure", "trace_overhead_ratio"),
    "bench.trace.spans": ("count", "lower", "count", "measure", "trace_spans"),
}


def _select(
    table: dict[str, dict[str, float]], prefix: str
) -> tuple[float, float, float, float]:
    """(calls, inclusive ns, self ns, n) summed over span names under *prefix*."""
    calls = total = own = n = 0.0
    for name, row in table.items():
        if name and (name == prefix or name.startswith(prefix)):
            calls += row["calls"]
            total += row["total_ns"]
            own += row["self_ns"]
            n += row["n"]
    return calls, total, own, n


def per_layer_metrics(
    tables: dict[str, dict[str, dict[str, float]]],
    counts: dict[str, float],
    ops: int,
    writes: int,
) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``.

    *tables* maps a phase name to that phase's
    :func:`bench.trace.self_times` table. A layer the workload bypasses
    has no spans, so its metrics read 0.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name, (unit, __, how, phases, argument) in PER_LAYER.items():
        if how == "count":
            metrics[name] = (float(counts.get(argument, 0)), unit)
            continue
        calls = total = own = n = 0.0
        for phase in phases.split("+"):
            c, t, o, k = _select(tables.get(phase, {}), argument)
            calls, total, own, n = calls + c, total + t, own + o, n + k
        value = {
            "self_per_op": own / 1e3 / ops if ops else 0.0,
            "self_per_call": own / 1e3 / calls if calls else 0.0,
            "self_ms_per_call": own / 1e6 / calls if calls else 0.0,
            "mean_ms": total / 1e6 / calls if calls else 0.0,
            "mean_s": total / 1e9 / calls if calls else 0.0,
            "total_ms": total / 1e6,
            "total_s": total / 1e9,
            "calls": calls,
            "sum_n": n,
            "n_per_call": n / calls if calls else 0.0,
            "calls_per_write": calls / writes if writes else 0.0,
        }[how]
        metrics[name] = (value, unit)
    return metrics
