"""The four workloads.

Each module exposes ``setup(ctx, rep) -> state``, ``measure(ctx,
state) -> Measured`` (one pass) and ``verify(ctx, state, merged)`` over
a :class:`bench.harness.Context`, and says how it is run: ``PASSES``
(measured passes of an untraced run), ``SETUP_REPS`` (how many of them
start from a fresh set-up) and ``WAITS_FOR_PROCESSES`` (ops wait for
another process, so they are timed on the wall clock, not in CPU
time). Optionally ``teardown(state)`` (when set-up started something
that must be stopped), ``RSS_OF_CHILDREN`` (peak RSS is the child
process's) and ``trace_counts(spans, measured)`` (counts only a traced
run can take).
"""

from bench.workloads import analyst_session, bulk_evolve, query_mix, team_service

#: run order of ``bench/run.py`` without ``--workload``
WORKLOADS = {
    "analyst_session": analyst_session,
    "query_mix": query_mix,
    "team_service": team_service,
    "bulk_evolve": bulk_evolve,
}
