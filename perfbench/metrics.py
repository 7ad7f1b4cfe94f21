"""Metric table of the repository benchmark.

``BENCHMARK.json`` lists the same metrics (name, unit, direction); this
module adds, for every per-layer metric, the end-to-end metric and workload
it is expected to move.  ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: for a per-layer metric: which end-to-end metric, on which workload,
    #: a change in this layer should move
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("paths_per_s", "paths/s", "higher"),
    Metric("solve_s_p50", "s", "lower"),
    Metric("solve_s_tail", "s", "lower"),
    Metric("peak_rss_mib", "MiB", "lower"),
)

_PLAN = "paths_per_s on xprec-fixed and d-registry"
_LINSOLVE = "paths_per_s on xprec-fixed"
_BACKEND = "paths_per_s on xprec-fixed, solve_s_p50 on escalate-divergent"
_STEP = "solve_s_p50 on d-registry"
_LADDER = "solve_s_p50 on escalate-divergent"
_SERVICE = "solve_s_p50 and solve_s_tail on service-pool"
_SELF = "none: a check on the trace itself"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("core.evalplan.calls", "count", "lower", _PLAN),
    Metric("core.evalplan.busy_s", "s", "lower", _PLAN),
    Metric("core.evalplan.lanes_per_call", "lanes", "higher", _PLAN),
    # computed: compile-time PlanOpCounts total x plan executions
    Metric("core.evalplan.mp_ops", "count", "lower", _PLAN),
    Metric("core.evalplan.step_cache_hits", "count", "higher",
           "paths_per_s on d-registry"),
    Metric("core.evalplan.step_cache_misses", "count", "lower",
           "paths_per_s on d-registry"),
    Metric("core.evalplan.compile_cache_hits", "count", "higher", _PLAN),
    Metric("core.evalplan.compile_cache_misses", "count", "lower", _PLAN),
    Metric("tracking.batch_linsolve.calls", "count", "lower", _LINSOLVE),
    Metric("tracking.batch_linsolve.busy_s", "s", "lower", _LINSOLVE),
    Metric("tracking.batch_linsolve.singular_lanes", "count", "lower",
           _LINSOLVE),
    Metric("multiprec.backend.calls", "count", "lower", _BACKEND),
    Metric("multiprec.backend.calls_per_newton_iteration", "calls/iter",
           "lower", _BACKEND),
    Metric("multiprec.backend.convert_calls", "count", "lower", _BACKEND),
    Metric("tracking.newton.calls", "count", "lower", _STEP),
    Metric("tracking.newton.self_s", "s", "lower", _STEP),
    Metric("tracking.newton.iterations", "count", "lower", _STEP),
    Metric("tracking.newton.converged_ratio", "ratio", "higher", _STEP),
    Metric("tracking.newton.endgame_s", "s", "lower", _STEP),
    Metric("tracking.predictor.calls", "count", "lower", _STEP),
    Metric("tracking.predictor.self_s", "s", "lower", _STEP),
    Metric("tracking.batch_tracker.calls", "count", "lower", _STEP),
    Metric("tracking.batch_tracker.self_s", "s", "lower", _STEP),
    Metric("tracking.batch_tracker.rounds", "count", "lower", _STEP),
    Metric("tracking.batch_tracker.batched_evals", "count", "lower", _STEP),
    Metric("tracking.batch_tracker.lane_evals", "count", "lower", _STEP),
    Metric("tracking.escalation.escalated_paths", "count", "lower", _LADDER),
    Metric("tracking.escalation.recovered", "count", "higher", _LADDER),
    Metric("tracking.escalation.recovery_ratio", "ratio", "higher", _LADDER),
    Metric("tracking.escalation.wide_rung_s", "s", "lower", _LADDER),
    Metric("tracking.start_systems.busy_s", "s", "lower", _STEP),
    Metric("tracking.solver.self_s", "s", "lower", _STEP),
    Metric("service.queue.wait_s", "s", "lower", _SERVICE),
    Metric("service.sharded.busy_s", "s", "lower", _SERVICE),
    Metric("service.sharded.worker_retries", "count", "lower", _SERVICE),
    Metric("service.store.puts", "count", "lower", _SERVICE),
    Metric("service.store.gets", "count", "lower", _SERVICE),
    Metric("service.store.bytes", "bytes", "lower", _SERVICE),
    Metric("service.store.busy_s", "s", "lower", _SERVICE),
    Metric("tracking.parameter.cold_solves", "count", "lower", _SERVICE),
    Metric("tracking.parameter.warm_serves", "count", "higher", _SERVICE),
    Metric("trace.overhead_s", "s", "lower", _SELF),
    Metric("trace.overhead_frac", "ratio", "lower", _SELF),
    Metric("trace.self_coverage", "ratio", "higher", _SELF),
)

#: The traced run's self times must add up to the solve wall within this
#: share: the layers are disjoint and together cover the whole solve.
SELF_COVERAGE_TOLERANCE = 0.05
