"""Plan-vs-walk benchmark of the compiled evaluation schedules.

Four measurements back the evaluation-plan work (see
:mod:`repro.core.evalplan`):

1. **Operation counts** (:func:`op_count_report`): the compiled
   :class:`~repro.core.evalplan.HomotopyPlan` of the escalation workload
   (the dimension-4 cyclic quadratic system and its total-degree start
   system, 16 paths) against the walk path -- multiprecision
   multiplications and additions per batched homotopy evaluation, computed
   from the compiled schedule at compile time.  This is the source of the
   ">= 1.5x fewer multiplications" acceptance number.
2. **Evaluation throughput** (:func:`run_eval_plan_bench`): wall-clock
   ``BatchHomotopy.evaluate_batch`` runs, plan vs walk (toggled via
   :func:`~repro.core.evalplan.use_eval_plans`), per rung (d/dd/qd) and
   batch size.  Both paths produce bit-for-bit identical value rows, so
   the ratio is pure schedule cost.
3. **End-to-end tracker wall** (:func:`run_plan_tracker_bench`): the qd
   :class:`~repro.tracking.batch_tracker.BatchTracker` tracks the cyclic
   quadratic workload with plans on and off, reporting wall seconds and
   paths/sec both ways.
4. **Allocations per evaluation** (:func:`run_allocation_bench`): NumPy
   constructor-family calls (``np.empty`` / ``zeros`` / ``ones`` /
   ``full`` and their ``_like`` variants) per ``evaluate_batch``, for the
   walk and for the plan, whose rows live in its persistent arena.

Timings take the best of several repetitions, so the JSON report
(``BENCH_eval_plan.json``) is stable enough for the regression assertions
in ``tests/bench``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.evalplan import use_eval_plans
from ..core.opcounts import sharing_report
from ..multiprec.backend import backend_for_context
from ..multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE, NumericContext
from ..tracking.batch_tracker import BatchTracker
from ..tracking.homotopy import BatchHomotopy
from ..tracking.start_systems import start_solutions, total_degree_start_system
from .batch_tracking import cyclic_quadratic_system
from .qd_arith import _best_interleaved

__all__ = [
    "EvalPlanRow",
    "PlanTrackerRow",
    "eval_plan_report",
    "op_count_report",
    "run_allocation_bench",
    "run_eval_plan_bench",
    "run_plan_tracker_bench",
    "run_scenario_eval_plan_bench",
]

DEFAULT_CONTEXTS = (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)


@dataclass
class EvalPlanRow:
    """One (context, batch size) cell of the evaluation-throughput sweep."""

    context: str
    batch: int
    plan_evals_per_second: float
    walk_evals_per_second: float

    @property
    def speedup(self) -> float:
        if self.walk_evals_per_second == 0.0:
            return float("inf")
        return self.plan_evals_per_second / self.walk_evals_per_second

    def as_dict(self) -> Dict[str, object]:
        return {
            "context": self.context,
            "batch": self.batch,
            "plan_evals_per_s": self.plan_evals_per_second,
            "walk_evals_per_s": self.walk_evals_per_second,
            "speedup": self.speedup,
        }


@dataclass
class PlanTrackerRow:
    """End-to-end tracker wall, one toggle state."""

    context: str
    batch_size: int
    use_plans: bool
    paths_tracked: int
    paths_converged: int
    wall_seconds: float

    @property
    def paths_per_second(self) -> float:
        return (self.paths_tracked / self.wall_seconds
                if self.wall_seconds else float("inf"))

    def as_dict(self) -> Dict[str, object]:
        return {
            "context": self.context,
            "batch": self.batch_size,
            "plans": self.use_plans,
            "paths": self.paths_tracked,
            "converged": self.paths_converged,
            "wall_s": self.wall_seconds,
            "paths_per_s_wall": self.paths_per_second,
        }


def _escalation_pair(dimension: int):
    target = cyclic_quadratic_system(dimension)
    return total_degree_start_system(target), target


def _lane_points(backend, dimension: int, lanes: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    points = [[complex(a, b) for a, b in zip(rng.normal(size=dimension),
                                             rng.normal(size=dimension))]
              for _ in range(lanes)]
    return backend.from_points(points)


def op_count_report(dimension: int = 4) -> Dict[str, object]:
    """Walk-vs-plan operation counts of the escalation workload's homotopy.

    Per batched homotopy evaluation, in multiprecision units (see
    :func:`repro.core.opcounts.sharing_report`); the dimension-4 default is
    the 16-path escalation workload of ``BENCH_escalation.json``.
    """
    start, target = _escalation_pair(dimension)
    report = sharing_report(target, start)
    report["workload"] = {
        "system": f"cyclic quadratic, dimension {dimension}",
        "paths": 2 ** dimension,
    }
    return report


def run_eval_plan_bench(batch_sizes: Sequence[int] = (16, 64),
                        contexts: Sequence[NumericContext] = DEFAULT_CONTEXTS,
                        dimension: int = 4,
                        repeats: int = 5) -> List[EvalPlanRow]:
    """Time ``BatchHomotopy.evaluate_batch`` plan vs walk, per rung."""
    start, target = _escalation_pair(dimension)
    rows: List[EvalPlanRow] = []
    rng = np.random.default_rng(3)
    for context in contexts:
        backend = backend_for_context(context)
        homotopy = BatchHomotopy(start, target, context=context,
                                 backend=backend)
        for batch in batch_sizes:
            batch = int(batch)
            points = _lane_points(backend, dimension, batch)
            t = rng.uniform(0.1, 0.9, size=batch)
            op = lambda: homotopy.evaluate_batch(points, t)  # noqa: E731
            inner = max(2, min(20, 2000 // batch))
            plan_seconds, walk_seconds = _best_interleaved(
                op, use_eval_plans, repeats, inner)
            rows.append(EvalPlanRow(
                context=context.name,
                batch=batch,
                plan_evals_per_second=(1.0 / plan_seconds
                                       if plan_seconds else float("inf")),
                walk_evals_per_second=(1.0 / walk_seconds
                                       if walk_seconds else float("inf")),
            ))
    return rows


def run_plan_tracker_bench(context: NumericContext = QUAD_DOUBLE,
                           dimension: int = 3,
                           batch_size: Optional[int] = None
                           ) -> List[PlanTrackerRow]:
    """Track the cyclic quadratic workload end to end, plans on and off.

    The qd default is the rung where the multiprecision-op savings are the
    most expensive to ignore; the checked-in ``BENCH_eval_plan.json``
    records the plan-vs-walk wall ratio from these rows.
    """
    target = cyclic_quadratic_system(dimension)
    start = total_degree_start_system(target)
    starts = list(start_solutions(target))
    rows: List[PlanTrackerRow] = []
    for use_plans in (True, False):
        with use_eval_plans(use_plans):
            tracker = BatchTracker(start, target, context=context,
                                   batch_size=batch_size)
            if use_plans:
                tracker.homotopy.plan  # compile outside the timed region
            began = time.perf_counter()
            outcome = tracker.track_batches(starts)
            wall = time.perf_counter() - began
        rows.append(PlanTrackerRow(
            context=context.name,
            batch_size=batch_size or len(starts),
            use_plans=use_plans,
            paths_tracked=len(starts),
            paths_converged=outcome.paths_converged,
            wall_seconds=wall,
        ))
    return rows


def _component_planes(array, context: NumericContext):
    """The raw float64 planes of one backend array (d/dd/qd)."""
    if context.name == "d":
        return [array.real, array.imag]
    if context.name == "dd":
        return [array.real.hi, array.real.lo, array.imag.hi, array.imag.lo]
    return ([getattr(array.real, f"c{c}") for c in range(4)]
            + [getattr(array.imag, f"c{c}") for c in range(4)])


def _bit_identical(a, b, context: NumericContext) -> bool:
    """Exact plane equality, NaNs matching positionally."""
    return all(
        np.array_equal(pa, pb, equal_nan=True)
        for pa, pb in zip(_component_planes(a, context),
                          _component_planes(b, context)))


def _evaluations_identical(a, b, dimension: int,
                           context: NumericContext) -> bool:
    """Whether two ``BatchHomotopyEvaluation``s agree bit for bit."""
    for i in range(dimension):
        if not _bit_identical(a.values[i], b.values[i], context):
            return False
        if not _bit_identical(a.t_derivative[i], b.t_derivative[i], context):
            return False
        for j in range(dimension):
            if not _bit_identical(a.jacobian[i][j], b.jacobian[i][j],
                                  context):
                return False
    return True


def run_scenario_eval_plan_bench(scenarios=None,
                                 context: NumericContext = DOUBLE_DOUBLE,
                                 lanes: int = 8,
                                 seed: int = 13,
                                 ) -> Dict[str, Dict[str, object]]:
    """Sweep the scenario registry through the plan differential.

    Per scenario (defaults to
    :func:`repro.bench.scenarios.bench_scenarios`): the compiled homotopy
    plan's multiplication/addition saving over the walk path, plus the
    plan-vs-walk bit-for-bit identity verdict on a random lane batch.
    Identity must hold on *every* registry shape, including
    irregular-degree systems the plan compiler had never been pointed at
    before the registry existed.
    """
    from ..core.opcounts import sharing_report
    from .scenarios import bench_scenarios

    matrix: Dict[str, Dict[str, object]] = {}
    rng = np.random.default_rng(seed)
    for scenario in (scenarios if scenarios is not None
                     else bench_scenarios()):
        target = scenario.build_system()
        start = total_degree_start_system(target)
        op = sharing_report(target, start)

        backend = backend_for_context(context)
        homotopy = BatchHomotopy(start, target, context=context,
                                 backend=backend)
        points = _lane_points(backend, target.dimension, lanes,
                              seed=int(rng.integers(1, 2**31)))
        t = rng.uniform(0.1, 0.9, size=lanes)
        with use_eval_plans(False):
            walk = homotopy.evaluate_batch(points, t)
        with use_eval_plans(True):
            plan = homotopy.evaluate_batch(points, t)

        entry = scenario.as_dict()
        entry.update({
            "context": context.name,
            "lanes": int(lanes),
            "multiplication_saving_factor":
                op["multiplication_saving_factor"],
            "plan_walk_identical": _evaluations_identical(
                walk, plan, target.dimension, context),
        })
        matrix[scenario.name] = entry
    return matrix


#: The NumPy constructor family the allocation bench intercepts.  Ufunc
#: output buffers are invisible to this count, so the numbers are a
#: *relative* allocation pressure measure, not a byte census.
_ALLOCATOR_NAMES = ("empty", "zeros", "ones", "full",
                    "empty_like", "zeros_like", "ones_like", "full_like")


def _count_numpy_allocations(fn: Callable[[], object]) -> int:
    """Run ``fn`` counting NumPy constructor-family calls."""
    count = 0
    originals = {name: getattr(np, name) for name in _ALLOCATOR_NAMES}

    def counting(original):
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return original(*args, **kwargs)
        return wrapper

    for name, original in originals.items():
        setattr(np, name, counting(original))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(np, name, original)
    return count


def run_allocation_bench(context: NumericContext = QUAD_DOUBLE,
                         dimension: int = 3, lanes: int = 16,
                         evaluations: int = 10) -> Dict[str, float]:
    """Constructor-family allocations per batched homotopy evaluation.

    Two modes: the walk path (``walk``) and the plan path, whose rows live
    in its persistent arena (``plans_arenas``).  Each mode is warmed first
    (plan compilation, arena sizing and scratch-stack growth happen once,
    outside the counted region), so the counts reflect steady-state
    per-evaluation allocation pressure.
    """
    start, target = _escalation_pair(dimension)
    backend = backend_for_context(context)
    points = _lane_points(backend, dimension, lanes)
    t = np.random.default_rng(5).uniform(0.1, 0.9, size=lanes)
    results: Dict[str, float] = {}
    for mode, plans in (("walk", False), ("plans_arenas", True)):
        homotopy = BatchHomotopy(start, target, context=context,
                                 backend=backend)
        with use_eval_plans(plans):
            homotopy.evaluate_batch(points, t)  # warm outside the count
            total = _count_numpy_allocations(
                lambda: [homotopy.evaluate_batch(points, t)
                         for _ in range(evaluations)])
        results[mode] = total / float(evaluations)
    return results


def eval_plan_report(op_counts: Dict[str, object],
                     eval_rows: Sequence[EvalPlanRow],
                     tracker_rows: Sequence[PlanTrackerRow],
                     allocations: Optional[Dict[str, float]] = None) -> Dict:
    """Assemble the ``BENCH_eval_plan.json`` payload."""
    report: Dict = {
        "op_counts": op_counts,
        "evaluation": [row.as_dict() for row in eval_rows],
        "tracker": [row.as_dict() for row in tracker_rows],
    }
    plan_wall = next((r.wall_seconds for r in tracker_rows if r.use_plans), None)
    walk_wall = next((r.wall_seconds for r in tracker_rows if not r.use_plans), None)
    if plan_wall and walk_wall:
        report["qd_tracker_wall_speedup"] = walk_wall / plan_wall
    if allocations:
        report["arena"] = {"allocations_per_evaluation": dict(allocations)}
    return report
