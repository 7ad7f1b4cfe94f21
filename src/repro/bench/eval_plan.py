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
   ``BatchHomotopy.evaluate_batch`` runs against the reference walk
   :func:`~repro.core.reference.walk_homotopy`, per rung (d/dd/qd) and
   batch size.  Both produce bit-for-bit identical value rows, so the
   ratio is pure schedule cost.
3. **End-to-end tracker wall** (:func:`run_plan_tracker_bench`): the qd
   :class:`~repro.tracking.batch_tracker.BatchTracker` tracks the cyclic
   quadratic workload with its homotopy evaluating through the plan and
   through the walk, reporting wall seconds and paths/sec both ways.
4. **Allocations per evaluation** (:func:`run_allocation_bench`): NumPy
   constructor-family calls (``np.empty`` / ``zeros`` / ``ones`` /
   ``full`` and their ``_like`` variants) per ``evaluate_batch``, for the
   walk and for the plan, whose rows live in its persistent arena.

Timings take the best of several repetitions, the two arms interleaved,
so the JSON report (``BENCH_eval_plan.json``) is stable enough for the
regression assertions in ``tests/bench``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.evalplan import EvaluationPlan, HomotopyPlan
from ..core.reference import homotopy_walk_op_counts, walk_homotopy, walk_op_counts
from ..multiprec.backend import backend_for_context
from ..multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE, NumericContext
from ..polynomials.system import PolynomialSystem
from ..tracking.batch_tracker import BatchTracker
from ..tracking.homotopy import BatchHomotopy, BatchHomotopyEvaluation
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
    "sharing_report",
]

DEFAULT_CONTEXTS = (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)
# Interleaved repetitions of the end-to-end tracker A/B; each keeps its best.
_TRACKER_REPEATS = 3


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
    """End-to-end tracker wall, homotopy evaluated by the plan or the walk."""

    context: str
    batch_size: int
    plans: bool
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
            "plans": self.plans,
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


def sharing_report(target: PolynomialSystem,
                   start: Optional[PolynomialSystem] = None) -> Dict[str, object]:
    """Ops saved by the compiled evaluation plan's sharing, per evaluation.

    Compiles ``target`` into an :class:`~repro.core.evalplan.EvaluationPlan`
    (or, when ``start`` is given, the pair into a
    :class:`~repro.core.evalplan.HomotopyPlan`) and compares the compiled
    schedule's operation count against the reference walk's
    (:mod:`repro.core.reference`).  Counts are batch-array operations per
    evaluation in multiprecision units (a ``**e`` counts as its dd/qd
    binary multiply chain); see :class:`~repro.core.evalplan.PlanOpCounts`.
    This is what generates the numbers quoted in ``docs/eval_plans.md`` and
    the op-count section of ``BENCH_eval_plan.json`` -- measured from the
    compiled schedule, not hand-written.
    """
    if start is None:
        plan = EvaluationPlan(target)
        walk = walk_op_counts(target)
    else:
        plan = HomotopyPlan(start, target)
        walk = homotopy_walk_op_counts(start, target)
    compiled = plan.op_counts
    return {
        "walk": walk.as_dict(),
        "plan": compiled.as_dict(),
        "multiplications_saved": walk.multiplications - compiled.multiplications,
        "additions_saved": walk.additions - compiled.additions,
        "multiplication_saving_factor": (
            walk.multiplications / compiled.multiplications
            if compiled.multiplications else float("inf")),
        "sharing": dict(plan.statistics),
    }


def op_count_report(dimension: int = 4) -> Dict[str, object]:
    """Walk-vs-plan operation counts of the escalation workload's homotopy.

    Per batched homotopy evaluation, in multiprecision units (see
    :func:`sharing_report`); the dimension-4 default is the 16-path
    escalation workload of ``BENCH_escalation.json``.
    """
    start, target = _escalation_pair(dimension)
    report = sharing_report(target, start)
    report["workload"] = {
        "system": f"cyclic quadratic, dimension {dimension}",
        "paths": 2 ** dimension,
    }
    return report


def _walk(homotopy: BatchHomotopy, points, t) -> BatchHomotopyEvaluation:
    """``homotopy`` evaluated by the reference walk instead of its plan."""
    values, jacobian, t_derivative = walk_homotopy(
        homotopy.start_system, homotopy.target_system, points, t,
        homotopy.gamma, homotopy.backend)
    return BatchHomotopyEvaluation(values=values, jacobian=jacobian,
                                   t_derivative=t_derivative)


class _WalkBatchHomotopy(BatchHomotopy):
    """A :class:`BatchHomotopy` whose evaluations run the reference walk:
    the baseline arm of the end-to-end tracker comparison."""

    evaluate_batch = _walk


def run_eval_plan_bench(batch_sizes: Sequence[int] = (16, 64),
                        contexts: Sequence[NumericContext] = DEFAULT_CONTEXTS,
                        dimension: int = 4,
                        repeats: int = 5) -> List[EvalPlanRow]:
    """Time ``BatchHomotopy.evaluate_batch`` against the walk, per rung."""
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
            inner = max(2, min(20, 2000 // batch))
            plan_seconds, walk_seconds = _best_interleaved(
                lambda: homotopy.evaluate_batch(points, t),
                lambda: _walk(homotopy, points, t), repeats, inner)
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
    """Track the cyclic quadratic workload end to end, plan vs walk.

    Each of ``_TRACKER_REPEATS`` repetitions tracks every path with a fresh
    tracker, once with the homotopy evaluating through its compiled plan
    and once through the reference walk; the arms alternate and each keeps
    its best wall.  The
    qd default is the rung where the multiprecision-op savings are the
    most expensive to ignore; the checked-in ``BENCH_eval_plan.json``
    records the plan-vs-walk wall ratio from these rows.
    """
    target = cyclic_quadratic_system(dimension)
    start = total_degree_start_system(target)
    starts = list(start_solutions(target))
    converged: Dict[bool, int] = {}

    def track(plans: bool) -> Callable[[], None]:
        def run():
            tracker = BatchTracker(start, target, context=context,
                                   batch_size=batch_size)
            if not plans:
                tracker.homotopy = _WalkBatchHomotopy(
                    start, target, gamma=tracker.homotopy.gamma,
                    context=context, backend=tracker.backend)
            converged[plans] = tracker.track_batches(starts).paths_converged
        return run

    walls = _best_interleaved(track(True), track(False), _TRACKER_REPEATS, 1)
    return [PlanTrackerRow(context=context.name,
                           batch_size=batch_size or len(starts),
                           plans=plans,
                           paths_tracked=len(starts),
                           paths_converged=converged[plans],
                           wall_seconds=wall)
            for plans, wall in zip((True, False), walls)]


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
    plan's multiplication/addition saving over the reference walk, plus
    the plan-vs-walk bit-for-bit identity verdict on a random lane batch.
    Identity must hold on *every* registry shape, including
    irregular-degree systems the plan compiler had never been pointed at
    before the registry existed.
    """
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
        walk = _walk(homotopy, points, t)
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

    Two modes: the reference walk (``walk``) and the plan, whose rows live
    in its persistent arena (``plans_arenas``).  Each mode is warmed first
    (plan compilation, arena sizing and scratch-stack growth happen once,
    outside the counted region), so the counts reflect steady-state
    per-evaluation allocation pressure.
    """
    start, target = _escalation_pair(dimension)
    backend = backend_for_context(context)
    points = _lane_points(backend, dimension, lanes)
    t = np.random.default_rng(5).uniform(0.1, 0.9, size=lanes)
    homotopy = BatchHomotopy(start, target, context=context, backend=backend)
    results: Dict[str, float] = {}
    for mode, evaluate in (("walk", _walk),
                           ("plans_arenas", BatchHomotopy.evaluate_batch)):
        evaluate(homotopy, points, t)  # warm outside the count
        total = _count_numpy_allocations(
            lambda: [evaluate(homotopy, points, t)
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
    plan_wall = next((r.wall_seconds for r in tracker_rows if r.plans), None)
    walk_wall = next((r.wall_seconds for r in tracker_rows if not r.plans), None)
    if plan_wall and walk_wall:
        report["qd_tracker_wall_speedup"] = walk_wall / plan_wall
    if allocations:
        report["arena"] = {"allocations_per_evaluation": dict(allocations)}
    return report
