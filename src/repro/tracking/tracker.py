"""Adaptive-step predictor-corrector path tracking.

This is the application layer the paper's kernels are meant to accelerate:
track a solution of the start system ``g(x) = 0`` along the homotopy
``h(x, t) = gamma (1-t) g(x) + t f(x)`` to a solution of the target system at
``t = 1``.  The loop is the standard one used by PHCpack-style trackers:

1. predict the solution at ``t + dt`` (secant or tangent predictor);
2. correct with a few Newton iterations at the new ``t``;
3. accept and possibly enlarge the step on success, or shrink the step and
   retry on failure;
4. finish with a sharpened Newton run at ``t = 1``.

Everything is generic over the numeric context, so the same tracker runs in
hardware doubles, double-doubles or quad-doubles -- which is what the
quality-up analysis compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, PathTrackingError, SingularMatrixError
from ..multiprec.numeric import DOUBLE, NumericContext
from .homotopy import Homotopy
from .newton import NewtonCorrector, NewtonResult
from .predictor import SecantPredictor, TangentPredictor

__all__ = ["TrackerOptions", "StepControl", "PathPoint", "PathResult", "PathTracker"]


@dataclass(frozen=True)
class TrackerOptions:
    """Tuning knobs of the tracker (defaults follow common practice)."""

    initial_step: float = 0.1
    min_step: float = 1e-6
    max_step: float = 0.25
    step_expansion: float = 1.5
    step_reduction: float = 0.5
    corrector_tolerance: float = 1e-10
    corrector_iterations: int = 4
    end_tolerance: float = 1e-12
    end_iterations: int = 10
    max_steps: int = 500
    predictor: str = "secant"   # "secant" | "tangent"


@dataclass(frozen=True)
class StepControl:
    """The adaptive step-size policy, shared by the scalar and batch engines.

    Every rule operates equally on Python floats and on per-lane NumPy
    arrays, so the batched tracker makes exactly the decisions the scalar
    loop would make for each path individually.
    """

    min_step: float
    max_step: float
    expansion: float
    reduction: float

    @classmethod
    def from_options(cls, options: "TrackerOptions") -> "StepControl":
        return cls(min_step=options.min_step, max_step=options.max_step,
                   expansion=options.step_expansion,
                   reduction=options.step_reduction)

    def grown(self, dt, t):
        """Step after an accepted point at ``t`` (clipped to reach 1.0)."""
        return np.minimum(np.minimum(self.max_step, dt * self.expansion),
                          1.0 - t + 1e-16)

    def shrunk(self, dt):
        """Step after a rejected point."""
        return dt * self.reduction

    def underflowed(self, dt):
        """Whether the step fell below the giving-up threshold."""
        return dt < self.min_step

    def clipped_retries(self, t, dt, budget):
        """Skip the retries of a rejected step whose target stays at 1.0.

        A step from ``t`` targets ``min(1, t + dt)``.  When a rejected
        attempt was clipped to 1.0 and the shrunk step still reaches 1.0,
        the retry starts from the same point, predicts to the same target
        and runs the same corrector: a bit-for-bit repeat of the rejection.
        Given the step ``dt`` already shrunk once after such a rejection,
        this replays :meth:`shrunk` while ``t + dt >= 1.0``, the step has
        not underflowed and fewer than ``budget`` retries were replayed.

        Returns ``(dt, k)``: the step after the ``k`` skipped retries.
        The caller charges each of them as if it ran -- one rejected step,
        the rejected attempt's Newton iterations and one attempt against
        ``max_steps`` -- so the end state matches the per-attempt loop.
        A ``budget`` of 0 skips nothing, which is how callers exempt steps
        (or lanes) whose rejected attempt was not clipped.
        """
        dt = np.asarray(dt, dtype=np.float64)
        k = np.zeros(dt.shape, dtype=np.int64)
        while True:
            again = (t + dt >= 1.0) & ~self.underflowed(dt) & (k < budget)
            if not np.any(again):
                return dt, k
            dt = np.where(again, self.shrunk(dt), dt)
            k = k + again

    @staticmethod
    def resumed(dt, collapsed, initial_step):
        """Step a lane restarts with when resumed from a checkpoint.

        A lane keeps the step size it had earned -- that is what makes a
        same-arithmetic resume continue the interrupted run bit-for-bit --
        *except* lanes whose step had collapsed (retired by step
        underflow): their recorded ``dt`` sits below the giving-up
        threshold of the previous arithmetic and would cripple the retry,
        so they restart with a fresh ``initial_step``.  Operates equally on
        floats and per-lane arrays, like the other step rules.
        """
        return np.where(collapsed, initial_step, dt)


@dataclass(frozen=True)
class PathPoint:
    """One accepted point along a path."""

    t: float
    point: tuple
    residual: float
    corrector_iterations: int


@dataclass
class PathResult:
    """Outcome of tracking one path."""

    success: bool
    solution: List
    residual: float
    steps_accepted: int
    steps_rejected: int
    newton_iterations: int
    path: List[PathPoint] = field(default_factory=list)
    failure_reason: Optional[str] = None


class PathTracker:
    """Track one solution path of a homotopy from ``t = 0`` to ``t = 1``."""

    def __init__(self, homotopy: Homotopy, *,
                 context: NumericContext = DOUBLE,
                 options: Optional[TrackerOptions] = None):
        self.homotopy = homotopy
        self.context = context
        self.options = options or TrackerOptions()
        self._step_control = StepControl.from_options(self.options)
        if self.options.predictor == "tangent":
            self._predictor = TangentPredictor(context)
        else:
            self._predictor = SecantPredictor(context)

    @staticmethod
    def _correct_safely(corrector: NewtonCorrector, point: Sequence) -> NewtonResult:
        """Run a corrector, turning a singular Jacobian into non-convergence."""
        try:
            return corrector.correct(point)
        except SingularMatrixError:
            return NewtonResult(solution=list(point), converged=False, iterations=1,
                                residual_norm=float("inf"), update_norm=float("inf"))

    def track(self, start_solution: Sequence) -> PathResult:
        """Track the path starting at a solution of the start system."""
        ctx = self.context
        opts = self.options
        point = [ctx.from_complex(complex(x)) if isinstance(x, (int, float, complex)) else x
                 for x in start_solution]

        self._predictor.reset()
        t = 0.0
        dt = opts.initial_step
        accepted = 0
        rejected = 0
        newton_total = 0
        path: List[PathPoint] = []

        # Make sure the start point is actually on the path at t = 0.
        corrector = NewtonCorrector(self.homotopy.at(0.0), context=ctx,
                                    tolerance=opts.corrector_tolerance,
                                    max_iterations=opts.end_iterations)
        start_result = self._correct_safely(corrector, point)
        newton_total += start_result.iterations
        if not start_result.converged:
            return PathResult(success=False, solution=point,
                              residual=start_result.residual_norm,
                              steps_accepted=0, steps_rejected=0,
                              newton_iterations=newton_total,
                              failure_reason="start point does not satisfy the start system")
        point = start_result.solution
        self._predictor.remember(point, t)

        steps = 0
        while t < 1.0 and steps < opts.max_steps:
            steps += 1
            next_t = min(1.0, t + dt)
            predicted = self._predictor.predict(self.homotopy, point, t, next_t - t)
            corrector = NewtonCorrector(self.homotopy.at(next_t), context=ctx,
                                        tolerance=opts.corrector_tolerance,
                                        max_iterations=opts.corrector_iterations)
            result = self._correct_safely(corrector, predicted)
            newton_total += result.iterations

            if result.converged:
                self._predictor.remember(point, t)
                point = result.solution
                t = next_t
                accepted += 1
                path.append(PathPoint(t=t, point=tuple(point),
                                      residual=result.residual_norm,
                                      corrector_iterations=result.iterations))
                dt = float(self._step_control.grown(dt, t))
            else:
                rejected += 1
                dt = self._step_control.shrunk(dt)
                if next_t == 1.0:
                    dt, retries = self._step_control.clipped_retries(
                        t, dt, opts.max_steps - steps)
                    dt, retries = float(dt), int(retries)
                    steps += retries
                    rejected += retries
                    newton_total += retries * result.iterations
                if self._step_control.underflowed(dt):
                    return PathResult(success=False, solution=point,
                                      residual=result.residual_norm,
                                      steps_accepted=accepted, steps_rejected=rejected,
                                      newton_iterations=newton_total, path=path,
                                      failure_reason="step size underflow")

        if t < 1.0:
            return PathResult(success=False, solution=point, residual=float("inf"),
                              steps_accepted=accepted, steps_rejected=rejected,
                              newton_iterations=newton_total, path=path,
                              failure_reason="maximum number of steps exceeded")

        # Sharpen the solution of the target system at t = 1.
        end_corrector = NewtonCorrector(self.homotopy.at(1.0), context=ctx,
                                        tolerance=opts.end_tolerance,
                                        max_iterations=opts.end_iterations)
        final = self._correct_safely(end_corrector, point)
        newton_total += final.iterations
        return PathResult(success=final.converged, solution=final.solution,
                          residual=final.residual_norm,
                          steps_accepted=accepted, steps_rejected=rejected,
                          newton_iterations=newton_total, path=path,
                          failure_reason=None if final.converged else "end game did not converge")

    def track_many(self, start_solutions: Sequence[Sequence], *,
                   batch_size: Optional[int] = None) -> List[PathResult]:
        """Track several paths.

        Without ``batch_size`` the paths run sequentially (the per-path jobs
        the manager/worker parallel trackers of the paper's introduction
        distribute).  With ``batch_size`` the work is delegated to the
        structure-of-arrays :class:`~repro.tracking.batch_tracker.
        BatchTracker`, which requires the homotopy's evaluators to expose
        their underlying :class:`~repro.polynomials.system.PolynomialSystem`
        (the CPU reference and GPU evaluators both do).  Batched results
        carry end points, residuals and counters but no per-step
        :class:`PathPoint` trace: ``PathResult.path`` is empty, as the
        structure-of-arrays engine does not materialise per-path histories.
        """
        if batch_size is None:
            return [self.track(s) for s in start_solutions]

        from .batch_tracker import BatchTracker  # local import: cycle

        start_system = getattr(self.homotopy.start_evaluator, "system", None)
        target_system = getattr(self.homotopy.target_evaluator, "system", None)
        if start_system is None or target_system is None:
            raise ConfigurationError(
                "batched tracking needs evaluators that expose their "
                "polynomial system; track sequentially instead"
            )
        batch_tracker = BatchTracker(start_system, target_system,
                                     context=self.context, options=self.options,
                                     batch_size=batch_size,
                                     gamma=self.homotopy.gamma)
        return batch_tracker.track_many(start_solutions)
