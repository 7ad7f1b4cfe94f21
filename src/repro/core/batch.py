"""Batch evaluation: many points through the same device-resident system.

The paper's timings are for 100,000 evaluations of one system -- the pattern
of a path tracker, which keeps the coefficients, support tables and the padded
``Mons`` array on the device for the whole run and only uploads a new point
``x`` before each evaluation.  :class:`BatchEvaluator` packages that usage:

* it wraps a :class:`~repro.core.evaluator.GPUEvaluator` (or any object with
  the same ``evaluate`` interface) and feeds it a sequence of points;
* it aggregates the launch statistics of the whole batch and extrapolates the
  predicted device time to an arbitrary number of evaluations, which is how
  the benchmark harness regenerates the tables without simulating 100,000
  evaluations in Python;
* it cross-checks a configurable fraction of the batch against the sequential
  reference, which is how a long production run would guard against silent
  corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import ConfigurationError
from ..gpusim.costmodel import CPUCostModel, GPUCostModel
from ..multiprec.numeric import DOUBLE, NumericContext
from ..polynomials.system import PolynomialSystem
from .cpu_reference import CPUReferenceEvaluator
from .evaluator import GPUEvaluation, GPUEvaluator
from .validation import compare_evaluations

__all__ = [
    "BatchStatistics",
    "BatchResult",
    "BatchEvaluator",
]


@dataclass
class BatchStatistics:
    """Aggregate of the launch statistics over a batch of evaluations."""

    evaluations: int = 0
    kernel_launches: int = 0
    total_multiplications: int = 0
    total_additions: int = 0
    global_transactions: int = 0
    shared_bank_conflicts: int = 0
    divergent_warps: int = 0
    predicted_device_seconds: float = 0.0

    def accumulate(self, evaluation: GPUEvaluation, model: GPUCostModel,
                   context: NumericContext) -> None:
        self.evaluations += 1
        self.kernel_launches += len(evaluation.launch_stats)
        for stats in evaluation.launch_stats:
            self.total_multiplications += stats.total_multiplications
            self.total_additions += stats.total_additions
            self.global_transactions += stats.global_transactions
            self.shared_bank_conflicts += stats.shared_bank_conflicts
            self.divergent_warps += stats.divergent_warps
        self.predicted_device_seconds += model.evaluation_time(evaluation.launch_stats, context)

    @property
    def predicted_seconds_per_evaluation(self) -> float:
        if self.evaluations == 0:
            return 0.0
        return self.predicted_device_seconds / self.evaluations

    def extrapolate(self, evaluations: int) -> float:
        """Predicted device seconds for ``evaluations`` runs of this system."""
        return self.predicted_seconds_per_evaluation * evaluations


@dataclass
class BatchResult:
    """Values, Jacobians and statistics of one batch run."""

    values: List[List]
    jacobians: List[List[List]]
    statistics: BatchStatistics
    validation_failures: int = 0

    def __len__(self) -> int:
        return len(self.values)


class BatchEvaluator:
    """Evaluate one system at many points, with aggregated statistics.

    Parameters
    ----------
    system:
        The regular polynomial system.
    context:
        Working arithmetic.
    evaluator:
        Optional pre-built evaluator (a :class:`GPUEvaluator` by default).
    validate_every:
        Cross-check every ``validate_every``-th point against the naive CPU
        reference (0 disables validation).
    validation_tolerance:
        Relative tolerance for those cross checks.
    """

    def __init__(self, system: PolynomialSystem, *,
                 context: NumericContext = DOUBLE,
                 evaluator: Optional[GPUEvaluator] = None,
                 cost_model: Optional[GPUCostModel] = None,
                 validate_every: int = 0,
                 validation_tolerance: float = 1e-10,
                 **evaluator_kwargs):
        self.system = system
        self.context = context
        self.evaluator = evaluator or GPUEvaluator(system, context=context, **evaluator_kwargs)
        self.cost_model = cost_model or GPUCostModel()
        if validate_every < 0:
            raise ConfigurationError("validate_every must be non-negative")
        self.validate_every = int(validate_every)
        self.validation_tolerance = float(validation_tolerance)
        self._reference = (CPUReferenceEvaluator(system, context=context, algorithm="naive")
                           if self.validate_every else None)

    def evaluate_batch(self, points: Iterable[Sequence]) -> BatchResult:
        """Evaluate the system and Jacobian at every point of the batch."""
        statistics = BatchStatistics()
        values: List[List] = []
        jacobians: List[List[List]] = []
        failures = 0

        for index, point in enumerate(points):
            evaluation = self.evaluator.evaluate(point)
            statistics.accumulate(evaluation, self.cost_model, self.context)
            values.append(evaluation.values)
            jacobians.append(evaluation.jacobian)

            if self._reference is not None and index % self.validate_every == 0:
                reference = self._reference.evaluate(point)
                report = compare_evaluations(evaluation.values, evaluation.jacobian,
                                             reference.values, reference.jacobian,
                                             context=self.context)
                if not report.within(self.validation_tolerance):
                    failures += 1

        return BatchResult(values=values, jacobians=jacobians,
                           statistics=statistics, validation_failures=failures)

    def predicted_run_times(self, evaluations: int,
                            statistics: BatchStatistics,
                            cpu_model: Optional[CPUCostModel] = None) -> dict:
        """Predicted GPU and single-core CPU seconds for a production run.

        The CPU prediction reuses the operation tally of one sequential
        factored evaluation, exactly as the benchmark harness does.
        """
        cpu_model = cpu_model or CPUCostModel()
        reference = CPUReferenceEvaluator(self.system, context=self.context,
                                          algorithm="factored")
        operations = reference.operations_per_evaluation()
        gpu_seconds = statistics.extrapolate(evaluations)
        cpu_seconds = cpu_model.evaluation_time(operations, self.context) * evaluations
        return {
            "evaluations": evaluations,
            "predicted_gpu_seconds": gpu_seconds,
            "predicted_cpu_seconds": cpu_seconds,
            "predicted_speedup": (cpu_seconds / gpu_seconds) if gpu_seconds else float("inf"),
        }
