"""Tests for the batch evaluation API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core import BatchEvaluator, CPUReferenceEvaluator, EvaluationPlan, GPUEvaluator
from repro.gpusim import GPUCostModel
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.multiprec.backend import backend_for_context
from repro.polynomials import Monomial, Polynomial, PolynomialSystem, random_point


@pytest.fixture
def points():
    return [random_point(6, seed=s) for s in range(4)]


class TestBatchEvaluation:
    def test_results_match_single_evaluations(self, small_system, points):
        batch = BatchEvaluator(small_system, check_capacity=False)
        result = batch.evaluate_batch(points)
        assert len(result) == 4
        single = GPUEvaluator(small_system, check_capacity=False)
        for point, values, jacobian in zip(points, result.values, result.jacobians):
            expected = single.evaluate(point)
            assert values == pytest.approx(expected.values)
            assert jacobian[0] == pytest.approx(expected.jacobian[0])

    def test_statistics_aggregate(self, small_system, points):
        batch = BatchEvaluator(small_system, check_capacity=False)
        result = batch.evaluate_batch(points)
        stats = result.statistics
        assert stats.evaluations == 4
        assert stats.kernel_launches == 12
        single = GPUEvaluator(small_system, check_capacity=False).evaluate(points[0])
        per_eval_mults = sum(s.total_multiplications for s in single.launch_stats)
        assert stats.total_multiplications == 4 * per_eval_mults
        assert stats.predicted_device_seconds > 0
        assert stats.predicted_seconds_per_evaluation == pytest.approx(
            stats.predicted_device_seconds / 4)

    def test_extrapolation_is_linear(self, small_system, points):
        batch = BatchEvaluator(small_system, check_capacity=False)
        stats = batch.evaluate_batch(points).statistics
        assert stats.extrapolate(100_000) == pytest.approx(
            stats.predicted_seconds_per_evaluation * 100_000)

    def test_validation_passes_for_correct_pipeline(self, small_system, points):
        batch = BatchEvaluator(small_system, check_capacity=False, validate_every=2)
        result = batch.evaluate_batch(points)
        assert result.validation_failures == 0

    def test_validation_counts_mismatches(self, small_system, points):
        class Corrupted:
            def __init__(self, inner):
                self.inner = inner

            def evaluate(self, point):
                out = self.inner.evaluate(point)
                out.values[0] = out.values[0] + 1.0
                return out

        inner = GPUEvaluator(small_system, check_capacity=False)
        batch = BatchEvaluator(small_system, evaluator=Corrupted(inner), validate_every=1)
        result = batch.evaluate_batch(points)
        assert result.validation_failures == len(points)

    def test_invalid_validate_every(self, small_system):
        with pytest.raises(ConfigurationError):
            BatchEvaluator(small_system, check_capacity=False, validate_every=-1)

    def test_predicted_run_times(self, small_system, points):
        batch = BatchEvaluator(small_system, check_capacity=False)
        stats = batch.evaluate_batch(points).statistics
        prediction = batch.predicted_run_times(100_000, stats)
        assert prediction["evaluations"] == 100_000
        assert prediction["predicted_gpu_seconds"] > 0
        assert prediction["predicted_cpu_seconds"] > 0
        assert prediction["predicted_speedup"] == pytest.approx(
            prediction["predicted_cpu_seconds"] / prediction["predicted_gpu_seconds"])

    def test_double_double_batch(self, small_system):
        batch = BatchEvaluator(small_system, context=DOUBLE_DOUBLE, check_capacity=False,
                               validate_every=1, validation_tolerance=1e-12)
        pts = [random_point(6, seed=11)]
        result = batch.evaluate_batch(pts)
        assert result.validation_failures == 0
        reference = CPUReferenceEvaluator(small_system, context=DOUBLE_DOUBLE).evaluate(pts[0])
        got = result.values[0][0].to_complex()
        assert got == pytest.approx(reference.values[0].to_complex(), rel=1e-12)

    def test_empty_batch(self, small_system):
        batch = BatchEvaluator(small_system, check_capacity=False)
        result = batch.evaluate_batch([])
        assert len(result) == 0
        assert result.statistics.predicted_seconds_per_evaluation == 0.0
        assert result.statistics.extrapolate(10) == 0.0


class TestEvaluationPlanAgainstCPUReference:
    """The compiled lane-batch evaluation against the scalar CPU reference."""

    def _check_against_reference(self, system, context, lanes=4, tol=1e-12):
        backend = backend_for_context(context)
        pts = [random_point(system.dimension, seed=100 + s) for s in range(lanes)]
        values, jacobian = EvaluationPlan(system, backend=backend).execute(
            backend.from_points(pts))
        reference = CPUReferenceEvaluator(system, context=context, algorithm="naive")
        n = system.dimension
        for lane, point in enumerate(pts):
            expected = reference.evaluate([context.from_complex(complex(x))
                                           for x in point])
            for i in range(n):
                got = backend.to_complex128(values[i])[lane]
                assert got == pytest.approx(context.to_complex(expected.values[i]),
                                            rel=tol, abs=tol)
                for j in range(n):
                    got_j = backend.to_complex128(jacobian[i][j])[lane]
                    assert got_j == pytest.approx(
                        context.to_complex(expected.jacobian[i][j]), rel=tol, abs=tol)

    def test_matches_reference_double(self, small_system):
        self._check_against_reference(small_system, DOUBLE)

    def test_matches_reference_double_double_exactly(self, small_system):
        # The plan's ComplexDDArray products run the same operation
        # sequences as the scalar ComplexDD loop, so double-rounded
        # results agree exactly.
        self._check_against_reference(small_system, DOUBLE_DOUBLE, tol=0.0)

    def test_handles_irregular_systems(self):
        # x0^2 - 1 mixes k=1 and k=0 monomials: refused by the simulated
        # device, fine for the compiled lane-batch plan.
        system = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0,), (2,))), (-1 + 0j, Monomial((), ()))]),
        ])
        assert system.regularity() is None
        self._check_against_reference(system, DOUBLE)

    def test_speelpenning_product_gradient(self):
        system = PolynomialSystem([
            Polynomial([(2 + 0j, Monomial((0, 1, 2), (1, 2, 3)))]),
            Polynomial([(1 + 0j, Monomial((0, 2), (1, 1)))]),
            Polynomial([(1 + 0j, Monomial((1,), (1,)))]),
        ], dimension=3)
        self._check_against_reference(system, DOUBLE)

    def test_rejects_non_square_systems(self):
        system = PolynomialSystem([
            Polynomial([(1 + 0j, Monomial((0,), (1,)))]),
        ], dimension=2)
        with pytest.raises(ConfigurationError):
            EvaluationPlan(system, context=DOUBLE)
