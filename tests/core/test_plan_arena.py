"""Lifecycle tests for the plan-arena executor.

The arena executor -- the plans' one execution path -- must stay
bit-for-bit with its oracle, the walk path (``use_eval_plans(False)``),
and its persistent buffers must obey their lifecycle contract: exactly
one re-size per lane-count change, and exception-safety without scoped
releases (an aborted execution leaves the arena fully reusable and the
scratch stack at depth zero).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import VectorisedBatchEvaluator
from repro.core.evalplan import EvaluationPlan, HomotopyPlan, use_eval_plans
from repro.multiprec.backend import backend_for_context, masked_lane_errstate
from repro.multiprec.bufferpool import plane_stack, use_fused_kernels
from repro.multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.polynomials.monomial import Monomial
from repro.polynomials.polynomial import Polynomial
from repro.polynomials.system import PolynomialSystem
from repro.tracking.homotopy import BatchHomotopy
from repro.tracking.start_systems import total_degree_start_system

ALL_CONTEXTS = (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE)


def example_system() -> PolynomialSystem:
    """Small square system with shared supports, powers and a constant."""
    xy = Monomial((0, 1), (2, 3))
    yz = Monomial((1, 2), (1, 2))
    return PolynomialSystem([
        Polynomial([(2 + 1j, xy), (1 - 1j, yz), (0.5 + 0j, Monomial((), ()))]),
        Polynomial([(1 + 0j, xy), (-3 + 0j, Monomial((2,), (4,)))]),
        Polynomial([(1 + 2j, yz), (1 + 0j, Monomial((0,), (1,)))]),
    ], dimension=3)


def lane_points(backend, dimension: int, lanes: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    points = [[complex(a, b) for a, b in zip(rng.normal(size=dimension),
                                             rng.normal(size=dimension))]
              for _ in range(lanes)]
    with masked_lane_errstate():
        return backend.from_points(points)


def planes_of(array, context):
    if context.name == "d":
        return [array.real, array.imag]
    if context.name == "dd":
        return [array.real.hi, array.real.lo, array.imag.hi, array.imag.lo]
    return ([getattr(array.real, f"c{c}") for c in range(4)]
            + [getattr(array.imag, f"c{c}") for c in range(4)])


def assert_same(a, b, context, where=""):
    for pa, pb in zip(planes_of(a, context), planes_of(b, context)):
        assert np.array_equal(pa, pb, equal_nan=True), \
            f"bit-for-bit mismatch {where}"


def snapshot(values, jacobian, context):
    """Deep-copy an execution's rows (arena rows are reused next call)."""
    copy = [[np.array(p, copy=True) for p in planes_of(v, context)]
            for v in values]
    jcopy = [[[np.array(p, copy=True) for p in planes_of(e, context)]
              for e in row] for row in jacobian]
    return copy, jcopy


def walk_evaluation(system, backend, points):
    """The walk oracle's (values, jacobian) for one system."""
    walk = VectorisedBatchEvaluator(system, backend=backend, use_plan=False)
    result = walk.evaluate(points)
    return result.values, result.jacobian


def assert_matches_snapshot(values, jacobian, snap, context):
    vals, jac = snap
    for v, planes in zip(values, vals):
        for pa, pb in zip(planes_of(v, context), planes):
            assert np.array_equal(pa, pb, equal_nan=True)
    for row, srow in zip(jacobian, jac):
        for entry, splanes in zip(row, srow):
            for pa, pb in zip(planes_of(entry, context), splanes):
                assert np.array_equal(pa, pb, equal_nan=True)


class TestArenaVsWalk:
    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_single_system_bit_for_bit(self, context):
        system = example_system()
        backend = backend_for_context(context)
        points = lane_points(backend, 3, 5, seed=1)
        plan = EvaluationPlan(system, backend=backend)
        with masked_lane_errstate():
            av, aj = plan.execute(points)
            arena_snap = snapshot(av, aj, context)
            bv, bj = walk_evaluation(system, backend, points)
        assert_matches_snapshot(bv, bj, arena_snap, context)
        assert plan.exec_stats.executions == 1

    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_homotopy_bit_for_bit(self, context):
        target = example_system()
        start = total_degree_start_system(target)
        backend = backend_for_context(context)
        points = lane_points(backend, 3, 4, seed=2)
        t = np.random.default_rng(3).uniform(0.0, 1.0, size=4)
        plan = HomotopyPlan(start, target, gamma=0.6 - 0.8j, backend=backend)
        walk = BatchHomotopy(start, target, gamma=0.6 - 0.8j,
                             backend=backend, use_plan=False)
        with masked_lane_errstate():
            av, aj, ad = plan.execute(points, t)
            arena_snap = snapshot(av, aj, context)
            dt_snap = [np.array(p, copy=True)
                       for d in ad for p in planes_of(d, context)]
            reference = walk.evaluate_batch(points, t)
        # Entries only one system touches may differ from the walk in the
        # sign of a zero, which array_equal ignores (see evalplan).
        assert_matches_snapshot(reference.values, reference.jacobian,
                                arena_snap, context)
        flat = [p for d in reference.t_derivative
                for p in planes_of(d, context)]
        for pa, pb in zip(dt_snap, flat):
            assert np.array_equal(pa, pb, equal_nan=True)


class TestLifecycle:
    def test_lane_count_change_resizes_exactly_once(self):
        system = example_system()
        backend = backend_for_context(DOUBLE)
        plan = EvaluationPlan(system, backend=backend)
        plan.execute(lane_points(backend, 3, 8, seed=4))
        assert plan.arena.resizes == 0
        slots_at_8 = len(plan.arena)
        # Same lane count: no re-size, every slot a hit.
        misses_before = plan.arena.misses
        plan.execute(lane_points(backend, 3, 8, seed=5))
        assert plan.arena.resizes == 0
        assert plan.arena.misses == misses_before
        # Lane compression: exactly one re-size, then stability again.
        plan.execute(lane_points(backend, 3, 3, seed=6))
        assert plan.arena.resizes == 1
        assert len(plan.arena) == slots_at_8
        plan.execute(lane_points(backend, 3, 3, seed=7))
        assert plan.arena.resizes == 1

    def test_results_correct_across_resize(self):
        system = example_system()
        backend = backend_for_context(DOUBLE_DOUBLE)
        plan = EvaluationPlan(system, backend=backend)
        wide = lane_points(backend, 3, 6, seed=8)
        narrow = lane_points(backend, 3, 2, seed=9)
        with masked_lane_errstate():
            for points in (wide, narrow, wide):
                av, aj = plan.execute(points)
                snap = snapshot(av, aj, DOUBLE_DOUBLE)
                bv, bj = walk_evaluation(system, backend, points)
                assert_matches_snapshot(bv, bj, snap, DOUBLE_DOUBLE)

    @pytest.mark.parametrize("context", (DOUBLE, DOUBLE_DOUBLE),
                             ids=lambda c: c.name)
    def test_nested_toggle_scopes_with_arenas_on(self, context):
        # The arena executor must be insensitive to the fused-kernel and
        # plan toggles flipping between executions of the same plan.
        system = example_system()
        backend = backend_for_context(context)
        points = lane_points(backend, 3, 5, seed=10)
        evaluator = VectorisedBatchEvaluator(system, backend=backend)
        with masked_lane_errstate():
            with use_eval_plans(False):
                walk = evaluator.evaluate(points)
                walk_snap = snapshot(walk.values, walk.jacobian, context)
            for fused in (True, False):
                with use_fused_kernels(fused), use_eval_plans(True):
                    with use_eval_plans(False):
                        pass  # nested flip must restore cleanly
                    got = evaluator.evaluate(points)
                    assert_matches_snapshot(got.values, got.jacobian,
                                            walk_snap, context)

    def test_exception_mid_execution_leaves_arena_reusable(self):
        system = example_system()
        backend = backend_for_context(DOUBLE_DOUBLE)
        points = lane_points(backend, 3, 5, seed=11)
        plan = EvaluationPlan(system, backend=backend)
        with masked_lane_errstate():
            plan.execute(points)  # size the arena
            boom = RuntimeError("injected mid-plan failure")
            calls = {"n": 0}
            original = backend.iadd_mul

            def failing_iadd_mul(acc, a, b):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise boom
                return original(acc, a, b)

            backend.iadd_mul = failing_iadd_mul
            try:
                with pytest.raises(RuntimeError, match="injected"):
                    plan.execute(points)
            finally:
                backend.iadd_mul = original
            # No leaked scratch takes, no poisoned slots: the next
            # execution fully overwrites and matches the walk.
            assert plane_stack().depth() == 0
            av, aj = plan.execute(points)
            snap = snapshot(av, aj, DOUBLE_DOUBLE)
            bv, bj = walk_evaluation(system, backend, points)
        assert_matches_snapshot(bv, bj, snap, DOUBLE_DOUBLE)


class TestScaleFactorSharing:
    def scaled_system(self):
        # The same monomial under distinct coefficients, with one
        # (coeff, monomial) pair consumed twice: without scale sharing the
        # compiler would materialise a scaled term plane; with it, the one
        # unscaled product plane feeds every consumer through iadd_mul.
        xy = Monomial((0, 1), (1, 2))
        z2 = Monomial((2,), (2,))
        return PolynomialSystem([
            Polynomial([(2 + 0j, xy), (1 + 0j, z2)]),
            Polynomial([(2 + 0j, xy), (3 + 0j, z2)]),
            Polynomial([(5 + 0j, xy), (1 + 1j, z2)]),
        ], dimension=3)

    def test_products_shared_and_counted(self):
        plan = EvaluationPlan(self.scaled_system())
        assert plan.statistics["scale_shared_products"] >= 1
        # Suppressed products never materialise scaled planes.
        assert plan.statistics["shared_term_planes"] == 0

    @pytest.mark.parametrize("context", ALL_CONTEXTS, ids=lambda c: c.name)
    def test_bit_for_bit_with_walk(self, context):
        system = self.scaled_system()
        backend = backend_for_context(context)
        points = lane_points(backend, 3, 5, seed=16)
        evaluator = VectorisedBatchEvaluator(system, backend=backend)
        with masked_lane_errstate():
            with use_eval_plans(False):
                walk = evaluator.evaluate(points)
                walk_snap = snapshot(walk.values, walk.jacobian, context)
            with use_eval_plans(True):
                got = evaluator.evaluate(points)
        assert_matches_snapshot(got.values, got.jacobian, walk_snap, context)
