"""Deterministic dispatch gate of the stacked dd/qd hot path.

The levelled plan executor and the tensor elimination run every set of
independent products as one stacked kernel call, so the number of real
product kernel calls (``_mul_planes_fused`` / ``_dd_mul_planes_fused``) per
evaluation and per linear solve is fixed by the plan's levels and the
system dimension -- not by how many products there are.  Counting those
calls cannot flake, unlike a wall-clock floor.  Before stacking, one qd
homotopy execution on noon-3 at 5 lanes made 300 such calls (75 complex
products, four real products each) and one solve 128.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import get_scenario
from repro.multiprec import ddarray, qdarray
from repro.multiprec.backend import masked_lane_errstate
from repro.multiprec.numeric import DOUBLE_DOUBLE, QUAD_DOUBLE
from repro.tracking.batch_linsolve import batched_solve
from repro.tracking.homotopy import BatchHomotopy
from repro.tracking.start_systems import total_degree_start_system

#: Context -> (module, real product kernel, product calls of one stacked
#: complex division: the six real products, then the real division's).
KERNELS = {
    "qd": (QUAD_DOUBLE, qdarray, "_mul_planes_fused", 1 + 4),
    "dd": (DOUBLE_DOUBLE, ddarray, "_dd_mul_planes_fused", 1 + 2),
}

#: Stacked products of the homotopy blend: start rows by their weight,
#: target rows by theirs, and the start values by gamma for dh/dt.
BLEND_STAGES = 3


def noon3_evaluation(context, lanes: int = 5):
    target = get_scenario("noon-3").build_system()
    homotopy = BatchHomotopy(total_degree_start_system(target), target,
                             gamma=0.6 - 0.8j, context=context)
    rng = np.random.default_rng(7)
    points = homotopy.backend.from_points(
        [[complex(a, b) for a, b in rng.normal(size=(3, 2))]
         for _ in range(lanes)])
    return homotopy, points, rng.uniform(0.1, 0.9, size=lanes)


@pytest.fixture
def count_products(monkeypatch):
    def install(name: str):
        _, module, kernel, _ = KERNELS[name]
        original = getattr(module, kernel)
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, kernel, counting)
        return calls
    return install


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestDispatchGate:
    def test_plan_execution_is_bounded_by_levels(self, name, count_products):
        context = KERNELS[name][0]
        homotopy, points, t = noon3_evaluation(context)
        plan = homotopy.plan
        with masked_lane_errstate():
            homotopy.evaluate_batch(points, t)      # size the arena
            calls = count_products(name)
            homotopy.evaluate_batch(points, t)
        bound = plan.levels + plan.accumulation_steps + BLEND_STAGES
        assert calls["n"] <= bound, (calls["n"], bound)
        # The bound is the plan's depth, far below its product count.
        assert bound < plan.op_counts.multiplications

    def test_linear_solve_is_bounded_by_dimension(self, name, count_products):
        context, _, _, division = KERNELS[name]
        homotopy, points, t = noon3_evaluation(context)
        n = homotopy.dimension
        with masked_lane_errstate():
            evaluation = homotopy.evaluate_batch(points, t)
            rhs = [-value for value in evaluation.values]
            calls = count_products(name)
            batched_solve(evaluation.jacobian, rhs, homotopy.backend)
        # Per column: one stacked division for its factors and one stacked
        # rank-1 update; back substitution: one stacked product per row
        # with unknowns to its right, one division per row.
        bound = (n - 1) * (division + 1) + (n - 1) + n * division
        assert calls["n"] <= bound, (calls["n"], bound)
