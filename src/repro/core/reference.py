"""The walk-the-terms evaluator: the oracle of the compiled evaluation plans.

:class:`~repro.core.evalplan.EvaluationPlan` and
:class:`~repro.core.evalplan.HomotopyPlan` compile a system (or a
start+target pair) into one shared schedule.  This module keeps the plain
per-term walk those schedules replace -- every term re-derives its powers,
common factor and Speelpenning sweep, and the homotopy blend is dense -- so
the plans have something independent to be checked against:

* :func:`walk_evaluate` returns the same ``(values, jacobian)`` rows as
  ``EvaluationPlan.execute``, bit for bit;
* :func:`walk_homotopy` returns ``(values, jacobian, t_derivative)`` of the
  gamma-trick homotopy, bit for bit with ``HomotopyPlan.execute`` on the
  value rows and ``dh/dt`` and equal under ``==`` on the Jacobian (see
  :mod:`repro.core.evalplan`);
* :func:`walk_op_counts` and :func:`homotopy_walk_op_counts` count the
  batch-array operations of one walk, in the units of
  :class:`~repro.core.evalplan.PlanOpCounts`.

This module is the oracle and nothing else: the differential tests compare
the plans against it, and :mod:`repro.bench.eval_plan` times and counts the
plans against it.  No product module imports it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..multiprec.backend import ComplexBatchBackend
from ..polynomials.speelpenning import speelpenning_gradient
from ..polynomials.system import PolynomialSystem
from .evalplan import PlanOpCounts, pow_chain_multiplications, require_lane_batch

__all__ = [
    "homotopy_walk_op_counts",
    "walk_evaluate",
    "walk_homotopy",
    "walk_op_counts",
]


def walk_evaluate(system: PolynomialSystem, points,
                  backend: ComplexBatchBackend) -> Tuple[List, List[List]]:
    """Evaluate ``system`` and its Jacobian at an ``(n, B)`` lane batch.

    Per monomial ``x^a`` the batch computes, vectorised over the lanes:

    1. the common factor ``cf = x^(a-1)`` (kernel 1's job),
    2. the Speelpenning product of the occurring variables and all its
       partial derivatives by the forward/backward sweep (kernel 2),
    3. ``value = coeff * cf * product`` and
       ``d/dx_p = coeff * a_p * cf * grad_p`` accumulated into the value
       row and Jacobian rows (kernel 3's summation).

    Returns fresh ``(B,)`` rows: ``values[i]`` and ``jacobian[i][j]``.

    Raises
    ------
    ConfigurationError
        When ``points`` is not an ``(n, B)`` lane batch.
    """
    n = system.dimension
    require_lane_batch(points, n)
    lanes = points.shape[1]

    values: List = []
    jacobian: List[List] = []
    for poly in system:
        value = None
        row: List = [None] * n
        for coeff, mono in poly.terms:
            positions, exponents = mono.positions, mono.exponents
            k = len(positions)
            if k == 0:
                constant = backend.full((lanes,), coeff)
                # Accumulators are freshly built per evaluation, so the
                # backend may fold new terms into them in place.
                value = constant if value is None else backend.iadd(value, constant)
                continue

            factors = [points[p] for p in positions]

            # Kernel 1: the common factor x^(a-1) over the occurring
            # variables (absent when every exponent is 1).
            common = None
            for factor, exponent in zip(factors, exponents):
                if exponent > 1:
                    power = factor ** (exponent - 1)
                    common = power if common is None else common * power

            # Kernel 2: Speelpenning product and gradient, the generic
            # scalar algorithm applied to (B,) arrays.  The last gradient
            # entry is the forward product of all-but-the-last factor, so
            # the full product costs one more multiplication.
            gradient, _ = speelpenning_gradient(factors)
            if k == 1:
                product = factors[0]
            else:
                product = gradient[-1] * factors[-1]

            monomial_value = product if common is None else common * product
            term_value = coeff * monomial_value
            value = term_value if value is None else backend.iadd(value, term_value)

            for j, (p, exponent) in enumerate(zip(positions, exponents)):
                grad_j = gradient[j]
                scale = coeff * exponent
                if isinstance(grad_j, (int, float)):
                    # k == 1: the product's derivative is the constant 1.
                    contribution = (common * scale if common is not None
                                    else backend.full((lanes,), scale))
                else:
                    base = grad_j if common is None else common * grad_j
                    contribution = scale * base
                row[p] = (contribution if row[p] is None
                          else backend.iadd(row[p], contribution))

        values.append(value if value is not None else backend.zeros((lanes,)))
        jacobian.append([entry if entry is not None else backend.zeros((lanes,))
                         for entry in row])
    return values, jacobian


def walk_homotopy(start_system: PolynomialSystem,
                  target_system: PolynomialSystem, points, t, gamma: complex,
                  backend: ComplexBatchBackend) -> Tuple[List, List[List], List]:
    """``h = gamma (1-t) g + t f``, ``dh/dx`` and ``dh/dt`` at per-lane ``t``.

    Two independent :func:`walk_evaluate` passes and the dense blend: every
    value row and every Jacobian entry, structural zeros included, is
    ``g * gamma (1-t) + f * t``, and ``dh/dt = f - g * gamma``.
    """
    g_values, g_jacobian = walk_evaluate(start_system, points, backend)
    f_values, f_jacobian = walk_evaluate(target_system, points, backend)
    t = np.asarray(t, dtype=np.float64)
    weight_g = gamma * (1.0 - t).astype(np.complex128)
    weight_f = t.astype(np.complex128)

    n = len(f_values)
    values = [g_values[i] * weight_g + f_values[i] * weight_f for i in range(n)]
    jacobian = [
        [g_jacobian[i][j] * weight_g + f_jacobian[i][j] * weight_f
         for j in range(n)]
        for i in range(n)
    ]
    # dh/dt = f(x) - gamma g(x), independent of t.
    t_derivative = [f_values[i] - g_values[i] * gamma for i in range(n)]
    return values, jacobian, t_derivative


def walk_op_counts(system: PolynomialSystem) -> PlanOpCounts:
    """Operation count of one :func:`walk_evaluate`.

    Mirrors the walk exactly: powers, common factors, Speelpenning sweeps
    and coefficient products are re-derived per term, with no sharing.
    """
    muls = 0
    adds = 0
    for poly in system:
        value_terms = 0
        row_contributions: Dict[int, int] = {}
        for _, mono in poly.terms:
            k = len(mono.positions)
            if value_terms:
                adds += 1  # iadd into the value accumulator
            value_terms += 1
            if k == 0:
                continue
            n_gt1 = sum(1 for e in mono.exponents if e > 1)
            muls += sum(pow_chain_multiplications(e - 1)
                        for e in mono.exponents if e > 1)
            muls += max(0, n_gt1 - 1)            # common-factor chain
            muls += max(0, 3 * k - 6)            # Speelpenning sweep
            if k >= 2:
                muls += 1                        # product = grad[-1] * last
            if n_gt1:
                muls += 1                        # monomial_value = cf * prod
            muls += 1                            # term_value = coeff * mv
            for p in mono.positions:
                if k == 1:
                    muls += 1 if n_gt1 else 0    # common * scale (or full)
                else:
                    muls += (1 if n_gt1 else 0)  # base = common * grad_j
                    muls += 1                    # scale * base
                if row_contributions.get(p):
                    adds += 1                    # iadd into the row entry
                row_contributions[p] = row_contributions.get(p, 0) + 1
    return PlanOpCounts(muls, adds)


def homotopy_walk_op_counts(start_system: PolynomialSystem,
                            target_system: PolynomialSystem) -> PlanOpCounts:
    """Operation count of one :func:`walk_homotopy`.

    Two system walks plus the dense blend: every value row and every
    Jacobian entry (including structural zeros) pays two weighted products
    and an addition, and each ``dh/dt`` row one product and one
    subtraction.
    """
    n = target_system.dimension
    blend = PlanOpCounts(
        multiplications=2 * (n * n + n) + n,
        additions=(n * n + n) + n,
    )
    return (walk_op_counts(start_system) + walk_op_counts(target_system)
            + blend)
