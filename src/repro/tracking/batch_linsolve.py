"""Batched dense linear solves: one small system per lane, vectorised.

Newton's corrector inside the batched tracker must solve ``J_b dx_b = -f_b``
for every path ``b`` of the batch, where every lane has its *own* Jacobian.
The caller hands the ``B`` matrices over entry-wise: ``matrix[i][j]`` is a
``(B,)`` batch array holding entry ``(i, j)`` of all lanes at once (the
structure of arrays the simulated device would hold in global memory).  The
solver stacks them with the right-hand side into one augmented ``(n, n+1,
B)`` tensor ``[A | b]`` and eliminates on whole slices of it:

* pivot *selection* works on double-rounded magnitudes of the column slice
  (one magnitude call per column), exactly like the scalar solver in
  :mod:`repro.tracking.linsolve` -- a control decision that may differ per
  lane;
* the per-lane row swaps are realised as row selects on whole rows of the
  augmented tensor (each lane takes its pivot row), so no arithmetic
  touches the data and no data moves between lanes;
* each column costs one stacked division for all its elimination factors
  and one stacked rank-1 update of the trailing block, and back
  substitution one stacked product per row followed by its subtractions in
  ascending column order -- the element-wise kernels see every lane and
  entry exactly as the entry-by-entry elimination would, so the solution is
  bit-for-bit the same;
* lanes whose pivot is zero *or too tiny to divide by* (``|pivot|^2``
  underflows, which is exactly when the complex double-double division
  would raise :class:`~repro.errors.DivisionByZeroError`) are flagged
  *singular* and their pivot is replaced by one so the remaining lanes keep
  eliminating undisturbed -- the batched analogue of
  :class:`~repro.errors.SingularMatrixError`, reported as a mask instead of
  an exception so one bad path cannot stall its batch.

NaN lanes are left alone: NaN magnitudes never win a comparison, so a
poisoned lane keeps its NaNs and is caught by the corrector's convergence
test, while the healthy lanes are unaffected.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..multiprec.backend import ComplexBatchBackend, masked_lane_errstate

__all__ = ["batched_solve"]


def batched_solve(matrix: Sequence[Sequence], rhs: Sequence,
                  backend: ComplexBatchBackend,
                  active: Optional[np.ndarray] = None,
                  copy: bool = True) -> Tuple[object, np.ndarray]:
    """Solve ``A_b x_b = rhs_b`` for every lane ``b``.

    Parameters
    ----------
    matrix:
        ``n x n`` nested sequence of ``(B,)`` batch arrays (read, never
        modified: the solver eliminates on its own stacked copy).
    rhs:
        Length-``n`` sequence of ``(B,)`` batch arrays.
    backend:
        The batch array backend of the entries.
    active:
        Optional ``(B,)`` bool mask; inactive lanes are never reported
        singular and their (meaningless) results should be discarded.
    copy:
        Ignored: the stacked tensor is always the solver's own copy.
        Accepted so existing call sites that still pass it keep working.

    Returns
    -------
    (solution, singular):
        ``solution`` is one ``(n, B)`` batch array (row ``i`` holds
        unknown ``i`` of every lane); ``singular`` a ``(B,)`` bool mask of
        lanes that met a zero pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("batched_solve expects a square matrix and matching rhs")
    if n == 0:
        return backend.zeros((0, 0)), np.zeros(0, dtype=bool)

    # Dead lanes legitimately carry inf/NaN through the arithmetic, so the
    # whole solve runs inside the masked-lane errstate scope instead of
    # spraying RuntimeWarnings.
    with masked_lane_errstate():
        aug = backend.stack([backend.stack(list(row) + [b])
                             for row, b in zip(matrix, rhs)])
        lanes = aug.shape[-1]
        singular = np.zeros(lanes, dtype=bool)
        considered = np.ones(lanes, dtype=bool) if active is None \
            else np.asarray(active, dtype=bool)
        ones = backend.ones((lanes,))

        for col in range(n):
            # Per-lane partial pivoting on double-rounded magnitudes.
            choice = np.argmax(backend.magnitude(aug[col:, col]), axis=0)
            if choice.any():
                _select_pivot_rows(backend, aug, col, col + choice)

            pivot = aug[col, col]
            dead = _undividable(backend.magnitude(pivot))
            singular |= dead & considered
            if col + 1 < n:
                factors = aug[col + 1:, col] / backend.where(dead, ones, pivot)
                # The rank-1 trailing update, right-hand side included.
                backend.isub_mul(aug[col + 1:, col + 1:], factors[:, None],
                                 aug[col:col + 1, col + 1:])

        # Back substitution with the (sanitised) upper factor.
        x = backend.zeros((n, lanes))
        for i in reversed(range(n)):
            acc = aug[i, n]
            if i + 1 < n:
                products = aug[i, i + 1:n] * x[i + 1:]
                for j in range(n - i - 1):
                    acc = backend.isub(acc, products[j])
            diagonal = aug[i, i]
            dead = _undividable(backend.magnitude(diagonal))
            singular |= dead & considered
            backend.copy_into(x[i], acc / backend.where(dead, ones, diagonal))
    return x, singular


def _select_pivot_rows(backend: ComplexBatchBackend, aug, col: int,
                       pivot_rows: np.ndarray) -> None:
    """Swap row ``col`` with row ``pivot_rows[b]`` in every lane ``b``.

    Pure data movement on the component planes: each lane's pivot row is
    gathered whole, the old row ``col`` is written to where the pivot came
    from (a no-op for lanes that keep their pivot), then the pivots land in
    row ``col``.
    """
    lanes = np.arange(aug.shape[-1])
    for plane in backend.component_planes(aug):
        pivots = plane[pivot_rows, :, lanes]           # (B, n + 1)
        plane[pivot_rows, :, lanes] = plane[col].T
        plane[col] = pivots.T


def _undividable(magnitudes: np.ndarray) -> np.ndarray:
    """Lanes whose pivot cannot safely be divided by.

    Complex division computes ``|pivot|^2`` as its denominator.  The
    double-double array type squares the real and imaginary components
    *separately*, so any pivot whose squared magnitude is not a normal
    double risks an exact-zero denominator there (``hypot`` rounds once,
    the component squares underflow earlier) -- and
    :class:`~repro.errors.DivisionByZeroError` out of one lane would abort
    the whole batch.  Such pivots (|p| below ~1.5e-154) are numerically
    singular for any tracking purpose, so the whole underflow region is
    flagged.  NaN magnitudes compare false and stay unflagged: the NaN
    propagates within its own lane only.
    """
    return magnitudes * magnitudes < np.finfo(np.float64).tiny
