"""The entry-by-entry batched elimination: the oracle of ``batched_solve``.

:func:`repro.tracking.batch_linsolve.batched_solve` eliminates on one
stacked ``(n, n+1, B)`` tensor with stacked divisions and rank-1 updates.
This module keeps the elimination it replaced -- the matrix as ``n x n``
nested ``(B,)`` batch arrays, one backend call per entry, per-lane pivot
swaps as masked selects -- so the tests can pin the tensor solve to it bit
for bit.  Only tests import it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.multiprec.backend import ComplexBatchBackend, masked_lane_errstate
from repro.tracking.batch_linsolve import _undividable


def reference_batched_solve(matrix: Sequence[Sequence], rhs: Sequence,
                            backend: ComplexBatchBackend,
                            active: Optional[np.ndarray] = None
                            ) -> Tuple[List, np.ndarray]:
    """Solve ``A_b x_b = rhs_b`` per lane, one entry at a time.

    Returns ``(solution, singular)``: a length-``n`` list of ``(B,)`` rows
    and the ``(B,)`` mask of lanes that met an undividable pivot.  The
    inputs are copied, never modified.
    """
    n = len(matrix)
    with masked_lane_errstate():
        a = [[backend.copy(entry) for entry in row] for row in matrix]
        b = [backend.copy(entry) for entry in rhs]
        lanes = np.shape(backend.magnitude(b[0]))[0] if n else 0
        singular = np.zeros(lanes, dtype=bool)
        considered = np.ones(lanes, dtype=bool) if active is None \
            else np.asarray(active, dtype=bool)
        ones = backend.ones((lanes,))

        for col in range(n):
            magnitudes = np.stack([backend.magnitude(a[r][col])
                                   for r in range(col, n)])
            choice = np.argmax(magnitudes, axis=0)

            # One masked select per candidate row: each lane is touched
            # exactly once.
            for r in range(col + 1, n):
                swap = choice == (r - col)
                if not swap.any():
                    continue
                for j in range(n):
                    upper, lower = a[col][j], a[r][j]
                    a[col][j] = backend.where(swap, lower, upper)
                    a[r][j] = backend.where(swap, upper, lower)
                upper, lower = b[col], b[r]
                b[col] = backend.where(swap, lower, upper)
                b[r] = backend.where(swap, upper, lower)

            pivot = a[col][col]
            dead = _undividable(backend.magnitude(pivot))
            singular |= dead & considered
            safe_pivot = backend.where(dead, ones, pivot)

            for row in range(col + 1, n):
                factor = a[row][col] / safe_pivot
                for j in range(col + 1, n):
                    a[row][j] = backend.isub_mul(a[row][j], factor, a[col][j])
                b[row] = backend.isub_mul(b[row], factor, b[col])

        x: List = [None] * n
        for i in reversed(range(n)):
            acc = b[i]
            for j in range(i + 1, n):
                acc = backend.isub_mul(acc, a[i][j], x[j])
            diagonal = a[i][i]
            dead = _undividable(backend.magnitude(diagonal))
            singular |= dead & considered
            x[i] = acc / backend.where(dead, ones, diagonal)
    return x, singular
