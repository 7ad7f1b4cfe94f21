"""Tests for the per-lane-pivoted batched linear solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.multiprec.backend import (
    COMPLEX128_BACKEND,
    COMPLEX_DD_BACKEND,
    COMPLEX_QD_BACKEND,
)
from repro.tracking import batched_solve

# Same-directory import: pytest's rootdir-less (no __init__.py) layout puts
# this directory on sys.path during collection.
from linsolve_reference import reference_batched_solve

BACKENDS = [COMPLEX128_BACKEND, COMPLEX_DD_BACKEND, COMPLEX_QD_BACKEND]


def _rows(values, backend):
    # The exact embedding of complex doubles into the backend's arithmetic.
    return backend.embed_complex128(np.asarray(values, dtype=np.complex128))


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestBatchedSolve:
    def test_matches_numpy_lane_by_lane(self, backend):
        rng = np.random.default_rng(42)
        n, lanes = 3, 5
        matrices = rng.normal(size=(lanes, n, n)) + 1j * rng.normal(size=(lanes, n, n))
        rhs = rng.normal(size=(lanes, n)) + 1j * rng.normal(size=(lanes, n))
        matrix = [[_rows(matrices[:, i, j], backend) for j in range(n)]
                  for i in range(n)]
        solution, singular = batched_solve(matrix,
                                           [_rows(rhs[:, i], backend) for i in range(n)],
                                           backend)
        assert not singular.any()
        assert solution.shape == (n, lanes)
        for lane in range(lanes):
            expected = np.linalg.solve(matrices[lane], rhs[lane])
            got = backend.to_complex128(solution)[:, lane]
            assert np.allclose(got, expected, rtol=1e-10)

    def test_exact_zero_lane_is_masked_not_raised(self, backend):
        matrix = [[_rows([1.0, 0.0], backend), _rows([0.0, 0.0], backend)],
                  [_rows([0.0, 0.0], backend), _rows([1.0, 0.0], backend)]]
        rhs = [_rows([2.0, 2.0], backend), _rows([3.0, 3.0], backend)]
        solution, singular = batched_solve(matrix, rhs, backend)
        assert singular.tolist() == [False, True]
        assert backend.to_complex128(solution[0])[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("tiny", [1e-170, 1.2e-162 + 1.2e-162j],
                             ids=["underflowed-square", "hypot-boundary"])
    def test_denormal_pivot_lane_is_masked_not_raised(self, backend, tiny):
        # Such pivots are nonzero, but squaring their components underflows:
        # complex double-double division would raise DivisionByZeroError
        # (the hypot-boundary case has |p|^2 denormal-nonzero while the
        # component squares are exact zeros).  The solver must retire only
        # that lane (the "one bad path cannot stall its batch" contract).
        matrix = [[_rows([2.0, tiny], backend), _rows([0.0, 0.0], backend)],
                  [_rows([0.0, 0.0], backend), _rows([2.0, tiny], backend)]]
        rhs = [_rows([4.0, 1.0], backend), _rows([6.0, 1.0], backend)]
        solution, singular = batched_solve(matrix, rhs, backend)
        assert singular.tolist() == [False, True]
        assert backend.to_complex128(solution[0])[0] == pytest.approx(2.0)
        assert backend.to_complex128(solution[1])[0] == pytest.approx(3.0)

    def test_inactive_lanes_never_reported_singular(self, backend):
        matrix = [[_rows([1.0, 0.0], backend)]]
        rhs = [_rows([1.0, 1.0], backend)]
        solution, singular = batched_solve(matrix, rhs, backend,
                                           active=np.array([True, False]))
        assert singular.tolist() == [False, False]
        assert backend.to_complex128(solution[0])[0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the tensor elimination against its entry-by-entry oracle
# ----------------------------------------------------------------------
#: Lanes of the differential batch, each a different pivoting story.
LANE_KINDS = ("cyclic", "diagonal", "random", "zero-pivot", "denormal",
              "nan", "inactive-zero")


def _lane_matrix(kind: str, n: int, rng) -> np.ndarray:
    noise = 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    if kind == "cyclic":
        # Entry (i, i+1 mod n) dominates, so every column's pivot sits in
        # the last row: a swap at every column but the last.
        big = np.zeros((n, n), dtype=complex)
        for i in range(n):
            big[i, (i + 1) % n] = 4.0 + 1j * (i + 1)
        return noise + big
    if kind == "diagonal":
        return noise + np.diag(np.full(n, 5.0 - 2j))        # never swaps
    if kind == "random":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind in ("zero-pivot", "inactive-zero"):
        matrix = noise + np.eye(n)
        matrix[:, 0] = 0.0                                   # exact zero pivot
        return matrix
    if kind == "denormal":
        matrix = noise + np.eye(n)
        matrix[:, n - 1] = 1e-170                            # |p|^2 underflows
        return matrix
    matrix = noise + np.eye(n)                               # "nan"
    matrix[n // 2, 0] = complex(np.nan, 1.0)
    return matrix


def _differential_batch(n: int, backend, seed: int):
    rng = np.random.default_rng(seed)
    mats = np.stack([_lane_matrix(kind, n, rng) for kind in LANE_KINDS])
    rhs = rng.normal(size=(len(LANE_KINDS), n)) \
        + 1j * rng.normal(size=(len(LANE_KINDS), n))
    matrix = [[_rows(mats[:, i, j], backend) for j in range(n)]
              for i in range(n)]
    vector = [_rows(rhs[:, i], backend) for i in range(n)]
    active = np.array([kind != "inactive-zero" for kind in LANE_KINDS])
    return matrix, vector, active


def _planes(array, backend):
    return [np.array(plane, copy=True).view(np.float64)
            for plane in backend.component_planes(array)]


def _assert_identical(got, want):
    """Same bits, signed zeros included; NaNs must sit in the same places
    (their sign and payload follow whichever kernel produced them)."""
    for g, w in zip(got, want):
        nan = np.isnan(g)
        assert np.array_equal(nan, np.isnan(w))
        assert np.array_equal(g[~nan].view(np.uint64), w[~nan].view(np.uint64))


def _pivot_offsets(matrix: np.ndarray) -> list:
    """Partial pivoting in complex double: each column's pivot offset."""
    a = matrix.copy()
    offsets = []
    for col in range(len(a)):
        offset = int(np.argmax(np.abs(a[col:, col])))
        offsets.append(offset)
        a[[col, col + offset]] = a[[col + offset, col]]
        a[col + 1:] -= np.outer(a[col + 1:, col] / a[col, col], a[col])
    return offsets


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cyclic_lane_swaps_at_every_column(n):
    offsets = _pivot_offsets(_lane_matrix("cyclic", n,
                                          np.random.default_rng(100 + n)))
    assert all(offset > 0 for offset in offsets[:-1]), offsets


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
class TestTensorEliminationMatchesReference:
    def test_bit_for_bit(self, backend, n):
        matrix, rhs, active = _differential_batch(n, backend, seed=100 + n)
        before = [_planes(entry, backend) for row in matrix for entry in row]
        solution, singular = batched_solve(matrix, rhs, backend, active=active)
        expected, expected_singular = reference_batched_solve(
            matrix, rhs, backend, active=active)
        assert np.array_equal(singular, expected_singular)
        for i in range(n):
            _assert_identical(_planes(solution[i], backend),
                              _planes(expected[i], backend))
        # The solver eliminates on its own copy: the inputs are untouched.
        after = [_planes(entry, backend) for row in matrix for entry in row]
        for got, want in zip(after, before):
            _assert_identical(got, want)

    def test_lane_stories(self, backend, n):
        matrix, rhs, active = _differential_batch(n, backend, seed=200 + n)
        _, singular = batched_solve(matrix, rhs, backend, active=active)
        flagged = dict(zip(LANE_KINDS, singular.tolist()))
        assert flagged["zero-pivot"] and flagged["denormal"]
        assert not flagged["inactive-zero"]      # inactive: never reported
        assert not flagged["nan"]                # NaN lanes propagate instead
        assert not (flagged["cyclic"] or flagged["diagonal"])
