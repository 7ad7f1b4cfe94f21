"""Differential and property tests for the fused QD/DD batch kernels.

The fused kernels (:mod:`repro.multiprec.qdarray` / ``ddarray`` with the
scratch stack from :mod:`repro.multiprec.bufferpool`) must be **bit-for-bit**
identical to

* the reference out-of-place operation chains of
  :mod:`repro.multiprec.reference`, and
* the scalar :class:`~repro.multiprec.quad_double.QuadDouble` /
  :class:`~repro.multiprec.double_double.DoubleDouble` loops,

including on adversarial expansions: overlapping components, signed zeros,
values past the Dekker split threshold, inf and NaN.  The renormalisation's
non-finite guard and the insertion pointer's NaN behaviour are pinned here
against the scalar branch nest.

When ``hypothesis`` is installed the invariants additionally run under its
adversarial generator; the seeded driver below always runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DivisionByZeroError
from repro.multiprec import (
    ComplexDDArray,
    ComplexQD,
    ComplexQDArray,
    DDArray,
    DoubleDouble,
    QDArray,
    QuadDouble,
)
from repro.multiprec.backend import (
    COMPLEX128_BACKEND,
    COMPLEX_DD_BACKEND,
    COMPLEX_QD_BACKEND,
)
from repro.multiprec import reference
from repro.multiprec.bufferpool import (
    DD_ADDSUB_FUSED_MIN_ELEMENTS,
    one_plane,
    plane_stack,
    zero_plane,
)
from repro.multiprec.eft import SPLIT_THRESHOLD
from repro.multiprec.qdarray import _insert_lowest, _renorm5
from repro.multiprec.quad_double import (
    _renorm4 as scalar_renorm4,
    _renorm5 as scalar_renorm5,
)

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def assert_planes_identical(got, expected) -> None:
    """Bit-for-bit plane equality; NaNs must sit in the same elements."""
    got_planes = got if isinstance(got, tuple) else got._components()
    exp_planes = expected if isinstance(expected, tuple) else expected._components()
    for g, e in zip(got_planes, exp_planes):
        g = np.asarray(g)
        e = np.asarray(e)
        assert np.array_equal(np.isnan(g), np.isnan(e))
        mask = ~np.isnan(g)
        assert np.array_equal(g[mask], e[mask])


def assert_dd_identical(got: DDArray, expected: DDArray) -> None:
    assert_planes_identical((got.hi, got.lo), (expected.hi, expected.lo))


def random_qd_array(seed: int, size: int = 32) -> QDArray:
    rng = np.random.default_rng(seed)
    full = QDArray.from_float64(rng.normal(size=size))
    for scale in (1e-17, 1e-34, 1e-51):
        full = full + QDArray.from_float64(rng.normal(size=size) * scale)
    return full


def random_dd_array(seed: int, size: int = 32) -> DDArray:
    rng = np.random.default_rng(seed)
    return DDArray(rng.normal(size=size), rng.normal(size=size) * 1e-17)


#: One batch mixing every adversarial shape the renorm and split guards
#: care about: ordinary values, overlapping (non-canonical) expansions,
#: signed zeros, magnitudes past the split threshold, inf and NaN.
ADVERSARIAL_COMPONENTS = np.array([
    [1.0, 1e-17, 1e-34, 1e-51],
    [1.0, 1.0, 1.0, 1.0],                      # fully overlapping
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, -0.0, 0.0],
    [1e300, -1e284, 1e268, -1e252],
    [SPLIT_THRESHOLD * 2.0, 1.0, 0.0, 0.0],    # forces the scaling split
    [np.inf, 1.0, 2.0, 3.0],
    [-np.inf, np.nan, 0.0, 0.0],
    [np.nan, 1.0, 2.0, 3.0],
    [1.0, np.inf, 0.0, 0.0],
    [1.0, np.nan, 0.0, 0.0],
    [1e-300, 1e-310, 0.0, 0.0],                # denormal tail
    [-1.0, 1e-17, -1e-34, 1e-51],
    [2.0**52, 1.0, 0.5, 0.25],
])


def adversarial_qd_pair():
    with np.errstate(all="ignore"):
        a = QDArray(*(ADVERSARIAL_COMPONENTS[:, i].copy() for i in range(4)))
        rolled = np.roll(ADVERSARIAL_COMPONENTS, 3, axis=0)
        b = QDArray(*(rolled[:, i].copy() for i in range(4)))
    return a, b


#: Each operator with its reference chain.
OPERATORS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}
QD_REFERENCE = {"add": reference.qd_add, "sub": reference.qd_sub,
                "mul": reference.qd_mul, "div": reference.qd_div}
DD_REFERENCE = {"add": reference.dd_add, "sub": reference.dd_sub,
                "mul": reference.dd_mul, "div": reference.dd_div}

#: Operand shape pairs for the broadcast complex division.
BROADCAST_SHAPES = [((3, 5), (5,)), ((5,), (3, 5)), ((3, 1), (1, 5)),
                    ((3, 5), (3, 5))]


def random_complex(kind, shape, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return kind.from_complex128(z)


# ----------------------------------------------------------------------
# product vs reference vs scalar: the three-way differential
# ----------------------------------------------------------------------
class TestFusedMatchesReference:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_qd_ops_bit_for_bit(self, op):
        a = random_qd_array(1)
        b = random_qd_array(2)
        assert_planes_identical(OPERATORS[op](a, b), QD_REFERENCE[op](a, b))

    # The dd add/sub operators run the plain chain below the size gate and
    # the fused kernel at and above it; both sides must match the reference.
    @pytest.mark.parametrize("size", [32, DD_ADDSUB_FUSED_MIN_ELEMENTS])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_dd_ops_bit_for_bit(self, op, size):
        a = random_dd_array(3, size)
        b = random_dd_array(4, size)
        assert_dd_identical(OPERATORS[op](a, b), DD_REFERENCE[op](a, b))

    def test_qd_ops_match_scalar_loop(self):
        a = random_qd_array(5)
        b = random_qd_array(6)
        total = a + b
        prod = a * b
        quot = a / b
        a_s, b_s = a.to_scalars(), b.to_scalars()
        for got, x, y in zip(total.to_scalars(), a_s, b_s):
            assert got.c == (x + y).c
        for got, x, y in zip(prod.to_scalars(), a_s, b_s):
            assert got.c == (x * y).c
        for got, x, y in zip(quot.to_scalars(), a_s, b_s):
            assert got.c == (x / y).c

    def test_adversarial_expansions(self):
        a, b = adversarial_qd_pair()
        with np.errstate(all="ignore"):
            for op in ("add", "sub", "mul"):
                assert_planes_identical(OPERATORS[op](a, b),
                                        QD_REFERENCE[op](a, b))

    def test_complex_ops_bit_for_bit(self):
        a = ComplexQDArray(random_qd_array(7), random_qd_array(8))
        b = ComplexQDArray(random_qd_array(9), random_qd_array(10))
        for got, expected in ((a * b, reference.complex_qd_mul(a, b)),
                              (a / b, reference.complex_qd_div(a, b))):
            assert_planes_identical(got.real, expected.real)
            assert_planes_identical(got.imag, expected.imag)
        c = ComplexDDArray(random_dd_array(7), random_dd_array(8))
        d = ComplexDDArray(random_dd_array(9), random_dd_array(10))
        for got, expected in ((c * d, reference.complex_dd_mul(c, d)),
                              (c / d, reference.complex_dd_div(c, d))):
            assert_dd_identical(got.real, expected.real)
            assert_dd_identical(got.imag, expected.imag)

    @pytest.mark.parametrize("shapes", BROADCAST_SHAPES, ids=str)
    def test_broadcast_complex_division(self, shapes):
        x = random_complex(ComplexQDArray, shapes[0], 30)
        y = random_complex(ComplexQDArray, shapes[1], 31)
        got, expected = x / y, reference.complex_qd_div(x, y)
        assert got.shape == np.broadcast_shapes(*shapes)
        assert_planes_identical(got.real, expected.real)
        assert_planes_identical(got.imag, expected.imag)
        x = random_complex(ComplexDDArray, shapes[0], 32)
        y = random_complex(ComplexDDArray, shapes[1], 33)
        got, expected = x / y, reference.complex_dd_div(x, y)
        assert got.shape == np.broadcast_shapes(*shapes)
        assert_dd_identical(got.real, expected.real)
        assert_dd_identical(got.imag, expected.imag)

    @pytest.mark.parametrize("kind", [ComplexQDArray, ComplexDDArray],
                             ids=lambda k: k.__name__)
    def test_broadcast_zero_divisor_raises(self, kind):
        x = random_complex(kind, (3, 5), 34)
        divisor = np.ones(5, dtype=complex)
        divisor[2] = 0.0
        stack = plane_stack()
        before = stack.depth()
        with pytest.raises(DivisionByZeroError):
            x / kind.from_complex128(divisor)
        assert stack.depth() == before

    def test_split_threshold_fallback_matches_reference(self):
        big = QDArray.from_float64(np.array([SPLIT_THRESHOLD * 4, 1.0, -3.5]))
        small = QDArray.from_float64(np.array([2.0, 0.5, 7.0]))
        assert_planes_identical(big * small, reference.qd_mul(big, small))
        big_dd = DDArray(big.c0)
        small_dd = DDArray(small.c0)
        assert_dd_identical(big_dd * small_dd, reference.dd_mul(big_dd, small_dd))


# ----------------------------------------------------------------------
# the stacked complex kernels: one kernel call per (K, B) stack
# ----------------------------------------------------------------------
COMPLEX_KINDS = {
    "qd": (ComplexQDArray, reference.complex_qd_mul, reference.complex_qd_div),
    "dd": (ComplexDDArray, reference.complex_dd_mul, reference.complex_dd_div),
}


def complex_planes(array):
    return (array.real._components() + array.imag._components()
            if isinstance(array, ComplexQDArray)
            else (array.real.hi, array.real.lo, array.imag.hi, array.imag.lo))


def assert_complex_identical(got, expected) -> None:
    """Bit-for-bit, signed zeros included; NaNs in the same elements."""
    for g, e in zip(complex_planes(got), complex_planes(expected)):
        g, e = np.asarray(g), np.asarray(e)
        nan = np.isnan(g)
        assert np.array_equal(nan, np.isnan(e))
        assert np.array_equal(g[~nan].view(np.uint64), e[~nan].view(np.uint64))


@pytest.mark.parametrize("kind", sorted(COMPLEX_KINDS))
class TestStackedComplexKernels:
    #: (x, y) operand shapes: full stacks and a (K, 1) broadcast operand.
    SHAPES = [((6, 5), (6, 5)), ((6, 5), (6, 1)), ((6, 1), (6, 5)),
              ((6, 5), (5,))]

    @pytest.mark.parametrize("shapes", SHAPES, ids=str)
    def test_mul_and_div_match_reference(self, kind, shapes):
        array, ref_mul, ref_div = COMPLEX_KINDS[kind]
        x = random_complex(array, shapes[0], 50)
        y = random_complex(array, shapes[1], 51)
        assert_complex_identical(x * y, ref_mul(x, y))
        assert_complex_identical(x / y, ref_div(x, y))

    def test_rows_match_their_unstacked_ops(self, kind):
        # One row past the split threshold and one NaN row: the whole stack
        # takes the reference split, and every row still lands the bits the
        # row would get on its own (where it takes the fused split).
        array, ref_mul, ref_div = COMPLEX_KINDS[kind]
        x = random_complex(array, (6, 5), 52)
        y = random_complex(array, (6, 5), 53)
        big = np.zeros((6, 5))
        big[1, 2] = SPLIT_THRESHOLD * 4.0
        x.real.iadd_(array.from_complex128(big).real)
        nan = np.zeros((6, 5))
        nan[4] = np.nan
        with np.errstate(all="ignore"):
            y.imag.iadd_(array.from_complex128(nan).real)
            product, quotient = x * y, x / y
            assert_complex_identical(product, ref_mul(x, y))
            assert_complex_identical(quotient, ref_div(x, y))
            for row in range(6):
                assert_complex_identical(product[row], x[row] * y[row])
                assert_complex_identical(quotient[row], x[row] / y[row])

    def test_mul_into_aliased_operand(self, kind):
        array, ref_mul, _ = COMPLEX_KINDS[kind]
        x = random_complex(array, (4, 3), 54)
        y = random_complex(array, (3,), 55)
        expected = ref_mul(x, y)
        backend = COMPLEX_QD_BACKEND if kind == "qd" else COMPLEX_DD_BACKEND
        assert backend.mul_into(x, x, y) is x
        assert_complex_identical(x, expected)

    def test_stacked_zero_divisor_raises_and_releases(self, kind):
        array = COMPLEX_KINDS[kind][0]
        x = random_complex(array, (6, 5), 56)
        divisor = np.ones((6, 5), dtype=complex)
        divisor[3, 1] = 0.0
        stack = plane_stack()
        before = stack.depth()
        with pytest.raises(DivisionByZeroError):
            x / array.from_complex128(divisor)
        assert stack.depth() == before


# ----------------------------------------------------------------------
# the renormalisation guard: inf and NaN lanes in the same batch
# ----------------------------------------------------------------------
class TestRenormNonFiniteGuard:
    def test_vector_renorms_match_scalar_on_mixed_batch(self):
        comps = ADVERSARIAL_COMPONENTS
        with np.errstate(all="ignore"):
            vec4 = reference.renorm4(*(comps[:, i].copy() for i in range(4)))
            extra = np.linspace(-1e-40, 1e-40, comps.shape[0])
            vec5 = _renorm5(*(comps[:, i].copy() for i in range(4)), extra)
        for row in range(comps.shape[0]):
            scal4 = scalar_renorm4(*(float(comps[row, i]) for i in range(4)))
            scal5 = scalar_renorm5(*(float(comps[row, i]) for i in range(4)),
                                   float(extra[row]))
            got4 = tuple(float(vec4[i][row]) for i in range(4))
            got5 = tuple(float(vec5[i][row]) for i in range(4))
            for g, e in zip(got4 + got5, scal4 + scal5):
                assert g == e or (np.isnan(g) and np.isnan(e)), (row, g, e)

    def test_inf_lane_kept_untouched(self):
        with np.errstate(invalid="ignore"):
            out = reference.renorm4(np.array([np.inf]), np.array([7.0]),
                           np.array([8.0]), np.array([9.0]))
        assert [float(c[0]) for c in out] == [np.inf, 7.0, 8.0, 9.0]

    def test_nan_lane_kept_untouched(self):
        with np.errstate(invalid="ignore"):
            out = reference.renorm4(np.array([np.nan]), np.array([7.0]),
                           np.array([8.0]), np.array([9.0]))
        assert np.isnan(out[0][0])
        assert [float(c[0]) for c in out[1:]] == [7.0, 8.0, 9.0]
        # The scalar guard agrees: NaN leading components pass through.
        scal = scalar_renorm4(float("nan"), 7.0, 8.0, 9.0)
        assert np.isnan(scal[0]) and scal[1:] == (7.0, 8.0, 9.0)

    def test_constructor_applies_guard_like_the_reference(self):
        planes = (np.array([np.nan, np.inf, 1.0]), np.array([1.0, 2.0, 1e-17]),
                  np.array([2.0, 3.0, 0.0]), np.array([3.0, 4.0, 0.0]))
        with np.errstate(all="ignore"):
            fused = QDArray(*(p.copy() for p in planes))
            expected = reference.qd_array(*(p.copy() for p in planes))
        assert_planes_identical(fused, expected)
        assert np.isnan(fused.c0[0]) and fused.c1[0] == 1.0
        assert fused.c0[1] == np.inf and fused.c1[1] == 2.0


# ----------------------------------------------------------------------
# insertion pointer vs the scalar branch nest (NaN errors)
# ----------------------------------------------------------------------
class TestInsertPointerNaN:
    def test_nan_error_advances_pointer_like_the_scalar_branch(self):
        # quick_two_sum(1.0, NaN) yields a NaN error; the scalar branch nest
        # tests `if s2 != 0.0`, and NaN != 0.0 is True in Python, so the
        # scalar *descends* (the pointer advances).  The vectorised
        # insertion must do the same: error != 0.0 is True for NaN.
        s = [np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([0.0])]
        ptr = np.array([0], dtype=np.int64)
        with np.errstate(invalid="ignore"):
            new_ptr = _insert_lowest(s, ptr, np.array([np.nan]))
        assert int(new_ptr[0]) == 1
        assert np.isnan(s[0][0]) and np.isnan(s[1][0])

    def test_zero_error_does_not_advance(self):
        s = [np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([0.0])]
        ptr = np.array([0], dtype=np.int64)
        new_ptr = _insert_lowest(s, ptr, np.array([0.5]))
        assert int(new_ptr[0]) == 0          # 1.0 + 0.5 is exact: no error
        assert float(s[0][0]) == 1.5

    def test_mid_insertion_nan_matches_scalar_renorm(self):
        # c0 finite, an inner inf: the prologue manufactures NaN errors that
        # flow through the insertion loop; fused, reference and scalar must
        # land on identical planes.
        c = (1.0, 1e-20, np.inf, 1.0)
        extra = 1.0
        with np.errstate(all="ignore"):
            vec = _renorm5(*(np.array([v]) for v in c), np.array([extra]))
            fused = QDArray(*(np.array([v]) for v in c))
            expected = reference.qd_array(*(np.array([v]) for v in c))
        scal = scalar_renorm5(*c, extra)
        for got, exp in zip((float(p[0]) for p in vec), scal):
            assert got == exp or (np.isnan(got) and np.isnan(exp))
        assert_planes_identical(fused, expected)


# ----------------------------------------------------------------------
# in-place variants
# ----------------------------------------------------------------------
class TestInPlaceVariants:
    def test_qdarray_inplace_ops(self):
        a = random_qd_array(11)
        b = random_qd_array(12)
        mask = np.arange(32) % 3 == 0
        acc = a.copy()
        acc.iadd_(b)
        assert_planes_identical(acc, reference.qd_add(a, b))
        acc = a.copy()
        acc.isub_(b)
        assert_planes_identical(acc, reference.qd_sub(a, b))
        acc = a.copy()
        acc.iadd_where_(b, mask)
        assert_planes_identical(acc, QDArray.where(mask, reference.qd_add(a, b), a))

    @pytest.mark.parametrize("size", [32, DD_ADDSUB_FUSED_MIN_ELEMENTS])
    def test_ddarray_inplace_ops(self, size):
        a = random_dd_array(13, size)
        b = random_dd_array(14, size)
        mask = np.arange(size) % 2 == 0
        acc = a.copy()
        acc.iadd_(b)
        assert_dd_identical(acc, reference.dd_add(a, b))
        acc = a.copy()
        acc.isub_(b)
        assert_dd_identical(acc, reference.dd_sub(a, b))
        acc = a.copy()
        acc.iadd_where_(b, mask)
        assert_dd_identical(acc, DDArray.where(mask, reference.dd_add(a, b), a))

    def test_inplace_add_aliasing_self(self):
        a = random_qd_array(15)
        acc = a.copy()
        acc.iadd_(acc)
        assert_planes_identical(acc, reference.qd_add(a, a))

    @pytest.mark.parametrize("backend", [COMPLEX128_BACKEND, COMPLEX_DD_BACKEND,
                                         COMPLEX_QD_BACKEND],
                             ids=lambda b: b.name)
    def test_backend_inplace_interface(self, backend):
        rng = np.random.default_rng(20120521)
        z = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        w = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        f = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        mask = np.array([True, False, True, False, True, True, False, False])

        def fresh(values):
            return backend.from_points([list(col) for col in values.T])

        expected_add = fresh(z) + fresh(w)
        got = backend.iadd(fresh(z), fresh(w))
        np.testing.assert_array_equal(backend.to_complex128(got),
                                      backend.to_complex128(expected_add))

        expected_sub = fresh(z) - fresh(f) * fresh(w)
        got = backend.isub_mul(fresh(z), fresh(f), fresh(w))
        np.testing.assert_array_equal(backend.to_complex128(got),
                                      backend.to_complex128(expected_sub))

        expected_masked = backend.where(mask, fresh(z) + fresh(w), fresh(z))
        got = backend.iadd_masked(fresh(z), fresh(w), mask)
        np.testing.assert_array_equal(backend.to_complex128(got),
                                      backend.to_complex128(expected_masked))

    def test_complex_isub_mul_bit_for_bit(self):
        acc = ComplexQDArray(random_qd_array(16), random_qd_array(17))
        f = ComplexQDArray(random_qd_array(18), random_qd_array(19))
        v = ComplexQDArray(random_qd_array(20), random_qd_array(21))
        prod = reference.complex_qd_mul(f, v)
        got = acc.copy().isub_mul_(f, v)
        assert_planes_identical(got.real, reference.qd_sub(acc.real, prod.real))
        assert_planes_identical(got.imag, reference.qd_sub(acc.imag, prod.imag))
        acc_dd = ComplexDDArray(random_dd_array(22), random_dd_array(23))
        f_dd = ComplexDDArray(random_dd_array(24), random_dd_array(25))
        v_dd = ComplexDDArray(random_dd_array(26), random_dd_array(27))
        prod = reference.complex_dd_mul(f_dd, v_dd)
        got = acc_dd.copy().isub_mul_(f_dd, v_dd)
        assert_dd_identical(got.real, reference.dd_sub(acc_dd.real, prod.real))
        assert_dd_identical(got.imag, reference.dd_sub(acc_dd.imag, prod.imag))


# ----------------------------------------------------------------------
# the scratch stack and cached planes
# ----------------------------------------------------------------------
class TestPlaneStack:
    def test_stack_balances_after_ops(self):
        stack = plane_stack()
        a = random_qd_array(28)
        b = random_qd_array(29)
        _ = a + b
        _ = a * b
        _ = a / b
        assert stack.depth() == 0

    @pytest.mark.parametrize("make, size", [
        (random_qd_array, 5),
        (random_dd_array, DD_ADDSUB_FUSED_MIN_ELEMENTS),
    ], ids=["qd", "dd"])
    def test_failing_masked_add_releases_scratch(self, make, size):
        stack = plane_stack()
        acc = make(30, size)
        mismatched = make(31, size + 1)
        mask = np.ones(size, dtype=bool)
        before = stack.depth()
        for _ in range(3):
            with pytest.raises(ValueError):
                acc.iadd_where_(mismatched, mask)
        assert stack.depth() == before

    def test_takes_nest(self):
        stack = plane_stack()
        outer, outer_mark = stack.take((4,), 2)
        inner, inner_mark = stack.take((4,), 2)
        assert not any(o is i for o in outer for i in inner)
        stack.release(inner_mark)
        again, again_mark = stack.take((4,), 2)
        assert all(x is y for x, y in zip(inner, again))
        stack.release(again_mark)
        stack.release(outer_mark)

    def test_cached_planes_are_read_only(self):
        z = zero_plane((5,))
        o = one_plane((5,))
        assert np.all(z == 0.0) and np.all(o == 1.0)
        with pytest.raises(ValueError):
            z[0] = 1.0
        with pytest.raises(ValueError):
            o[0] = 0.0
        assert zero_plane((5,)) is z

    def test_clear_also_drops_cached_constant_planes(self):
        stack = plane_stack()
        _, mark = stack.take((7,), 3)
        stack.release(mark)
        z = zero_plane((7,))
        o = one_plane((7,))
        stack.clear()
        assert stack.capacity() == 0
        # The constant caches are part of the footprint clear() reclaims:
        # next use re-materialises fresh planes instead of the old ones.
        assert zero_plane((7,)) is not z
        assert one_plane((7,)) is not o

    def test_shrink_releases_capacity_above_the_take_depth(self):
        stack = plane_stack()
        stack.clear()
        _, mark = stack.take((9,), 8)
        stack.release(mark)
        assert stack.capacity() == 8 and stack.depth() == 0
        stack.shrink()  # nothing on loan: every bucket goes entirely
        assert stack.capacity() == 0

    def test_shrink_keeps_planes_still_on_loan(self):
        stack = plane_stack()
        stack.clear()
        taken, mark = stack.take((11,), 2)
        deeper, deeper_mark = stack.take((11,), 4)
        stack.release(deeper_mark)
        stack.shrink()
        assert stack.capacity() == 2 and stack.depth() == 2
        # The loaned planes survive and are returned by the next take.
        taken[0][...] = 3.0
        assert np.all(taken[0] == 3.0)
        stack.release(mark)
        again, again_mark = stack.take((11,), 2)
        assert all(x is y for x, y in zip(taken, again))
        stack.release(again_mark)


# ----------------------------------------------------------------------
# hypothesis layer (seeded fallback above always runs)
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    component = st.floats(min_value=-1e30, max_value=1e30,
                          allow_nan=False, allow_infinity=False)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                               SPLIT_THRESHOLD * 2, 1e-310])
    any_component = st.one_of(component, special)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(component, component, component, component),
                    min_size=1, max_size=8))
    def test_hypothesis_fused_ops_match_reference(rows):
        comps = np.array(rows)
        with np.errstate(all="ignore"):
            a = QDArray(*(comps[:, i].copy() for i in range(4)))
            b = QDArray(*(np.roll(comps, 1, axis=0)[:, i].copy() for i in range(4)))
            for op in ("add", "mul"):
                assert_planes_identical(OPERATORS[op](a, b),
                                        QD_REFERENCE[op](a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(any_component, any_component,
                              any_component, any_component),
                    min_size=1, max_size=8))
    def test_hypothesis_renorm_matches_scalar(rows):
        comps = np.array(rows)
        with np.errstate(all="ignore"):
            vec = reference.renorm4(*(comps[:, i].copy() for i in range(4)))
            fused = QDArray(*(comps[:, i].copy() for i in range(4)))
        for row in range(comps.shape[0]):
            scal = scalar_renorm4(*(float(comps[row, i]) for i in range(4)))
            for plane, planef, e in zip(vec, fused._components(), scal):
                g = float(plane[row])
                gf = float(planef[row])
                assert g == e or (np.isnan(g) and np.isnan(e))
                assert gf == e or (np.isnan(gf) and np.isnan(e))
