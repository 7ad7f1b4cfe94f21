"""Vectorised double-double arrays.

The scalar classes in :mod:`repro.multiprec.double_double` are convenient but
slow in pure Python.  For the cost-factor experiments (the paper's "overhead
of double double arithmetic is around 8" observation) and for the multicore
CPU baseline we need bulk double-double arithmetic on NumPy arrays.

:class:`DDArray` stores an array of double-doubles as a pair of ``float64``
arrays ``(hi, lo)`` and implements element-wise arithmetic with exactly the
same operation sequences as the scalar class, so results are bit-for-bit equal
to looping over :class:`~repro.multiprec.double_double.DoubleDouble` scalars.

:class:`ComplexDDArray` pairs two :class:`DDArray` instances as the real and
imaginary parts, mirroring :class:`repro.multiprec.complex_dd.ComplexDD`.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from ..errors import DivisionByZeroError
from .bufferpool import (
    DD_ADDSUB_FUSED_MIN_ELEMENTS,
    land_planes,
    needs_reference_split,
    op_shape,
    plane_stack,
    result_planes,
    zero_plane,
)
from .complex_dd import ComplexDD
from .double_double import DoubleDouble
from .eft import (
    quick_two_sum,
    quick_two_sum_into,
    split_into,
    two_diff,
    two_diff_into,
    two_prod,
    two_sum,
    two_sum_into,
)

__all__ = ["DDArray", "ComplexDDArray"]


# ----------------------------------------------------------------------
# the op bodies: fused, allocation-light kernels
# ----------------------------------------------------------------------
# Same design as the quad-double kernels in repro.multiprec.qdarray: the
# exact floating-point sequences of repro.multiprec.reference, with scratch
# planes drawn from the thread's PlaneStack, ``out=`` threaded through
# every ufunc, and one Dekker split per input plane.  ``out`` may alias
# the input planes -- the final quick_two_sum runs after every read.  Each
# op has one body taking an optional ``out=``: the operators, the in-place
# updates and the plan-arena helpers (complex_dd_mul) all call it.

def _dd_addsub_chain(x, y, two):
    """The plain dd add (``two=two_sum``) or sub (``two=two_diff``) chain.

    The fused kernel replays it; below :data:`~repro.multiprec.bufferpool.
    DD_ADDSUB_FUSED_MIN_ELEMENTS` elements the chain itself is cheaper.
    """
    s1, s2 = two(x[0], y[0])
    t1, t2 = two(x[1], y[1])
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def _dd_addsub_fused(x, y, two_into, out=None):
    st = plane_stack()
    shape = op_shape(x, y)
    fb, mark = st.take(shape, 7)
    try:
        t, s1, s2, t1, t2, u, v = fb
        two_into(x[0], y[0], s1, s2, t)
        two_into(x[1], y[1], t1, t2, t)
        np.add(s2, t1, out=s2)
        quick_two_sum_into(s1, s2, u, v)
        np.add(v, t2, out=v)
        hi, lo = out = result_planes(shape, out, 2)
        quick_two_sum_into(u, v, hi, lo)
        return out
    finally:
        st.release(mark)


def _dd_add(x, y, out=None):
    """``x + y`` on (hi, lo) plane pairs: the fused kernel from
    ``DD_ADDSUB_FUSED_MIN_ELEMENTS`` elements up, the plain chain below."""
    # Gate on the larger operand: a broadcast result is at least that big.
    if max(x[0].size, y[0].size) >= DD_ADDSUB_FUSED_MIN_ELEMENTS:
        return _dd_addsub_fused(x, y, two_sum_into, out)
    return land_planes(_dd_addsub_chain(x, y, two_sum), out)


def _dd_sub(x, y, out=None):
    """``x - y`` on (hi, lo) plane pairs, size-gated like :func:`_dd_add`."""
    if max(x[0].size, y[0].size) >= DD_ADDSUB_FUSED_MIN_ELEMENTS:
        return _dd_addsub_fused(x, y, two_diff_into, out)
    return land_planes(_dd_addsub_chain(x, y, two_diff), out)


def _dd_mul_planes_ref(x, y):
    p1, p2 = two_prod(x[0], y[0])
    p2 = p2 + (x[0] * y[1] + x[1] * y[0])
    p1, p2 = quick_two_sum(p1, p2)
    return p1, p2


def _dd_mul_planes_fused(x, y, out=None):
    st = plane_stack()
    shape = op_shape(x, y)
    fb, mark = st.take(shape, 8)
    bb, bmark = st.take(shape, 1, np.bool_)
    try:
        t = fb[0]
        mb = bb[0]
        if (needs_reference_split(x[0], t, mb)
                or needs_reference_split(y[0], t, mb)):
            return land_planes(_dd_mul_planes_ref(x, y), out)

        p1, p2, ah, al, bh, bl, v = fb[1:8]
        np.multiply(x[0], y[0], out=p1)
        split_into(x[0], ah, al, t)
        split_into(y[0], bh, bl, t)
        # two_prod error: ((ah*bh - p) + ah*bl + al*bh) + al*bl
        np.multiply(ah, bh, out=p2)
        np.subtract(p2, p1, out=p2)
        np.multiply(ah, bl, out=t)
        np.add(p2, t, out=p2)
        np.multiply(al, bh, out=t)
        np.add(p2, t, out=p2)
        np.multiply(al, bl, out=t)
        np.add(p2, t, out=p2)
        # p2 += (x.hi * y.lo + x.lo * y.hi)
        np.multiply(x[0], y[1], out=v)
        np.multiply(x[1], y[0], out=t)
        np.add(v, t, out=v)
        np.add(p2, v, out=p2)
        hi, lo = out = result_planes(shape, out, 2)
        quick_two_sum_into(p1, p2, hi, lo)
        return out
    finally:
        st.release(mark)
        st.release(bmark)


def _dd_div_planes_fused(x, y, out=None):
    st = plane_stack()
    shape = op_shape(x, y)
    fb, mark = st.take(shape, 11)
    try:
        q1, q2, q3, s, e = fb[0:5]
        prod = fb[5:7]
        ra = fb[7:9]
        rb = fb[9:11]
        zp = zero_plane(shape)

        np.divide(x[0], y[0], out=q1)
        _dd_mul_planes_fused(y, (q1, zp), out=prod)
        _dd_addsub_fused(x, prod, two_diff_into, out=ra)
        np.divide(ra[0], y[0], out=q2)
        _dd_mul_planes_fused(y, (q2, zp), out=prod)
        _dd_addsub_fused(ra, prod, two_diff_into, out=rb)
        np.divide(rb[0], y[0], out=q3)
        quick_two_sum_into(q1, q2, s, e)
        return _dd_addsub_fused((s, e), (q3, zp), two_sum_into, out=out)
    finally:
        st.release(mark)


def complex_dd_raw(real: "DDArray", imag: "DDArray") -> "ComplexDDArray":
    """Wrap two DDArrays without the constructor's shape validation."""
    out = object.__new__(ComplexDDArray)
    out.real = real
    out.imag = imag
    return out


def complex_dd_from_planes(planes) -> "ComplexDDArray":
    """View four planes ``(re_hi, re_lo, im_hi, im_lo)`` as a ComplexDDArray."""
    return complex_dd_raw(_raw(planes[0], planes[1]),
                          _raw(planes[2], planes[3]))


def dd_mul_operand(x: "ComplexDDArray", other) -> "ComplexDDArray":
    """The coerced right operand of ``x * other``, allocation-free for
    Python scalars.

    Bit-for-bit with :meth:`ComplexDDArray._coerce`: a Python scalar there
    becomes ``np.full`` planes renormalised through ``two_sum(v, 0)`` by
    ``DDArray.__init__``; here the same two_sum runs once on 0-d values and
    the results broadcast as read-only views -- every element carries the
    identical bits, and the multiply kernels only read operand planes.
    """
    if isinstance(other, ComplexDDArray):
        return other
    if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
        z = complex(other)
        shape = x.shape
        re_hi, re_lo = two_sum(np.float64(z.real), np.float64(0.0))
        im_hi, im_lo = two_sum(np.float64(z.imag), np.float64(0.0))
        return complex_dd_raw(
            _raw(np.broadcast_to(re_hi, shape), np.broadcast_to(re_lo, shape)),
            _raw(np.broadcast_to(im_hi, shape), np.broadcast_to(im_lo, shape)))
    return x._coerce(other)


def _complex_dd_div(x: "ComplexDDArray", y: "ComplexDDArray") -> "ComplexDDArray":
    """``x / y`` as one stacked product, one stacked division.

    Replays the allocating expression ``((a*c + b*d) / denom,
    (b*c - a*d) / denom)`` of :func:`repro.multiprec.reference.
    complex_dd_div` kernel for kernel, with the independent work stacked
    along a leading axis: the six real products ``(cc, ac, bc, dd, bd,
    ad)`` run as one product kernel, ``denom = cc + dd`` and ``ac + bd``
    as one add, and the two real divisions by ``denom`` as one division
    kernel.  ``bc - ad`` stays a two_diff subtraction: a dd subtraction is
    not bitwise the addition of the negation (the signs of zero error
    terms can differ).  Operands of different shapes are broadcast up
    front, so the kernels all run on the result shape.
    """
    parts = [(p.hi, p.lo) for p in (x.real, x.imag, y.real, y.imag)]
    shape = op_shape(parts[0], parts[2])
    if x.shape != y.shape:
        parts = [tuple(np.broadcast_to(c, shape) for c in p) for p in parts]
    a, b, c, d = parts
    st = plane_stack()
    fb, mark = st.take((6,) + shape, 6)
    sb, smark = st.take((3,) + shape, 2)
    try:
        xs, ys, prod = fb[0:2], fb[2:4], fb[4:6]
        for k in range(2):
            # rows (c, a, b, d, b, a) x (c, c, c, d, d, d)
            xs[k][0] = c[k]
            xs[k][1] = a[k]
            xs[k][2] = b[k]
            xs[k][3] = d[k]
            xs[k][4] = b[k]
            xs[k][5] = a[k]
            ys[k][0:3] = c[k]
            ys[k][3:6] = d[k]
        _dd_mul_planes_fused(xs, ys, out=prod)
        _dd_add(tuple(p[0:2] for p in prod), tuple(p[3:5] for p in prod),
                out=tuple(p[0:2] for p in sb))
        _dd_sub(tuple(p[2] for p in prod), tuple(p[5] for p in prod),
                out=tuple(p[2] for p in sb))
        denom = tuple(p[0:1] for p in sb)
        # Mirror the scalar ComplexDD check: |z|^2 == 0 means the divisor
        # is an exact zero (or underflowed to one), which would otherwise
        # fill the lane with silent NaN.  NaN divisors propagate instead of
        # raising, exactly as in the element-wise real case.
        if np.any(denom[0] == 0.0):
            raise DivisionByZeroError(
                f"ComplexDDArray division by zero in "
                f"{int(np.count_nonzero(denom[0] == 0.0))} element(s)"
            )
        hi, lo = _dd_div_planes_fused(tuple(p[1:3] for p in sb), denom)
        return ComplexDDArray(_raw(hi[0], lo[0]), _raw(hi[1], lo[1]))
    finally:
        st.release(smark)
        st.release(mark)


def complex_dd_mul(x: "ComplexDDArray", y: "ComplexDDArray",
                   out: "ComplexDDArray" = None) -> "ComplexDDArray":
    """``x * y``, landed in ``out`` when given (else in fresh planes).

    The one body of ``ComplexDDArray.__mul__`` and of the backend's
    in-place product forms; bit-for-bit with the composition
    ``(a*c - b*d, a*d + b*c)`` in :mod:`repro.multiprec.reference`.  The
    four real products run as one product kernel over ``(4,) + shape``
    with operands ``(a, a, b, b) x (c, d, d, c)`` stacked in scratch; the
    combine is one two_diff subtraction and one add.  Operands are copied
    into scratch before the first write to ``out``, so ``out`` may alias
    either operand; any operand shape broadcasting against the other
    works, so a ``(K, B)`` stack times a ``(B,)`` weight row is one call.
    """
    a = (x.real.hi, x.real.lo)
    b = (x.imag.hi, x.imag.lo)
    c = (y.real.hi, y.real.lo)
    d = (y.imag.hi, y.imag.lo)
    st = plane_stack()
    shape = op_shape(a, c)
    if out is None:
        out = complex_dd_from_planes(result_planes(shape, None, 4))
    fb, mark = st.take((4,) + shape, 6)
    try:
        xs, ys, prod = fb[0:2], fb[2:4], fb[4:6]
        for k in range(2):
            xs[k][0:2] = a[k]
            xs[k][2:4] = b[k]
            ys[k][0] = c[k]
            ys[k][1:3] = d[k]
            ys[k][3] = c[k]
        _dd_mul_planes_fused(xs, ys, out=prod)           # (ac, ad, bd, bc)
        hi, lo = prod
        _dd_sub((hi[0], lo[0]), (hi[2], lo[2]), out=(out.real.hi, out.real.lo))
        _dd_add((hi[1], lo[1]), (hi[3], lo[3]), out=(out.imag.hi, out.imag.lo))
        return out
    finally:
        st.release(mark)


class DDArray:
    """An n-dimensional array of double-double reals stored as (hi, lo).

    Parameters
    ----------
    hi / lo:
        Component planes (``lo`` defaults to zeros).  The constructor
        renormalises element-wise (one ``two_sum``) so the double-double
        invariant ``|lo| <= ulp(hi)/2`` holds; use the arithmetic results
        directly to stay bit-for-bit with the scalar
        :class:`~repro.multiprec.double_double.DoubleDouble` loops.

    Raises
    ------
    ValueError
        When the two planes disagree in shape.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: np.ndarray, lo: Union[np.ndarray, None] = None):
        hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            lo = np.zeros_like(hi)
        else:
            lo = np.asarray(lo, dtype=np.float64)
        if hi.shape != lo.shape:
            raise ValueError(f"hi/lo shape mismatch: {hi.shape} vs {lo.shape}")
        # Normalise so the component invariant holds element-wise.
        s, e = two_sum(hi, lo)
        self.hi = s
        self.lo = e

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "DDArray":
        return cls(np.zeros(shape), np.zeros(shape))

    @classmethod
    def ones(cls, shape) -> "DDArray":
        return cls(np.ones(shape), np.zeros(shape))

    @classmethod
    def from_float64(cls, values: np.ndarray) -> "DDArray":
        """Exact embedding of double-precision values."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values.copy(), np.zeros_like(values))

    @classmethod
    def from_scalars(cls, values: Iterable[DoubleDouble]) -> "DDArray":
        values = list(values)
        hi = np.array([v.hi for v in values])
        lo = np.array([v.lo for v in values])
        return cls(hi, lo)

    def to_scalars(self) -> list:
        """Flatten to a list of :class:`DoubleDouble` scalars."""
        flat_hi = self.hi.ravel()
        flat_lo = self.lo.ravel()
        return [DoubleDouble(h, l) for h, l in zip(flat_hi, flat_lo)]

    def to_float64(self) -> np.ndarray:
        """Round each element to a hardware double."""
        return self.hi.copy()

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.hi.shape

    @property
    def size(self) -> int:
        return self.hi.size

    def __len__(self) -> int:
        return len(self.hi)

    def copy(self) -> "DDArray":
        out = object.__new__(DDArray)
        out.hi = self.hi.copy()
        out.lo = self.lo.copy()
        return out

    def __getitem__(self, idx) -> Union["DDArray", DoubleDouble]:
        hi = self.hi[idx]
        lo = self.lo[idx]
        if np.isscalar(hi) or hi.ndim == 0:
            return DoubleDouble(float(hi), float(lo))
        out = object.__new__(DDArray)
        out.hi = hi
        out.lo = lo
        return out

    def __setitem__(self, idx, value) -> None:
        value = _coerce(value, like=self.hi[idx])
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def __repr__(self) -> str:
        return f"DDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "DDArray":
        out = object.__new__(DDArray)
        out.hi = -self.hi
        out.lo = -self.lo
        return out

    def __add__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return _raw(*_dd_add((self.hi, self.lo), (o.hi, o.lo)))

    __radd__ = __add__

    def __sub__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return _raw(*_dd_sub((self.hi, self.lo), (o.hi, o.lo)))

    def __rsub__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return o - self

    def __mul__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return _raw(*_dd_mul_planes_fused((self.hi, self.lo), (o.hi, o.lo)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        # A normalised double-double is zero exactly when its hi component is
        # zero; dividing would silently fill the lane with inf/NaN.  NaN
        # denominators are *not* trapped: a NaN operand propagates
        # element-wise, poisoning only its own lane.
        if np.any(o.hi == 0.0):
            raise DivisionByZeroError(
                f"DDArray division by zero in "
                f"{int(np.count_nonzero(o.hi == 0.0))} element(s)"
            )
        return _raw(*_dd_div_planes_fused((self.hi, self.lo), (o.hi, o.lo)))

    def __rtruediv__(self, other) -> "DDArray":
        o = _coerce(other, like=self.hi)
        return o / self

    def __pow__(self, exponent: int) -> "DDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("DDArray only supports non-negative integer powers")
        result = DDArray.ones(self.shape)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (see QDArray: bit-for-bit with the operators, the
    # op body writing this array's planes directly)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "DDArray":
        """In-place ``self += other`` (bit-for-bit with ``self + other``)."""
        o = _coerce(other, like=self.hi)
        _dd_add((self.hi, self.lo), (o.hi, o.lo), out=(self.hi, self.lo))
        return self

    def isub_(self, other) -> "DDArray":
        """In-place ``self -= other`` (bit-for-bit with ``self - other``)."""
        o = _coerce(other, like=self.hi)
        _dd_sub((self.hi, self.lo), (o.hi, o.lo), out=(self.hi, self.lo))
        return self

    def iadd_where_(self, other, mask) -> "DDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = _coerce(other, like=self.hi)
        mask = np.asarray(mask, dtype=bool)
        st = plane_stack()
        buf, mark = st.take(self.hi.shape, 2)
        try:
            _dd_add((self.hi, self.lo), (o.hi, o.lo), out=buf)
            np.copyto(self.hi, buf[0], where=mask)
            np.copyto(self.lo, buf[1], where=mask)
            return self
        finally:
            st.release(mark)

    # ------------------------------------------------------------------
    # masked selection (the primitive behind per-path retirement in the
    # batched tracker: lanes are switched on and off without data movement)
    # ------------------------------------------------------------------
    @staticmethod
    def where(mask, a, b) -> "DDArray":
        """Element-wise select: ``a`` where ``mask`` is true, else ``b``.

        ``mask`` broadcasts against the operands (NumPy rules), so a per-lane
        mask of shape ``(B,)`` selects whole columns of ``(n, B)`` arrays.
        Scalars (:class:`DoubleDouble`, floats) broadcast like NumPy scalars.
        """
        mask = np.asarray(mask, dtype=bool)
        a_hi, a_lo = _components(a)
        b_hi, b_lo = _components(b)
        return _raw(np.where(mask, a_hi, b_hi), np.where(mask, a_lo, b_lo))

    def masked_fill(self, mask, value) -> "DDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return DDArray.where(mask, value, self)

    # ------------------------------------------------------------------
    # reductions and element-wise helpers
    # ------------------------------------------------------------------
    def sum(self, axis=None) -> Union["DDArray", DoubleDouble]:
        """Double-double accurate sum along ``axis`` (sequential pairing)."""
        if axis is None:
            total = DoubleDouble(0.0)
            for h, l in zip(self.hi.ravel(), self.lo.ravel()):
                total = total + DoubleDouble(h, l)
            return total
        moved_hi = np.moveaxis(self.hi, axis, 0)
        moved_lo = np.moveaxis(self.lo, axis, 0)
        acc = _raw(np.zeros(moved_hi.shape[1:]), np.zeros(moved_hi.shape[1:]))
        for i in range(moved_hi.shape[0]):
            acc = acc + _raw(moved_hi[i], moved_lo[i])
        return acc

    def abs(self) -> "DDArray":
        negative = (self.hi < 0) | ((self.hi == 0) & (self.lo < 0))
        out = object.__new__(DDArray)
        out.hi = np.where(negative, -self.hi, self.hi)
        out.lo = np.where(negative, -self.lo, self.lo)
        return out

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.hi + self.lo)

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        """Largest magnitude, rounded to double (used for norms/tolerances).

        With ``axis`` the reduction runs along that axis and returns a float
        array -- the per-path infinity norms of a batch stored column-wise.
        """
        if axis is None:
            return float(np.max(self.abs_double())) if self.size else 0.0
        return np.max(self.abs_double(), axis=axis, initial=0.0)

    def allclose(self, other: "DDArray", tol: float = 1e-30) -> bool:
        diff = (self - other).abs()
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _raw(hi: np.ndarray, lo: np.ndarray) -> DDArray:
    out = object.__new__(DDArray)
    out.hi = hi
    out.lo = lo
    return out


def _components(value) -> Tuple[np.ndarray, np.ndarray]:
    """The (hi, lo) pair of anything coercible, without forcing a shape."""
    if isinstance(value, DDArray):
        return value.hi, value.lo
    if isinstance(value, DoubleDouble):
        return np.float64(value.hi), np.float64(value.lo)
    arr = np.asarray(value, dtype=np.float64)
    return arr, np.zeros_like(arr)


def _coerce(value, like) -> DDArray:
    """Coerce scalars/arrays to a DDArray broadcastable against ``like``."""
    if isinstance(value, DDArray):
        return value
    if isinstance(value, DoubleDouble):
        shape = np.shape(like)
        return _raw(np.full(shape, value.hi), np.full(shape, value.lo))
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == ():
        shape = np.shape(like)
        return _raw(np.full(shape, float(arr)), np.zeros(shape))
    return DDArray.from_float64(arr)


class ComplexDDArray:
    """An array of complex double-doubles: a (real, imag) pair of DDArrays."""

    __slots__ = ("real", "imag")

    def __init__(self, real: DDArray, imag: Union[DDArray, None] = None):
        if not isinstance(real, DDArray):
            real = DDArray.from_float64(np.asarray(real, dtype=np.float64))
        if imag is None:
            imag = DDArray.zeros(real.shape)
        elif not isinstance(imag, DDArray):
            imag = DDArray.from_float64(np.asarray(imag, dtype=np.float64))
        if real.shape != imag.shape:
            raise ValueError("real/imag shape mismatch")
        self.real = real
        self.imag = imag

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "ComplexDDArray":
        return cls(DDArray.zeros(shape), DDArray.zeros(shape))

    @classmethod
    def from_complex128(cls, values: np.ndarray) -> "ComplexDDArray":
        values = np.asarray(values, dtype=np.complex128)
        return cls(DDArray.from_float64(values.real), DDArray.from_float64(values.imag))

    @classmethod
    def from_scalars(cls, values: Iterable[ComplexDD]) -> "ComplexDDArray":
        values = list(values)
        real = DDArray.from_scalars([v.real for v in values])
        imag = DDArray.from_scalars([v.imag for v in values])
        return cls(real, imag)

    def to_scalars(self) -> list:
        reals = self.real.to_scalars()
        imags = self.imag.to_scalars()
        return [ComplexDD(r, i) for r, i in zip(reals, imags)]

    def to_complex128(self) -> np.ndarray:
        return self.real.to_float64() + 1j * self.imag.to_float64()

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.real.shape

    @property
    def size(self) -> int:
        return self.real.size

    def __len__(self) -> int:
        return len(self.real)

    def copy(self) -> "ComplexDDArray":
        return ComplexDDArray(self.real.copy(), self.imag.copy())

    def __getitem__(self, idx):
        r = self.real[idx]
        i = self.imag[idx]
        if isinstance(r, DoubleDouble):
            return ComplexDD(r, i)
        return ComplexDDArray(r, i)

    def __setitem__(self, idx, value) -> None:
        if isinstance(value, ComplexDD):
            self.real[idx] = value.real
            self.imag[idx] = value.imag
            return
        if isinstance(value, ComplexDDArray):
            self.real[idx] = value.real
            self.imag[idx] = value.imag
            return
        z = np.asarray(value, dtype=np.complex128)
        self.real[idx] = DDArray.from_float64(z.real) if z.ndim else DoubleDouble(float(z.real))
        self.imag[idx] = DDArray.from_float64(z.imag) if z.ndim else DoubleDouble(float(z.imag))

    def __repr__(self) -> str:
        return f"ComplexDDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    def _coerce(self, other) -> "ComplexDDArray":
        if isinstance(other, ComplexDDArray):
            return other
        if isinstance(other, ComplexDD):
            shape = self.shape
            real = DDArray(np.full(shape, other.real.hi), np.full(shape, other.real.lo))
            imag = DDArray(np.full(shape, other.imag.hi), np.full(shape, other.imag.lo))
            return ComplexDDArray(real, imag)
        arr = np.asarray(other, dtype=np.complex128)
        if arr.shape == ():
            arr = np.full(self.shape, complex(arr))
        return ComplexDDArray.from_complex128(arr)

    def __neg__(self) -> "ComplexDDArray":
        return ComplexDDArray(-self.real, -self.imag)

    def __add__(self, other) -> "ComplexDDArray":
        o = self._coerce(other)
        return ComplexDDArray(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexDDArray":
        o = self._coerce(other)
        return ComplexDDArray(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, other) -> "ComplexDDArray":
        o = self._coerce(other)
        return ComplexDDArray(o.real - self.real, o.imag - self.imag)

    def __mul__(self, other) -> "ComplexDDArray":
        return complex_dd_mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexDDArray":
        return _complex_dd_div(self, self._coerce(other))

    def __rtruediv__(self, other) -> "ComplexDDArray":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "ComplexDDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("ComplexDDArray only supports non-negative integer powers")
        result = ComplexDDArray(DDArray.ones(self.shape), DDArray.zeros(self.shape))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (see ComplexQDArray; bit-for-bit with the operators)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "ComplexDDArray":
        """In-place ``self += other``."""
        o = self._coerce(other)
        self.real.iadd_(o.real)
        self.imag.iadd_(o.imag)
        return self

    def isub_(self, other) -> "ComplexDDArray":
        """In-place ``self -= other``."""
        o = self._coerce(other)
        self.real.isub_(o.real)
        self.imag.isub_(o.imag)
        return self

    def isub_mul_(self, factor, value) -> "ComplexDDArray":
        """In-place ``self -= factor * value`` (elimination inner loop)."""
        prod = self._coerce(factor) * value
        return self.isub_(prod)

    def iadd_where_(self, other, mask) -> "ComplexDDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = self._coerce(other)
        mask = np.asarray(mask, dtype=bool)
        self.real.iadd_where_(o.real, mask)
        self.imag.iadd_where_(o.imag, mask)
        return self

    def sum(self, axis=None):
        """Sum of elements; returns :class:`ComplexDD` when ``axis is None``."""
        r = self.real.sum(axis=axis)
        i = self.imag.sum(axis=axis)
        if isinstance(r, DoubleDouble):
            return ComplexDD(r, i)
        return ComplexDDArray(r, i)

    @staticmethod
    def where(mask, a, b) -> "ComplexDDArray":
        """Element-wise select, broadcasting like :meth:`DDArray.where`."""
        a_re, a_im = _complex_parts(a)
        b_re, b_im = _complex_parts(b)
        return ComplexDDArray(DDArray.where(mask, a_re, b_re),
                              DDArray.where(mask, a_im, b_im))

    def masked_fill(self, mask, value) -> "ComplexDDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return ComplexDDArray.where(mask, value, self)

    def conjugate(self) -> "ComplexDDArray":
        return ComplexDDArray(self.real, -self.imag)

    def abs2(self) -> DDArray:
        return self.real * self.real + self.imag * self.imag

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.to_complex128())

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        if axis is None:
            if self.size == 0:
                return 0.0
            return float(np.max(np.sqrt((self.abs2()).to_float64())))
        return np.max(np.sqrt(np.maximum((self.abs2()).to_float64(), 0.0)),
                      axis=axis, initial=0.0)

    def allclose(self, other: "ComplexDDArray", tol: float = 1e-30) -> bool:
        diff = self - other
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _complex_parts(value) -> Tuple[Union[DDArray, DoubleDouble], Union[DDArray, DoubleDouble]]:
    """Split anything coercible into (real, imag) usable by DDArray.where."""
    if isinstance(value, ComplexDDArray):
        return value.real, value.imag
    if isinstance(value, ComplexDD):
        return value.real, value.imag
    if isinstance(value, DDArray):
        return value, np.zeros_like(value.hi)
    if isinstance(value, DoubleDouble):
        return value, 0.0
    arr = np.asarray(value, dtype=np.complex128)
    return arr.real, arr.imag
