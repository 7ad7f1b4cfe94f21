"""Reference operation chains for the double-double / quad-double arrays.

The array operators of :mod:`repro.multiprec.ddarray` and
:mod:`repro.multiprec.qdarray` run fused kernels: scratch planes from the
thread's :class:`~repro.multiprec.bufferpool.PlaneStack`, ``out=`` threaded
through every ufunc, one Dekker split per input plane.  Each kernel
replays, bit for bit, the floating-point sequence of the plain
out-of-place chain in this module -- the scalar
:class:`~repro.multiprec.double_double.DoubleDouble` /
:class:`~repro.multiprec.quad_double.QuadDouble` sequence, written
element-wise on component planes with every intermediate allocated.

This module is the oracle for that promise and nothing else: the
differential tests compare every product op against it, and
:mod:`repro.bench.qd_arith` times the product ops against it.  No product
module imports it.

Every function takes arrays of the matching type (no scalar coercion) and
returns a fresh array; operands broadcast NumPy-style.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivisionByZeroError
from .ddarray import ComplexDDArray, DDArray, _dd_addsub_chain, _dd_mul_planes_ref
from .ddarray import _raw as _dd_raw
from .eft import quick_two_sum, two_diff, two_sum
from .qdarray import (
    ComplexQDArray,
    QDArray,
    _insert_lowest,
    _mul_planes_ref,
    _renorm5,
    _three_sum,
)
from .qdarray import _raw as _qd_raw

__all__ = [
    "complex_dd_div",
    "complex_dd_mul",
    "complex_qd_div",
    "complex_qd_mul",
    "dd_add",
    "dd_div",
    "dd_mul",
    "dd_sub",
    "qd_add",
    "qd_array",
    "qd_div",
    "qd_mul",
    "qd_sub",
    "renorm4",
]


def _check_divisor(leading: np.ndarray, kind: str) -> None:
    # A normalised expansion is zero exactly when its leading component is.
    if np.any(leading == 0.0):
        raise DivisionByZeroError(
            f"{kind} division by zero in "
            f"{int(np.count_nonzero(leading == 0.0))} element(s)")


# ----------------------------------------------------------------------
# double-double
# ----------------------------------------------------------------------
def dd_add(a: DDArray, b: DDArray) -> DDArray:
    """``a + b``: the two_sum chain at every size."""
    return _dd_raw(*_dd_addsub_chain((a.hi, a.lo), (b.hi, b.lo), two_sum))


def dd_sub(a: DDArray, b: DDArray) -> DDArray:
    """``a - b``: the two_diff chain at every size."""
    return _dd_raw(*_dd_addsub_chain((a.hi, a.lo), (b.hi, b.lo), two_diff))


def dd_mul(a: DDArray, b: DDArray) -> DDArray:
    """``a * b``: two_prod with the scaling split on every product."""
    return _dd_raw(*_dd_mul_planes_ref((a.hi, a.lo), (b.hi, b.lo)))


def _dd_from_plane(hi: np.ndarray) -> DDArray:
    return _dd_raw(hi, np.zeros_like(hi))


def dd_div(a: DDArray, b: DDArray) -> DDArray:
    """``a / b``: the iterated-correction long division (three quotients)."""
    _check_divisor(b.hi, "DDArray")
    q1 = a.hi / b.hi
    r = dd_sub(a, dd_mul(b, _dd_from_plane(q1)))
    q2 = r.hi / b.hi
    r = dd_sub(r, dd_mul(b, _dd_from_plane(q2)))
    q3 = r.hi / b.hi
    s, e = quick_two_sum(q1, q2)
    return dd_add(_dd_raw(s, e), _dd_from_plane(q3))


def complex_dd_mul(x: ComplexDDArray, y: ComplexDDArray) -> ComplexDDArray:
    """``x * y`` composed as ``(a*c - b*d, a*d + b*c)``."""
    a, b, c, d = x.real, x.imag, y.real, y.imag
    return ComplexDDArray(dd_sub(dd_mul(a, c), dd_mul(b, d)),
                          dd_add(dd_mul(a, d), dd_mul(b, c)))


def complex_dd_div(x: ComplexDDArray, y: ComplexDDArray) -> ComplexDDArray:
    """``x / y`` composed as ``((a*c + b*d) / denom, (b*c - a*d) / denom)``."""
    a, b, c, d = x.real, x.imag, y.real, y.imag
    denom = dd_add(dd_mul(c, c), dd_mul(d, d))
    _check_divisor(denom.hi, "ComplexDDArray")
    return ComplexDDArray(
        dd_div(dd_add(dd_mul(a, c), dd_mul(b, d)), denom),
        dd_div(dd_sub(dd_mul(b, c), dd_mul(a, d)), denom))


# ----------------------------------------------------------------------
# quad-double
# ----------------------------------------------------------------------
def renorm4(c0, c1, c2, c3):
    """Element-wise QD ``renorm`` of four doubles (matches the scalar).

    Non-finite leading components keep their lane untouched, like the
    scalar guard and :func:`repro.multiprec.qdarray._renorm5`.
    """
    keep = ~np.isfinite(c0)
    s0, t3 = quick_two_sum(c2, c3)
    s0, t2 = quick_two_sum(c1, s0)
    r0, r1 = quick_two_sum(c0, s0)

    s = [r0, r1, np.zeros_like(r0), np.zeros_like(r0)]
    ptr = (r1 != 0.0).astype(np.int64)
    ptr = _insert_lowest(s, ptr, t2)
    _insert_lowest(s, ptr, t3)
    return (np.where(keep, c0, s[0]), np.where(keep, c1, s[1]),
            np.where(keep, c2, s[2]), np.where(keep, c3, s[3]))


def qd_array(c0, c1=None, c2=None, c3=None) -> QDArray:
    """The :class:`QDArray` constructor: renormalise the component planes."""
    c0 = np.asarray(c0, dtype=np.float64)
    rest = [np.zeros_like(c0) if c is None else np.asarray(c, dtype=np.float64)
            for c in (c1, c2, c3)]
    return _qd_raw(*renorm4(c0, *rest))


def _three_sum2(a, b, c):
    t1, t2 = two_sum(a, b)
    a, t3 = two_sum(c, t1)
    return a, t2 + t3


def qd_add(a: QDArray, b: QDArray) -> QDArray:
    """``a + b``: QD's ``sloppy_add``."""
    x, y = a._components(), b._components()
    s0, t0 = two_sum(x[0], y[0])
    s1, t1 = two_sum(x[1], y[1])
    s2, t2 = two_sum(x[2], y[2])
    s3, t3 = two_sum(x[3], y[3])

    s1, t0 = two_sum(s1, t0)
    s2, t0, t1 = _three_sum(s2, t0, t1)
    s3, t0 = _three_sum2(s3, t0, t2)
    t0 = t0 + t1 + t3
    return _qd_raw(*_renorm5(s0, s1, s2, s3, t0))


def qd_sub(a: QDArray, b: QDArray) -> QDArray:
    """``a - b``: the addition of the negated operand."""
    return qd_add(a, -b)


def qd_mul(a: QDArray, b: QDArray) -> QDArray:
    """``a * b``: QD's ``sloppy_mul`` with the scaling split."""
    return _qd_raw(*_mul_planes_ref(a._components(), b._components()))


def _qd_from_plane(c0: np.ndarray) -> QDArray:
    z = np.zeros_like(c0)
    return _qd_raw(c0, z, z, z)


def qd_div(a: QDArray, b: QDArray) -> QDArray:
    """``a / b``: QD's iterated-correction ``sloppy_div`` (five quotients)."""
    _check_divisor(b.c0, "QDArray")
    quotients = []
    r = a
    for _ in range(4):
        quotients.append(r.c0 / b.c0)
        r = qd_sub(r, qd_mul(b, _qd_from_plane(quotients[-1])))
    quotients.append(r.c0 / b.c0)
    return _qd_raw(*_renorm5(*quotients))


def complex_qd_mul(x: ComplexQDArray, y: ComplexQDArray) -> ComplexQDArray:
    """``x * y`` composed as ``(a*c - b*d, a*d + b*c)``."""
    a, b, c, d = x.real, x.imag, y.real, y.imag
    return ComplexQDArray(qd_sub(qd_mul(a, c), qd_mul(b, d)),
                          qd_add(qd_mul(a, d), qd_mul(b, c)))


def complex_qd_div(x: ComplexQDArray, y: ComplexQDArray) -> ComplexQDArray:
    """``x / y`` composed as ``((a*c + b*d) / denom, (b*c - a*d) / denom)``."""
    a, b, c, d = x.real, x.imag, y.real, y.imag
    denom = qd_add(qd_mul(c, c), qd_mul(d, d))
    _check_divisor(denom.c0, "ComplexQDArray")
    return ComplexQDArray(
        qd_div(qd_add(qd_mul(a, c), qd_mul(b, d)), denom),
        qd_div(qd_sub(qd_mul(b, c), qd_mul(a, d)), denom))
