"""Vectorised quad-double arrays.

:class:`QDArray` is the quad-double sibling of
:class:`~repro.multiprec.ddarray.DDArray`: an array of quad-doubles stored as
four ``float64`` planes ``(c0, c1, c2, c3)``, one per expansion component.
Element-wise arithmetic executes exactly the operation sequences of the
scalar :class:`~repro.multiprec.quad_double.QuadDouble` (QD 2.3.9's sloppy
add/mul and iterated-correction division), so results are bit-for-bit equal
to looping over scalars -- the invariant the batched tracker's differential
tests rely on.

The only non-trivial vectorisation is the QD renormalisation, whose scalar
form is a nest of data-dependent branches.  Those branches implement a
*compaction*: the values ``c2, c3, (c4)`` are inserted one after another at
the lowest non-zero slot of the expansion.  The vectorised form tracks that
slot per element with an integer ``ptr`` array and realises each insertion
with masked selects, which reproduces the scalar branch tree exactly (see
:func:`_insert_lowest`).

:class:`ComplexQDArray` pairs two :class:`QDArray` instances, mirroring
:class:`~repro.multiprec.numeric.ComplexQD`.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

from ..errors import DivisionByZeroError
from .bufferpool import (
    land_planes,
    needs_reference_split,
    op_shape,
    plane_stack,
    result_planes,
    zero_plane,
)
from .eft import (
    quick_two_sum,
    quick_two_sum_into,
    split_into,
    two_prod,
    two_sum,
    two_sum_into,
)
from .numeric import ComplexQD
from .quad_double import QuadDouble

__all__ = ["QDArray", "ComplexQDArray"]


# ----------------------------------------------------------------------
# vectorised renormalisation (QD's renorm, branch tree flattened)
# ----------------------------------------------------------------------
def _three_sum(a, b, c):
    t1, t2 = two_sum(a, b)
    a, t3 = two_sum(c, t1)
    b, c = two_sum(t2, t3)
    return a, b, c


def _insert_lowest(s: List[np.ndarray], ptr: np.ndarray, u: np.ndarray
                   ) -> np.ndarray:
    """Insert ``u`` at each element's lowest non-zero slot of the expansion.

    This is the vectorised form of the scalar renormalisation's branch nest:
    ``s[ptr], e = quick_two_sum(s[ptr], u); s[ptr+1] = e`` and the pointer
    advances only when the error ``e`` is non-zero.  Elements whose pointer
    already sits at the last slot just accumulate ``u`` there (the scalar
    ``s3 += c4`` leaf).  Mutates ``s`` in place and returns the new pointer.
    """
    error = np.zeros_like(u)
    for slot in range(3):
        mask = ptr == slot
        summed, e = quick_two_sum(s[slot], u)
        s[slot] = np.where(mask, summed, s[slot])
        s[slot + 1] = np.where(mask, e, s[slot + 1])
        error = np.where(mask, e, error)
    full = ptr == 3
    s[3] = np.where(full, s[3] + u, s[3])
    return np.where(full, ptr, ptr + (error != 0.0))


def _renorm5(c0, c1, c2, c3, c4) -> Tuple[np.ndarray, ...]:
    """Element-wise QD ``renorm`` of five doubles (matches the scalar).

    Non-finite leading components (inf *and* NaN, like the scalar renorm's
    guard) are kept untouched: compacting a poisoned expansion through the
    insertion logic would only scramble which slots carry the NaNs.  The
    product keeps it for :func:`_mul_planes_ref`, the split-overflow
    fallback of the fused product kernel.
    """
    keep = ~np.isfinite(c0)
    s0, t4 = quick_two_sum(c3, c4)
    s0, t3 = quick_two_sum(c2, s0)
    s0, t2 = quick_two_sum(c1, s0)
    r0, r1 = quick_two_sum(c0, s0)

    s = [r0, r1, np.zeros_like(r0), np.zeros_like(r0)]
    ptr = (r1 != 0.0).astype(np.int64)
    ptr = _insert_lowest(s, ptr, t2)
    ptr = _insert_lowest(s, ptr, t3)
    _insert_lowest(s, ptr, t4)
    return (np.where(keep, c0, s[0]), np.where(keep, c1, s[1]),
            np.where(keep, c2, s[2]), np.where(keep, c3, s[3]))


# ----------------------------------------------------------------------
# the op bodies: fused, allocation-light kernels
# ----------------------------------------------------------------------
# Every function below replays *exactly* the floating-point sequence of the
# chains in repro.multiprec.reference (and hence of the scalar QuadDouble),
# but with the NumPy call stream fused: scratch planes come from the
# thread's PlaneStack in one take per op, every intermediate is written
# with out=, the Dekker splits of the product kernel are computed once per
# input plane instead of once per partial product, and the renormalisation
# insertions run off precomputed slot masks with masked copies instead of
# allocating np.where chains.  The op stream shrinks by ~2x and allocates (amortised)
# nothing, which is what makes qd batch lanes cheap enough to scale past a
# few hundred (see ROADMAP).  Takes are released in try/finally so an
# exception escaping mid-kernel (e.g. a promoted FP warning) cannot leak
# the taken frame.

def _fused_insert(s, ptr, u, top, m0, m1, m2, m3, sel, summed, e):
    """One fused ``_insert_lowest`` pass with precomputed slot masks.

    ``top`` is the highest pointer value any element can hold *before* this
    insertion (1 after the renorm prologue, +1 per insertion); slots above
    it are skipped entirely.  Mutates the planes in ``s`` and ``ptr`` in
    place; ``m0..m3 / sel / summed / e`` are caller scratch.
    """
    np.equal(ptr, 0, out=m0)
    np.equal(ptr, 1, out=m1)
    if top >= 2:
        np.equal(ptr, 2, out=m2)
    if top >= 3:
        np.equal(ptr, 3, out=m3)

    # s[ptr], element-wise, via one masked overwrite per live slot.
    np.copyto(sel, s[min(top, 3)])
    if top >= 3:
        np.copyto(sel, s[2], where=m2)
    if top >= 2:
        np.copyto(sel, s[1], where=m1)
    np.copyto(sel, s[0], where=m0)

    quick_two_sum_into(sel, u, summed, e)

    np.copyto(s[0], summed, where=m0)
    np.copyto(s[1], e, where=m0)
    np.copyto(s[1], summed, where=m1)
    np.copyto(s[2], e, where=m1)
    if top >= 2:
        np.copyto(s[2], summed, where=m2)
        np.copyto(s[3], e, where=m2)
    if top >= 3:
        np.add(s[3], u, out=sel)            # sel is dead: scratch for += leaf
        np.copyto(s[3], sel, where=m3)

    adv = m0                                # m0 is dead: reuse for the advance
    np.not_equal(e, 0.0, out=adv)
    if top >= 3:
        np.logical_not(m3, out=m3)
        np.logical_and(adv, m3, out=adv)
    np.add(ptr, adv, out=ptr)


def _fused_renorm4(c0, c1, c2, c3, st, out=None):
    """Fused form of :func:`repro.multiprec.reference.renorm4`.

    Writes the four result planes into ``out`` when given (which must not
    alias any ``c`` input), else into fresh arrays; returns them either way.
    """
    shape = c0.shape
    fb, fmark = st.take(shape, 7)
    bb, bmark = st.take(shape, 4, np.bool_)
    ib, imark = st.take(shape, 1, np.int8)
    try:
        w1, t3, w2, t2, sel, summed, e = fb
        keep, m0, m1, m2 = bb
        ptr = ib[0]

        np.isfinite(c0, out=keep)
        all_finite = bool(keep.all())

        quick_two_sum_into(c2, c3, w1, t3)
        quick_two_sum_into(c1, w1, w2, t2)
        s0, s1, s2, s3 = out = result_planes(shape, out, 4)
        quick_two_sum_into(c0, w2, s0, s1)
        s2.fill(0.0)
        s3.fill(0.0)
        np.not_equal(s1, 0.0, out=m0)
        np.copyto(ptr, m0)

        s = (s0, s1, s2, s3)
        _fused_insert(s, ptr, t2, 1, m0, m1, m2, None, sel, summed, e)
        _fused_insert(s, ptr, t3, 2, m0, m1, m2, None, sel, summed, e)

        if not all_finite:
            np.logical_not(keep, out=keep)
            np.copyto(s0, c0, where=keep)
            np.copyto(s1, c1, where=keep)
            np.copyto(s2, c2, where=keep)
            np.copyto(s3, c3, where=keep)
        return out
    finally:
        st.release(fmark)
        st.release(bmark)
        st.release(imark)


def _fused_renorm5(c0, c1, c2, c3, c4, st, out=None):
    """Fused form of :func:`_renorm5` (same contract as :func:`_fused_renorm4`)."""
    shape = c0.shape
    fb, fmark = st.take(shape, 9)
    bb, bmark = st.take(shape, 5, np.bool_)
    ib, imark = st.take(shape, 1, np.int8)
    try:
        w1, t4, w2, t3, w3, t2, sel, summed, e = fb
        keep, m0, m1, m2, m3 = bb
        ptr = ib[0]

        np.isfinite(c0, out=keep)
        all_finite = bool(keep.all())

        quick_two_sum_into(c3, c4, w1, t4)
        quick_two_sum_into(c2, w1, w2, t3)
        quick_two_sum_into(c1, w2, w3, t2)
        s0, s1, s2, s3 = out = result_planes(shape, out, 4)
        quick_two_sum_into(c0, w3, s0, s1)
        s2.fill(0.0)
        s3.fill(0.0)
        np.not_equal(s1, 0.0, out=m0)
        np.copyto(ptr, m0)

        s = (s0, s1, s2, s3)
        _fused_insert(s, ptr, t2, 1, m0, m1, m2, m3, sel, summed, e)
        _fused_insert(s, ptr, t3, 2, m0, m1, m2, m3, sel, summed, e)
        _fused_insert(s, ptr, t4, 3, m0, m1, m2, m3, sel, summed, e)

        if not all_finite:
            np.logical_not(keep, out=keep)
            np.copyto(s0, c0, where=keep)
            np.copyto(s1, c1, where=keep)
            np.copyto(s2, c2, where=keep)
            np.copyto(s3, c3, where=keep)
        return out
    finally:
        st.release(fmark)
        st.release(bmark)
        st.release(imark)


def _add_planes_fused(x, y, out=None) -> Tuple[np.ndarray, ...]:
    """Fused QD ``sloppy_add``: same sequence as :func:`repro.multiprec.
    reference.qd_add`.

    ``out``, when given, receives the result planes; it may alias the
    *input* planes of ``x``/``y`` (every read of them happens before the
    final renormalisation writes) -- that is what the in-place array
    updates rely on.
    """
    st = plane_stack()
    fb, mark = st.take(op_shape(x, y), 21)
    try:
        (t, a0, b0, a1, b1, a2, b2, a3, b3,
         s1, t0, u1, v1, w1, z1, p1, q1, u2, v2, w2, z2) = fb
        two_sum_into(x[0], y[0], a0, b0, t)
        two_sum_into(x[1], y[1], a1, b1, t)
        two_sum_into(x[2], y[2], a2, b2, t)
        two_sum_into(x[3], y[3], a3, b3, t)

        two_sum_into(a1, b0, s1, t0, t)
        # _three_sum(s2, t0, t1) on (a2, t0, b1) -> (w1, p1, q1)
        two_sum_into(a2, t0, u1, v1, t)
        two_sum_into(b1, u1, w1, z1, t)
        two_sum_into(v1, z1, p1, q1, t)
        # _three_sum2(s3, t0, t2) on (a3, p1, b2) -> (w2, v2)
        two_sum_into(a3, p1, u2, v2, t)
        two_sum_into(b2, u2, w2, z2, t)
        np.add(v2, z2, out=v2)
        # t0 = t0 + t1 + t3
        np.add(v2, q1, out=v2)
        np.add(v2, b3, out=v2)
        return _fused_renorm5(a0, s1, w1, w2, v2, st, out=out)
    finally:
        st.release(mark)


def _sub_planes_fused(x, y, out=None) -> Tuple[np.ndarray, ...]:
    """Fused QD subtraction: add of the negated operand."""
    st = plane_stack()
    nb, mark = st.take(y[0].shape, 4)
    try:
        for src, dst in zip(y, nb):
            np.negative(src, out=dst)
        return _add_planes_fused(x, nb, out=out)
    finally:
        st.release(mark)


def _mul_planes_ref(x, y) -> Tuple[np.ndarray, ...]:
    """The reference QD ``sloppy_mul`` on component planes."""
    p0, q0 = two_prod(x[0], y[0])
    p1, q1 = two_prod(x[0], y[1])
    p2, q2 = two_prod(x[1], y[0])
    p3, q3 = two_prod(x[0], y[2])
    p4, q4 = two_prod(x[1], y[1])
    p5, q5 = two_prod(x[2], y[0])

    p1, p2, q0 = _three_sum(p1, p2, q0)

    p2, q1, q2 = _three_sum(p2, q1, q2)
    p3, p4, p5 = _three_sum(p3, p4, p5)
    s0, t0 = two_sum(p2, p3)
    s1, t1 = two_sum(q1, p4)
    s2 = q2 + p5
    s1, t0 = two_sum(s1, t0)
    s2 = s2 + (t0 + t1)

    s1 = s1 + (x[0] * y[3] + x[1] * y[2] + x[2] * y[1] + x[3] * y[0]
               + q0 + q3 + q4 + q5)
    return _renorm5(p0, p1, s0, s1, s2)


def _mul_planes_fused(x, y, out=None) -> Tuple[np.ndarray, ...]:
    """Fused QD ``sloppy_mul``: one Dekker split per input plane.

    Falls back to :func:`_mul_planes_ref` when either leading plane carries
    a magnitude above the split threshold or a NaN (see
    :func:`repro.multiprec.bufferpool.needs_reference_split`).  ``out`` may
    alias input planes, as in :func:`_add_planes_fused`.
    """
    st = plane_stack()
    shape = op_shape(x, y)
    fb, mark = st.take(shape, 51)
    bb, bmark = st.take(shape, 1, np.bool_)
    try:
        t = fb[0]
        mb = bb[0]
        if needs_reference_split(x[0], t, mb) or needs_reference_split(y[0], t, mb):
            return land_planes(_mul_planes_ref(x, y), out)

        (x0h, x0l, x1h, x1l, x2h, x2l,
         y0h, y0l, y1h, y1l, y2h, y2l) = fb[1:13]
        split_into(x[0], x0h, x0l, t)
        split_into(x[1], x1h, x1l, t)
        split_into(x[2], x2h, x2l, t)
        split_into(y[0], y0h, y0l, t)
        split_into(y[1], y1h, y1l, t)
        split_into(y[2], y2h, y2l, t)

        (p0, q0, p1, q1, p2, q2, p3, q3, p4, q4, p5, q5) = fb[13:25]

        def prod(a, ah, al, b, bh, bl, p, e):
            # two_prod with the splits hoisted; identical error expression.
            np.multiply(a, b, out=p)
            np.multiply(ah, bh, out=e)
            np.subtract(e, p, out=e)
            np.multiply(ah, bl, out=t)
            np.add(e, t, out=e)
            np.multiply(al, bh, out=t)
            np.add(e, t, out=e)
            np.multiply(al, bl, out=t)
            np.add(e, t, out=e)

        prod(x[0], x0h, x0l, y[0], y0h, y0l, p0, q0)
        prod(x[0], x0h, x0l, y[1], y1h, y1l, p1, q1)
        prod(x[1], x1h, x1l, y[0], y0h, y0l, p2, q2)
        prod(x[0], x0h, x0l, y[2], y2h, y2l, p3, q3)
        prod(x[1], x1h, x1l, y[1], y1h, y1l, p4, q4)
        prod(x[2], x2h, x2l, y[0], y0h, y0l, p5, q5)

        (u1, v1, w1, z1, a1, c1,
         u2, v2, w2, z2, a2, c2,
         u3, v3, w3, z3, a3, c3) = fb[25:43]
        # p1, p2, q0 = _three_sum(p1, p2, q0) -> (w1, a1, c1)
        two_sum_into(p1, p2, u1, v1, t)
        two_sum_into(q0, u1, w1, z1, t)
        two_sum_into(v1, z1, a1, c1, t)
        # p2, q1, q2 = _three_sum(p2, q1, q2) on (a1, q1, q2) -> (w2, a2, c2)
        two_sum_into(a1, q1, u2, v2, t)
        two_sum_into(q2, u2, w2, z2, t)
        two_sum_into(v2, z2, a2, c2, t)
        # p3, p4, p5 = _three_sum(p3, p4, p5) -> (w3, a3, c3)
        two_sum_into(p3, p4, u3, v3, t)
        two_sum_into(p5, u3, w3, z3, t)
        two_sum_into(v3, z3, a3, c3, t)

        (s0, t0, s1, t1, s2, s1b, t0b, acc) = fb[43:51]
        two_sum_into(w2, w3, s0, t0, t)          # s0, t0 = two_sum(p2, p3)
        two_sum_into(a2, a3, s1, t1, t)          # s1, t1 = two_sum(q1, p4)
        np.add(c2, c3, out=s2)                   # s2 = q2 + p5
        two_sum_into(s1, t0, s1b, t0b, t)        # s1, t0 = two_sum(s1, t0)
        np.add(t0b, t1, out=t0b)
        np.add(s2, t0b, out=s2)                  # s2 += (t0 + t1)

        # s1 += (x0*y3 + x1*y2 + x2*y1 + x3*y0 + q0 + q3 + q4 + q5)
        np.multiply(x[0], y[3], out=acc)
        np.multiply(x[1], y[2], out=t)
        np.add(acc, t, out=acc)
        np.multiply(x[2], y[1], out=t)
        np.add(acc, t, out=acc)
        np.multiply(x[3], y[0], out=t)
        np.add(acc, t, out=acc)
        np.add(acc, c1, out=acc)                 # + q0 (post-three-sum)
        np.add(acc, q3, out=acc)
        np.add(acc, q4, out=acc)
        np.add(acc, q5, out=acc)
        np.add(s1b, acc, out=s1b)

        return _fused_renorm5(p0, w1, s0, s1b, s2, st, out=out)
    finally:
        st.release(mark)
        st.release(bmark)


def _div_planes_fused(x, y, out=None) -> Tuple[np.ndarray, ...]:
    """Fused QD iterated-correction division (QD's ``sloppy_div``)."""
    st = plane_stack()
    shape = op_shape(x, y)
    fb, mark = st.take(shape, 17)
    try:
        q0, q1, q2, q3, q4 = fb[0:5]
        prod = fb[5:9]
        ra = fb[9:13]
        rb = fb[13:17]
        zp = zero_plane(shape)

        np.divide(x[0], y[0], out=q0)
        _mul_planes_fused(y, (q0, zp, zp, zp), out=prod)
        _sub_planes_fused(x, prod, out=ra)
        np.divide(ra[0], y[0], out=q1)
        _mul_planes_fused(y, (q1, zp, zp, zp), out=prod)
        _sub_planes_fused(ra, prod, out=rb)
        np.divide(rb[0], y[0], out=q2)
        _mul_planes_fused(y, (q2, zp, zp, zp), out=prod)
        _sub_planes_fused(rb, prod, out=ra)
        np.divide(ra[0], y[0], out=q3)
        _mul_planes_fused(y, (q3, zp, zp, zp), out=prod)
        _sub_planes_fused(ra, prod, out=rb)
        np.divide(rb[0], y[0], out=q4)

        return _fused_renorm5(q0, q1, q2, q3, q4, st, out=out)
    finally:
        st.release(mark)


# ----------------------------------------------------------------------
# the array type
# ----------------------------------------------------------------------
class QDArray:
    """An n-dimensional array of quad-double reals stored as four planes.

    Parameters
    ----------
    c0 .. c3:
        The four ``float64`` expansion-component planes (missing ones
        default to zeros).  The constructor renormalises element-wise so the
        quad-double expansion invariant holds, exactly like the scalar
        :class:`~repro.multiprec.quad_double.QuadDouble` constructor.

    Raises
    ------
    ValueError
        When the component planes disagree in shape.
    """

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0, c1=None, c2=None, c3=None):
        c0 = np.asarray(c0, dtype=np.float64)
        c1 = np.zeros_like(c0) if c1 is None else np.asarray(c1, dtype=np.float64)
        c2 = np.zeros_like(c0) if c2 is None else np.asarray(c2, dtype=np.float64)
        c3 = np.zeros_like(c0) if c3 is None else np.asarray(c3, dtype=np.float64)
        for other in (c1, c2, c3):
            if other.shape != c0.shape:
                raise ValueError(f"component shape mismatch: {c0.shape} vs {other.shape}")
        # Normalise so the expansion invariant holds element-wise, exactly
        # like the scalar constructor.
        self.c0, self.c1, self.c2, self.c3 = _fused_renorm4(
            c0, c1, c2, c3, plane_stack())

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "QDArray":
        z = np.zeros(shape)
        return _raw(z, z.copy(), z.copy(), z.copy())

    @classmethod
    def ones(cls, shape) -> "QDArray":
        z = np.zeros(shape)
        return _raw(np.ones(shape), z, z.copy(), z.copy())

    @classmethod
    def from_float64(cls, values: np.ndarray) -> "QDArray":
        """Exact embedding of double-precision values."""
        values = np.asarray(values, dtype=np.float64)
        z = np.zeros_like(values)
        return _raw(values.copy(), z, z.copy(), z.copy())

    @classmethod
    def from_ddarray(cls, values) -> "QDArray":
        """Exact plane-widening embedding of a :class:`~repro.multiprec.
        ddarray.DDArray`: the double-double ``(hi, lo)`` planes become the two
        leading quad-double components, zeros the rest.

        The double-double invariant (``|lo| <= ulp(hi)/2``) is exactly the
        pairwise non-overlap the quad-double expansion requires, so no
        renormalisation is needed -- this is the vectorised form of
        :meth:`repro.multiprec.quad_double.QuadDouble.from_double_double`,
        and the embedding preserves every bit of the source value.
        """
        z = np.zeros_like(values.hi)
        return _raw(values.hi.copy(), values.lo.copy(), z, z.copy())

    @classmethod
    def from_scalars(cls, values: Iterable[QuadDouble]) -> "QDArray":
        values = list(values)
        comps = [np.array([v.c[i] for v in values]) for i in range(4)]
        return _raw(*comps)

    def to_scalars(self) -> list:
        """Flatten to a list of :class:`QuadDouble` scalars."""
        flats = [c.ravel() for c in self._components()]
        return [QuadDouble._raw((float(a), float(b), float(c), float(d)))
                for a, b, c, d in zip(*flats)]

    def to_float64(self) -> np.ndarray:
        """Round each element to a hardware double (the leading component)."""
        return self.c0.copy()

    def _components(self) -> Tuple[np.ndarray, ...]:
        return self.c0, self.c1, self.c2, self.c3

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.c0.shape

    @property
    def size(self) -> int:
        return self.c0.size

    def __len__(self) -> int:
        return len(self.c0)

    def copy(self) -> "QDArray":
        return _raw(*(c.copy() for c in self._components()))

    def __getitem__(self, idx) -> Union["QDArray", QuadDouble]:
        parts = [c[idx] for c in self._components()]
        if np.isscalar(parts[0]) or parts[0].ndim == 0:
            return QuadDouble._raw(tuple(float(p) for p in parts))
        return _raw(*parts)

    def __setitem__(self, idx, value) -> None:
        value = _coerce(value, like=self.c0[idx])
        self.c0[idx] = value.c0
        self.c1[idx] = value.c1
        self.c2[idx] = value.c2
        self.c3[idx] = value.c3

    def __repr__(self) -> str:
        return f"QDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    # arithmetic (the scalar QD operation sequences, element-wise)
    # ------------------------------------------------------------------
    def __neg__(self) -> "QDArray":
        return _raw(-self.c0, -self.c1, -self.c2, -self.c3)

    def __add__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return _raw(*_add_planes_fused(self._components(), o._components()))

    __radd__ = __add__

    def __sub__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return _raw(*_sub_planes_fused(self._components(), o._components()))

    def __rsub__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return o + (-self)

    def __mul__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return _raw(*_mul_planes_fused(self._components(), o._components()))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        # A normalised quad-double is zero exactly when its leading component
        # is; mirror the DDArray audit rather than silently filling lanes
        # with inf/NaN.  NaN denominators propagate element-wise.
        if np.any(o.c0 == 0.0):
            raise DivisionByZeroError(
                f"QDArray division by zero in "
                f"{int(np.count_nonzero(o.c0 == 0.0))} element(s)"
            )
        return _raw(*_div_planes_fused(self._components(), o._components()))

    def __rtruediv__(self, other) -> "QDArray":
        o = _coerce(other, like=self.c0)
        return o / self

    def __pow__(self, exponent: int) -> "QDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("QDArray only supports non-negative integer powers")
        result = QDArray.ones(self.shape)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (the accumulation loops of the batched engine)
    # ------------------------------------------------------------------
    # Each computes exactly the out-of-place operation's floating-point
    # sequence, then lands the result in this array's planes: the final
    # renormalisation writes the planes *directly* (every read of the old
    # values happens before it), so a long accumulation -- an evaluator's
    # value row, a Gaussian elimination row -- allocates nothing at all.

    def iadd_(self, other) -> "QDArray":
        """In-place ``self += other`` (bit-for-bit with ``self + other``)."""
        o = _coerce(other, like=self.c0)
        x = self._components()
        _add_planes_fused(x, o._components(), out=x)
        return self

    def isub_(self, other) -> "QDArray":
        """In-place ``self -= other`` (bit-for-bit with ``self - other``)."""
        o = _coerce(other, like=self.c0)
        x = self._components()
        _sub_planes_fused(x, o._components(), out=x)
        return self

    def iadd_where_(self, other, mask) -> "QDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = _coerce(other, like=self.c0)
        mask = np.asarray(mask, dtype=bool)
        st = plane_stack()
        buf, mark = st.take(self.c0.shape, 4)
        try:
            _add_planes_fused(self._components(), o._components(), out=buf)
            for dst, src in zip(self._components(), buf):
                np.copyto(dst, src, where=mask)
            return self
        finally:
            st.release(mark)

    # ------------------------------------------------------------------
    # masked selection
    # ------------------------------------------------------------------
    @staticmethod
    def where(mask, a, b) -> "QDArray":
        """Element-wise select: ``a`` where ``mask`` is true, else ``b``.

        Masks broadcast NumPy-style, so a per-lane ``(B,)`` mask selects
        whole columns of ``(n, B)`` arrays.
        """
        mask = np.asarray(mask, dtype=bool)
        a_c = _components_of(a)
        b_c = _components_of(b)
        return _raw(*(np.where(mask, ac, bc) for ac, bc in zip(a_c, b_c)))

    def masked_fill(self, mask, value) -> "QDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return QDArray.where(mask, value, self)

    # ------------------------------------------------------------------
    # reductions and element-wise helpers
    # ------------------------------------------------------------------
    def sum(self, axis=None) -> Union["QDArray", QuadDouble]:
        """Quad-double accurate sum along ``axis`` (sequential pairing)."""
        if axis is None:
            total = QuadDouble(0.0)
            for scalar in self.to_scalars():
                total = total + scalar
            return total
        moved = [np.moveaxis(c, axis, 0) for c in self._components()]
        rest = moved[0].shape[1:]
        acc = QDArray.zeros(rest)
        for i in range(moved[0].shape[0]):
            acc = acc + _raw(*(c[i] for c in moved))
        return acc

    def is_negative(self) -> np.ndarray:
        """Element-wise sign: the first non-zero component decides."""
        c0, c1, c2, c3 = self._components()
        return np.where(c0 != 0.0, c0 < 0.0,
                        np.where(c1 != 0.0, c1 < 0.0,
                                 np.where(c2 != 0.0, c2 < 0.0, c3 < 0.0)))

    def abs(self) -> "QDArray":
        negative = self.is_negative()
        return _raw(*(np.where(negative, -c, c) for c in self._components()))

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(((self.c0 + self.c1) + self.c2) + self.c3)

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        """Largest magnitude, rounded to double (for norms/tolerances)."""
        if axis is None:
            return float(np.max(self.abs_double())) if self.size else 0.0
        return np.max(self.abs_double(), axis=axis, initial=0.0)

    def allclose(self, other: "QDArray", tol: float = 1e-60) -> bool:
        diff = (self - other).abs()
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _raw(c0, c1, c2, c3) -> QDArray:
    out = object.__new__(QDArray)
    out.c0 = c0
    out.c1 = c1
    out.c2 = c2
    out.c3 = c3
    return out


def _components_of(value) -> Tuple[np.ndarray, ...]:
    """The four planes of anything coercible, without forcing a shape."""
    if isinstance(value, QDArray):
        return value._components()
    if isinstance(value, QuadDouble):
        return tuple(np.float64(c) for c in value.c)
    arr = np.asarray(value, dtype=np.float64)
    z = np.zeros_like(arr)
    return arr, z, z, z


def _coerce(value, like) -> QDArray:
    """Coerce scalars/arrays to a QDArray broadcastable against ``like``."""
    if isinstance(value, QDArray):
        return value
    if isinstance(value, QuadDouble):
        shape = np.shape(like)
        return _raw(*(np.full(shape, c) for c in value.c))
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == ():
        shape = np.shape(like)
        return _raw(np.full(shape, float(arr)), np.zeros(shape),
                    np.zeros(shape), np.zeros(shape))
    return QDArray.from_float64(arr)


# ----------------------------------------------------------------------
# the complex pairing
# ----------------------------------------------------------------------
class ComplexQDArray:
    """An array of complex quad-doubles: a (real, imag) pair of QDArrays."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=None):
        if not isinstance(real, QDArray):
            real = QDArray.from_float64(np.asarray(real, dtype=np.float64))
        if imag is None:
            imag = QDArray.zeros(real.shape)
        elif not isinstance(imag, QDArray):
            imag = QDArray.from_float64(np.asarray(imag, dtype=np.float64))
        if real.shape != imag.shape:
            raise ValueError("real/imag shape mismatch")
        self.real = real
        self.imag = imag

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape) -> "ComplexQDArray":
        return cls(QDArray.zeros(shape), QDArray.zeros(shape))

    @classmethod
    def from_complex128(cls, values: np.ndarray) -> "ComplexQDArray":
        values = np.asarray(values, dtype=np.complex128)
        return cls(QDArray.from_float64(values.real), QDArray.from_float64(values.imag))

    @classmethod
    def from_complex_dd(cls, values) -> "ComplexQDArray":
        """Exact plane widening of a :class:`~repro.multiprec.ddarray.
        ComplexDDArray`: each real/imaginary double-double pair becomes the
        two leading quad-double components (see :meth:`QDArray.from_ddarray`).

        This is the d -> dd -> qd escalation's batch conversion: a whole
        ``(n, B)`` double-double lane array is widened in eight NumPy copies,
        with every lane's value preserved bit-for-bit.
        """
        return cls(QDArray.from_ddarray(values.real),
                   QDArray.from_ddarray(values.imag))

    @classmethod
    def from_scalars(cls, values: Iterable[ComplexQD]) -> "ComplexQDArray":
        values = list(values)
        real = QDArray.from_scalars([v.real for v in values])
        imag = QDArray.from_scalars([v.imag for v in values])
        return cls(real, imag)

    def to_scalars(self) -> list:
        reals = self.real.to_scalars()
        imags = self.imag.to_scalars()
        return [ComplexQD(r, i) for r, i in zip(reals, imags)]

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

    def copy(self) -> "ComplexQDArray":
        return ComplexQDArray(self.real.copy(), self.imag.copy())

    def __getitem__(self, idx):
        r = self.real[idx]
        i = self.imag[idx]
        if isinstance(r, QuadDouble):
            return ComplexQD(r, i)
        return ComplexQDArray(r, i)

    def __setitem__(self, idx, value) -> None:
        if isinstance(value, (ComplexQD, ComplexQDArray)):
            self.real[idx] = value.real
            self.imag[idx] = value.imag
            return
        z = np.asarray(value, dtype=np.complex128)
        if z.ndim:
            self.real[idx] = QDArray.from_float64(z.real)
            self.imag[idx] = QDArray.from_float64(z.imag)
        else:
            self.real[idx] = QuadDouble.from_float(float(z.real))
            self.imag[idx] = QuadDouble.from_float(float(z.imag))

    def __repr__(self) -> str:
        return f"ComplexQDArray(shape={self.shape})"

    # ------------------------------------------------------------------
    def _coerce(self, other) -> "ComplexQDArray":
        if isinstance(other, ComplexQDArray):
            return other
        if isinstance(other, ComplexQD):
            shape = self.shape
            real = _raw(*(np.full(shape, c) for c in other.real.c))
            imag = _raw(*(np.full(shape, c) for c in other.imag.c))
            return ComplexQDArray(real, imag)
        arr = np.asarray(other, dtype=np.complex128)
        if arr.shape == ():
            arr = np.full(self.shape, complex(arr))
        return ComplexQDArray.from_complex128(arr)

    def __neg__(self) -> "ComplexQDArray":
        return ComplexQDArray(-self.real, -self.imag)

    def __add__(self, other) -> "ComplexQDArray":
        o = self._coerce(other)
        return ComplexQDArray(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexQDArray":
        o = self._coerce(other)
        return ComplexQDArray(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, other) -> "ComplexQDArray":
        o = self._coerce(other)
        return ComplexQDArray(o.real - self.real, o.imag - self.imag)

    def __mul__(self, other) -> "ComplexQDArray":
        return complex_qd_mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexQDArray":
        return _complex_qd_div(self, self._coerce(other))

    def __rtruediv__(self, other) -> "ComplexQDArray":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "ComplexQDArray":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("ComplexQDArray only supports non-negative integer powers")
        result = ComplexQDArray(QDArray.ones(self.shape), QDArray.zeros(self.shape))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # in-place updates (see QDArray; results are bit-for-bit with the
    # out-of-place operators)
    # ------------------------------------------------------------------
    def iadd_(self, other) -> "ComplexQDArray":
        """In-place ``self += other``."""
        o = self._coerce(other)
        self.real.iadd_(o.real)
        self.imag.iadd_(o.imag)
        return self

    def isub_(self, other) -> "ComplexQDArray":
        """In-place ``self -= other``."""
        o = self._coerce(other)
        self.real.isub_(o.real)
        self.imag.isub_(o.imag)
        return self

    def isub_mul_(self, factor, value) -> "ComplexQDArray":
        """In-place ``self -= factor * value`` (elimination inner loop)."""
        prod = self._coerce(factor) * value
        return self.isub_(prod)

    def iadd_where_(self, other, mask) -> "ComplexQDArray":
        """Masked in-place add: ``self = where(mask, self + other, self)``."""
        o = self._coerce(other)
        mask = np.asarray(mask, dtype=bool)
        self.real.iadd_where_(o.real, mask)
        self.imag.iadd_where_(o.imag, mask)
        return self

    def sum(self, axis=None):
        """Sum of elements; returns :class:`ComplexQD` when ``axis is None``."""
        r = self.real.sum(axis=axis)
        i = self.imag.sum(axis=axis)
        if isinstance(r, QuadDouble):
            return ComplexQD(r, i)
        return ComplexQDArray(r, i)

    @staticmethod
    def where(mask, a, b) -> "ComplexQDArray":
        """Element-wise select, broadcasting like :meth:`QDArray.where`."""
        a_re, a_im = _complex_parts(a)
        b_re, b_im = _complex_parts(b)
        return ComplexQDArray(QDArray.where(mask, a_re, b_re),
                              QDArray.where(mask, a_im, b_im))

    def masked_fill(self, mask, value) -> "ComplexQDArray":
        """Copy with elements under ``mask`` replaced by ``value``."""
        return ComplexQDArray.where(mask, value, self)

    def conjugate(self) -> "ComplexQDArray":
        return ComplexQDArray(self.real, -self.imag)

    def abs2(self) -> QDArray:
        return self.real * self.real + self.imag * self.imag

    def abs_double(self) -> np.ndarray:
        """Per-element magnitude rounded to a hardware double."""
        return np.abs(self.to_complex128())

    def max_abs(self, axis=None) -> Union[float, np.ndarray]:
        if axis is None:
            if self.size == 0:
                return 0.0
            return float(np.max(np.sqrt(np.maximum(self.abs2().to_float64(), 0.0))))
        return np.max(np.sqrt(np.maximum(self.abs2().to_float64(), 0.0)),
                      axis=axis, initial=0.0)

    def allclose(self, other: "ComplexQDArray", tol: float = 1e-60) -> bool:
        diff = self - other
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale


def _complex_parts(value):
    """Split anything coercible into (real, imag) usable by QDArray.where."""
    if isinstance(value, (ComplexQDArray, ComplexQD)):
        return value.real, value.imag
    if isinstance(value, QDArray):
        return value, np.zeros_like(value.c0)
    if isinstance(value, QuadDouble):
        return value, 0.0
    arr = np.asarray(value, dtype=np.complex128)
    return arr.real, arr.imag

# ----------------------------------------------------------------------
# complex helpers for the batch backend and the plan-arena executor
# ----------------------------------------------------------------------
def complex_qd_raw(real: QDArray, imag: QDArray) -> ComplexQDArray:
    """Wrap two QDArrays without the constructor's shape validation."""
    out = object.__new__(ComplexQDArray)
    out.real = real
    out.imag = imag
    return out


def complex_qd_from_planes(planes) -> ComplexQDArray:
    """View eight planes (real c0..c3, imag c0..c3) as a ComplexQDArray."""
    return complex_qd_raw(_raw(planes[0], planes[1], planes[2], planes[3]),
                          _raw(planes[4], planes[5], planes[6], planes[7]))


def qd_mul_operand(x: ComplexQDArray, other) -> ComplexQDArray:
    """The coerced right operand of ``x * other``, allocation-free for
    Python scalars.

    Bit-for-bit with :meth:`ComplexQDArray._coerce`: a Python scalar there
    goes through ``from_complex128`` whose planes are the raw double value
    plus zero trailing components -- no renormalisation -- so read-only
    broadcast views of the same scalars carry identical bits everywhere.
    """
    if isinstance(other, ComplexQDArray):
        return other
    if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
        z = complex(other)
        shape = x.shape
        zero = np.broadcast_to(np.float64(0.0), shape)
        real = _raw(np.broadcast_to(np.float64(z.real), shape),
                    zero, zero, zero)
        imag = _raw(np.broadcast_to(np.float64(z.imag), shape),
                    zero, zero, zero)
        return complex_qd_raw(real, imag)
    return x._coerce(other)


def _complex_qd_div(x: ComplexQDArray, y: ComplexQDArray) -> ComplexQDArray:
    """``x / y`` as one stacked product, one stacked add, one division.

    Replays the allocating expression ``((a*c + b*d) / denom,
    (b*c - a*d) / denom)`` of :func:`repro.multiprec.reference.
    complex_qd_div` kernel for kernel, but stacks the independent work
    along a leading axis: the six real products ``(cc, ac, bc, dd, bd,
    ad)`` run as one product kernel, the three sums ``denom = cc + dd``,
    ``ac + bd`` and ``bc + (-ad)`` (subtraction *is* addition of the
    negation) as one add kernel, and the two real divisions by ``denom``
    as one division kernel.  The kernels are element-wise, so every
    landed bit is the unstacked chain's.  Operands of different shapes are
    broadcast up front: the renormalisation kernels need every plane at
    the result shape.
    """
    parts = [p._components() for p in (x.real, x.imag, y.real, y.imag)]
    shape = op_shape(parts[0], parts[2])
    if x.shape != y.shape:
        parts = [tuple(np.broadcast_to(c, shape) for c in p) for p in parts]
    a, b, c, d = parts
    st = plane_stack()
    fb, mark = st.take((6,) + shape, 12)
    sb, smark = st.take((3,) + shape, 4)
    try:
        xs, ys, prod = fb[0:4], fb[4:8], fb[8:12]
        for k in range(4):
            # rows (c, a, b, d, b, a) x (c, c, c, d, d, d)
            xs[k][0] = c[k]
            xs[k][1] = a[k]
            xs[k][2] = b[k]
            xs[k][3] = d[k]
            xs[k][4] = b[k]
            xs[k][5] = a[k]
            ys[k][0:3] = c[k]
            ys[k][3:6] = d[k]
        _mul_planes_fused(xs, ys, out=prod)
        for plane in prod:
            np.negative(plane[5], out=plane[5])          # -ad
        _add_planes_fused(tuple(p[0:3] for p in prod),
                          tuple(p[3:6] for p in prod), out=sb)
        denom = tuple(p[0:1] for p in sb)
        # Mirror the scalar ComplexQD check; see the ComplexDDArray division.
        if np.any(denom[0] == 0.0):
            raise DivisionByZeroError(
                f"ComplexQDArray division by zero in "
                f"{int(np.count_nonzero(denom[0] == 0.0))} element(s)"
            )
        quotient = _div_planes_fused(tuple(p[1:3] for p in sb), denom)
        return ComplexQDArray(_raw(*(q[0] for q in quotient)),
                              _raw(*(q[1] for q in quotient)))
    finally:
        st.release(smark)
        st.release(mark)


def complex_qd_mul(x: ComplexQDArray, y: ComplexQDArray,
                   out: ComplexQDArray = None) -> ComplexQDArray:
    """``x * y``, landed in ``out`` when given (else in fresh planes).

    The one body of ``ComplexQDArray.__mul__`` and of the backend's
    in-place product forms; bit-for-bit with the composition
    ``(a*c - b*d, a*d + b*c)`` in :mod:`repro.multiprec.reference`.  The
    four real products run as one product kernel over ``(4,) + shape``
    with operands ``(a, a, b, b) x (c, d, d, c)`` stacked in scratch, and
    the real/imaginary combine as one add kernel of ``(ac, ad)`` and
    ``(-bd, bc)`` (subtraction is addition of the negation).  Operands
    are copied into scratch before the first write to ``out``, so ``out``
    may alias either operand; any operand shape broadcasting against the
    other works, so a ``(K, B)`` stack times a ``(B,)`` weight row is one
    call.
    """
    a = x.real._components()
    b = x.imag._components()
    c = y.real._components()
    d = y.imag._components()
    st = plane_stack()
    shape = op_shape(a, c)
    if out is None:
        out = complex_qd_from_planes(result_planes(shape, None, 8))
    fb, mark = st.take((4,) + shape, 12)
    sb, smark = st.take((2,) + shape, 4)
    try:
        xs, ys, prod = fb[0:4], fb[4:8], fb[8:12]
        for k in range(4):
            xs[k][0:2] = a[k]
            xs[k][2:4] = b[k]
            ys[k][0] = c[k]
            ys[k][1:3] = d[k]
            ys[k][3] = c[k]
        _mul_planes_fused(xs, ys, out=prod)              # (ac, ad, bd, bc)
        for plane in prod:
            np.negative(plane[2], out=plane[2])          # -bd
        _add_planes_fused(tuple(p[0:2] for p in prod),
                          tuple(p[2:4] for p in prod), out=sb)
        for dst, src in zip(out.real._components(), sb):
            np.copyto(dst, src[0])
        for dst, src in zip(out.imag._components(), sb):
            np.copyto(dst, src[1])
        return out
    finally:
        st.release(smark)
        st.release(mark)
