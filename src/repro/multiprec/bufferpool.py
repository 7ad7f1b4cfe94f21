"""Scratch-plane buffers for the fused batch-arithmetic kernels.

The vectorised double-double / quad-double operations decompose into dozens
of tiny NumPy ufunc calls per arithmetic op.  On the ``(n, B)`` lane arrays
the batched tracker works with, those calls are *overhead bound*: the fixed
per-call dispatch cost dwarfs the arithmetic.  The fused kernels in
:mod:`repro.multiprec.qdarray` and :mod:`repro.multiprec.ddarray` attack the
overhead twice:

* they execute *fewer, cheaper* calls (one Dekker split per input plane
  instead of one per product, masked ``np.copyto`` instead of allocating
  ``np.where``, renormalisation insertions with precomputed slot masks); and
* they thread ``out=`` buffers through the whole chain, drawing scratch from
  the :class:`PlaneStack` bump allocator below -- one ``take`` hands a whole
  kernel invocation its working set in a single call, and one ``release``
  rewinds the stack, so scratch arrays are recycled across the millions of
  ops of a tracking run instead of churning the allocator.

The stack is *thread-local* (each thread gets its own via
:func:`plane_stack`), and takes nest: a kernel that calls another kernel
(division calls multiplication) simply takes deeper in the same stack.

:func:`zero_plane` / :func:`one_plane` cache immutable planes for read-only
operands -- e.g. the zero components a division broadcasts a quotient plane
against -- so the hot path never materialises a fresh ``np.zeros`` just to
read it.

Each kernel replays bit-for-bit the floating-point sequence of the plain
out-of-place chains kept in :mod:`repro.multiprec.reference`, which the
differential tests and the fused-vs-reference benchmark compare against.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from .eft import SPLIT_THRESHOLD

__all__ = [
    "DD_ADDSUB_FUSED_MIN_ELEMENTS",
    "PlanArena",
    "PlaneStack",
    "land_planes",
    "needs_reference_split",
    "one_plane",
    "op_shape",
    "plane_stack",
    "result_planes",
    "zero_plane",
]

#: Cached read-only planes larger than this many elements are not retained.
_MAX_CACHED_PLANE_ELEMENTS = 1 << 20


class PlaneStack:
    """A bump allocator of scratch ndarrays, keyed by ``(shape, dtype)``.

    ``take(shape, count)`` returns ``(planes, marker)``: a list of ``count``
    scratch arrays (grown on first use, recycled afterwards) plus an opaque
    marker; ``release(marker)`` rewinds the per-key cursor so the same
    planes serve the next op.  Takes nest like stack frames -- an inner
    kernel's take starts past its caller's -- which is what makes the
    layered fused kernels (division -> multiplication -> renormalisation)
    safe with a single shared pool per thread.

    The contents of taken planes are *uninitialised*; callers must fully
    overwrite them.  Planes that escape a kernel (result components) must
    not come from the stack -- results are allocated fresh or written into
    caller-provided ``out=`` planes.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # key -> [planes, cursor]
        self._entries: Dict[Tuple[tuple, object], list] = {}

    def take(self, shape, count: int, dtype=np.float64):
        key = (shape, dtype)
        entry = self._entries.get(key)
        if entry is None:
            entry = [[], 0]
            self._entries[key] = entry
        planes, cursor = entry
        end = cursor + count
        while len(planes) < end:
            planes.append(np.empty(shape, dtype))
        entry[1] = end
        return planes[cursor:end], (entry, cursor)

    @staticmethod
    def release(marker) -> None:
        entry, cursor = marker
        entry[1] = cursor

    def depth(self) -> int:
        """Total planes currently taken (for tests)."""
        return sum(entry[1] for entry in self._entries.values())

    def capacity(self) -> int:
        """Total planes ever grown (for tests and memory accounting)."""
        return sum(len(entry[0]) for entry in self._entries.values())

    def clear(self) -> None:
        """Drop every cached plane, including the module-level read-only
        zero/one plane caches (for tests and memory pressure).

        A long-lived worker that calls ``clear()`` expects its scratch
        memory back; the cached :func:`zero_plane` / :func:`one_plane`
        constants are part of that footprint, so they are dropped too and
        re-materialised lazily on next use."""
        self._entries.clear()
        _ZERO_PLANES.clear()
        _ONE_PLANES.clear()

    def shrink(self) -> None:
        """Release capacity above the *current* take depth.

        A one-off large batch grows every ``(shape, dtype)`` bucket to its
        peak working set and :meth:`release` only rewinds cursors, so a
        long-lived service worker would otherwise pin peak-batch memory
        forever.  ``shrink()`` frees the planes past each bucket's cursor
        (all of them, for the common call-at-idle case where nothing is
        taken) without disturbing planes still on loan."""
        for key in list(self._entries):
            planes, cursor = self._entries[key]
            if cursor == 0:
                del self._entries[key]
            else:
                del planes[cursor:]


class PlanArena:
    """Plan-owned persistent buffers for compiled-schedule execution.

    A compiled :class:`~repro.core.evalplan.EvaluationPlan` executes the
    same op graph every call, so the buffers it needs -- result rows, term
    planes, blend scratch -- have statically known lifetimes: they are live
    from the start of one execution to the start of the next.  The arena
    holds exactly those buffers, keyed by a name the schedule derives from
    the op graph, sized once at first execution for a given lane count and
    reused across every corrector iteration and predictor call thereafter.

    ``ensure(lanes)`` re-sizes (drops every slot) only when the lane count
    changes, e.g. after lane compression; the drop is counted in
    :attr:`resizes` so tests can pin "exactly one re-size per lane-count
    change".  ``slot(name, factory)`` returns the named buffer, building it
    via ``factory()`` on first use (a *miss*) and handing back the cached
    object afterwards (a *hit*).

    Unlike :class:`PlaneStack` takes, arena slots are not scoped: there is
    nothing to release, so an exception mid-execution cannot leak depth --
    the next execution simply overwrites the same slots.  The flip side is
    the ownership rule: buffers handed out of an execution (result rows)
    remain arena-owned and are only valid until the next execution of the
    same plan.
    """

    __slots__ = ("_slots", "lanes", "hits", "misses", "resizes")

    def __init__(self) -> None:
        self._slots: Dict[object, object] = {}
        self.lanes = None
        #: slot reuses / creations / lane-count invalidations (for benches)
        self.hits = 0
        self.misses = 0
        self.resizes = 0

    def ensure(self, lanes: int) -> bool:
        """Invalidate every slot when the lane count changes.

        Returns True when the arena was (re)sized -- i.e. every previously
        handed-out buffer is now stale -- so owners can drop caches built on
        top of the old slots.
        """
        if self.lanes != lanes:
            if self.lanes is not None:
                self.resizes += 1
            self.lanes = lanes
            self._slots.clear()
            return True
        return False

    def slot(self, name, factory):
        """The named buffer, built by ``factory()`` on first use."""
        buffer = self._slots.get(name)
        if buffer is None:
            buffer = factory()
            self._slots[name] = buffer
            self.misses += 1
        else:
            self.hits += 1
        return buffer

    def clear(self) -> None:
        """Drop every slot and forget the lane count (memory pressure)."""
        self._slots.clear()
        self.lanes = None

    def __len__(self) -> int:
        return len(self._slots)


_LOCAL = threading.local()


def plane_stack() -> PlaneStack:
    """This thread's scratch-plane stack."""
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = PlaneStack()
        _LOCAL.stack = stack
    return stack


_ZERO_PLANES: Dict[tuple, np.ndarray] = {}
_ONE_PLANES: Dict[tuple, np.ndarray] = {}


def _cached_plane(cache: Dict[tuple, np.ndarray], shape, fill: float) -> np.ndarray:
    shape = tuple(shape) if not isinstance(shape, tuple) else shape
    plane = cache.get(shape)
    if plane is None:
        plane = np.full(shape, fill)
        plane.setflags(write=False)
        if plane.size <= _MAX_CACHED_PLANE_ELEMENTS:
            cache[shape] = plane
    return plane


def zero_plane(shape) -> np.ndarray:
    """A cached, *read-only* float64 zero plane of the given shape."""
    return _cached_plane(_ZERO_PLANES, shape, 0.0)


def one_plane(shape) -> np.ndarray:
    """A cached, *read-only* float64 one plane of the given shape."""
    return _cached_plane(_ONE_PLANES, shape, 1.0)


# ----------------------------------------------------------------------
# helpers shared by the dd and qd fused kernels
# ----------------------------------------------------------------------
def op_shape(x, y) -> tuple:
    """The broadcast result shape of two plane tuples' leading planes."""
    shape = x[0].shape
    if y[0].shape != shape:
        shape = np.broadcast_shapes(shape, y[0].shape)
    return shape


def result_planes(shape, out, count: int):
    """``out`` when provided, else ``count`` fresh float64 planes."""
    if out is not None:
        return out
    return tuple(np.empty(shape) for _ in range(count))


def land_planes(planes, out):
    """``planes`` when ``out`` is None, else ``out`` with ``planes`` copied in."""
    if out is None:
        return planes
    for dst, src in zip(out, planes):
        np.copyto(dst, src)
    return out


def needs_reference_split(plane, t, mb) -> bool:
    """Whether any element forces the scaling Dekker split.

    True when the plane holds a magnitude above the split threshold or a
    NaN.  For canonical expansions the trailing components are bounded by
    the leading one, so the fused product kernels only need to test the
    leading plane of each operand; a non-finite leading component routes
    the whole op through the product's scaling-split chain
    (``_dd_mul_planes_ref`` / ``_mul_planes_ref``), which handles every
    case.
    ``t`` (float64) and ``mb`` (bool) are caller scratch.
    """
    np.abs(plane, out=t)
    np.greater(t, SPLIT_THRESHOLD, out=mb)
    if mb.any():
        return True
    np.isnan(plane, out=mb)
    return bool(mb.any())


#: Below this many elements the dd add/sub fused kernels *lose* to the plain
#: two_sum chain, so :mod:`repro.multiprec.ddarray` runs the chain there: a
#: double-double addition has no Dekker splits to share, so the fused variant
#: only repackages the same chain behind extra scratch-plane bookkeeping
#: whose fixed cost dominates tiny batches.
#: Measured on the benchmark host (see the ``small_batch`` section of
#: ``BENCH_qd_arith.json``): the fused path crosses over around 1k elements
#: and wins ~2x by 16k.  Product/division kernels keep their fusion at every
#: size -- they share splits and renorm masks, which pays even at batch 1.
DD_ADDSUB_FUSED_MIN_ELEMENTS = 1024
