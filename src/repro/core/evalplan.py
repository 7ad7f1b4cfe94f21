"""Compiled evaluation plans: the per-system schedule, built once.

The paper's premise (section 3) is that the polynomial system is *fixed* for
the whole run -- 100,000 evaluations of one system inside a path tracker --
so everything that depends only on the system's shape should be decided
once, not rediscovered on every predictor/corrector call.  The walk-the-terms
evaluator (:func:`repro.core.reference.walk_evaluate`) re-derives three
things per call that never change:

1. **powers** -- ``x^(a-1)`` is recomputed per *term*, although every term
   of every polynomial draws from the same per-variable power ladder;
2. **Speelpenning sweeps** -- the forward/backward gradient sweep runs per
   *monomial*, although monomials frequently share their support (the same
   variables occurring, possibly with different exponents), and a homotopy
   evaluates *two* systems whose supports overlap heavily (a total-degree
   start system reuses the target's variables);
3. **blended temporaries** -- the convex homotopy blend
   ``gamma (1-t) g + t f`` materialises ``n^2 + 2n`` fresh arrays per call,
   two weighted products and an addition for every Jacobian entry, including
   the structurally zero ones.

An :class:`EvaluationPlan` compiles one :class:`~repro.polynomials.system.
PolynomialSystem` -- and a :class:`HomotopyPlan` compiles a start+target
*pair* -- into a static schedule executed per batch:

* per-variable **power tables** built once per evaluation with the *same
  multiply chain* as the walk path (the binary ``**`` ladder), so every
  term's powers are bit-for-bit identical and computed once per variable
  and exponent instead of once per term;
* **deduplicated supports**: each unique Speelpenning sweep runs once and
  its gradient/product planes are shared by every consuming term across all
  polynomials and (for :class:`HomotopyPlan`) across both systems; the
  derived common-factor, monomial-value and scaled-gradient planes are
  deduplicated the same way, keyed by their exact operands;
* a precomputed **accumulation schedule** that adds ``coeff*cf*product``
  and the scaled gradient contributions into the value/Jacobian
  accumulators in the walk path's per-accumulator order, every product
  with the walk's operand order;
* for :class:`HomotopyPlan`, the homotopy blend and ``dh/dt = f - gamma g``
  fused into the same pass over the sparse union of the two Jacobian
  structures: structurally zero Jacobian entries skip their weighted
  products entirely -- no blended temporaries.

Execution is **levelled**, the CPU form of the paper's one-launch-per-stage
evaluation.  At compile time every plane spec and accumulation product is
lowered to binary products (power ladders, chains and Speelpenning sweeps
in their walk order) and levelled by ``1 + max(operand level)``; one
execution then runs each level as one gather per operand side and *one*
stacked complex product over the ``(P, B)`` plane tensor (in ``d`` a power
stays one ``np.square`` / ``np.power`` ufunc per exponent).  Accumulation
runs entry by entry: accumulators are sorted longest first, so the k-th
addends of all of them form a prefix of the ``(R, B)`` row tensor -- one
gather and one stacked add per k, and each accumulator still sees its
addends in the walk's order.  The blend is one stacked product of the
start rows by ``gamma (1-t)``, one of the target rows by ``t`` and one
stacked add where both contribute; ``dh/dt`` is one stacked product by
``gamma`` and one stacked subtract.  The kernels are element-wise, so a row
inside a ``(K, B)`` stack carries the bits it would get on its own.

Because every shared plane carries bit-identical values and every
accumulator receives the identical sequence of identical addends, the
single-system plan reproduces the walk path *bit for bit* (including the
inf/NaN propagation of masked dead lanes).  The homotopy plan is bit-for-bit
on the value rows and the t-derivative and on every Jacobian entry where
both systems contribute; entries touched by only one system skip the walk
path's multiplication of a zeros row by the other weight (equal under
``==``, differing at most in the sign of a signed zero).

Both plans expose compile-time operation counts (:class:`PlanOpCounts`, in
multiprecision-multiplication units: a ``**e`` counts as its dd/qd binary
multiply chain).  :mod:`repro.core.reference` counts the walk in the same
units, which is how ``BENCH_eval_plan.json`` and the ``tests/bench``
acceptance tests assert the plan never schedules more work than the walk
and wins >= 1.5x on workloads with shared supports.

Plans have one execution path.  The plane and row tensors, the gather
buffers and the views the executor writes through live in a plan-owned
:class:`~repro.multiprec.bufferpool.PlanArena`, built once per lane count,
so a steady-state execution allocates almost nothing; the ``(B,)`` rows it
returns are views of the row tensor, valid until the plan's next
execution.

Product code has no other evaluation path.  The walk-the-terms evaluator
is the plans' differential oracle in :mod:`repro.core.reference`, which
tests and :mod:`repro.bench` import and product modules never do.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..multiprec.backend import ComplexBatchBackend, backend_for_context
from ..multiprec.bufferpool import PlanArena
from ..multiprec.numeric import DOUBLE, NumericContext
from ..polynomials.system import PolynomialSystem

__all__ = [
    "EvaluationPlan",
    "HomotopyPlan",
    "PlanExecutionStats",
    "PlanOpCounts",
    "homotopy_compile_cache_stats",
    "pow_chain_multiplications",
    "require_lane_batch",
]


# ----------------------------------------------------------------------
# the homotopy compile cache (family-keyed plan reuse)
# ----------------------------------------------------------------------
#: How many compiled (start, target) pairs the cache keeps (LRU).  Serving
#: workloads cycle through a handful of family schemas; a runaway stream of
#: distinct systems must not pin compile artifacts forever.
_COMPILE_CACHE_LIMIT = 32

_COMPILE_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_COMPILE_CACHE_LOCK = threading.Lock()
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0}


def _system_signature(system: PolynomialSystem) -> tuple:
    """A hashable identity of a system's full coefficient structure.

    Coefficients are part of the key because the compiler bakes them into
    the schedules as ``("scalar", coeff)`` operands -- two systems with the
    same support but different coefficients compile to different plans.
    """
    return (system.dimension,
            tuple(tuple((complex(c), m.positions, m.exponents)
                        for c, m in poly.terms)
                  for poly in system))


def homotopy_compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus the current entry count of the compile cache."""
    with _COMPILE_CACHE_LOCK:
        return {"hits": _COMPILE_CACHE_STATS["hits"],
                "misses": _COMPILE_CACHE_STATS["misses"],
                "entries": len(_COMPILE_CACHE)}


def clear_homotopy_compile_cache() -> None:
    """Drop every cached compile and reset the hit/miss counters."""
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE.clear()
        _COMPILE_CACHE_STATS["hits"] = 0
        _COMPILE_CACHE_STATS["misses"] = 0


def require_lane_batch(points, dimension: int) -> None:
    """Reject inputs that are not an ``(n, B)`` lane batch.

    The batched evaluators index ``points[p]`` per variable and read the
    lane count off ``shape[1]``; a 1-D array (a single point passed where a
    batch is expected) used to be silently misread as ``B = n`` lanes of a
    0-d system.  Raise instead, naming the expected layout.

    Raises
    ------
    ConfigurationError
        When ``points`` has no 2-D shape or its leading axis is not the
        system dimension.
    """
    shape = getattr(points, "shape", None)
    if shape is None or len(shape) != 2:
        raise ConfigurationError(
            f"batched evaluation expects an (n, B) lane batch with "
            f"n = {dimension} (one column per point); got "
            f"{'no array' if shape is None else f'shape {tuple(shape)}'} -- "
            f"pack points with backend.from_points(list_of_points)"
        )
    if int(shape[0]) != int(dimension):
        raise ConfigurationError(
            f"lane batch has {int(shape[0])} rows but the system dimension "
            f"is {dimension}; expected shape ({dimension}, B)"
        )


# ----------------------------------------------------------------------
# operation counting (multiprecision-multiplication units)
# ----------------------------------------------------------------------
def pow_chain_multiplications(exponent: int) -> int:
    """Multiplications of the ``**`` binary ladder for ``x ** exponent``.

    This replays the loop of ``DDArray.__pow__`` / ``QDArray.__pow__``:
    one multiply per set bit (into the running result, which starts at the
    ones array) and one squaring per loop round -- including the final,
    unused squaring, which the walk path pays too.  ``x ** 0`` is free.
    The ``d`` backend evaluates ``**`` as a single ``np.power`` ufunc; the
    counts here are in the multiprecision-chain units the dd/qd rungs
    actually execute, the currency of the plan-vs-walk comparisons.
    """
    muls = 0
    e = int(exponent)
    while e:
        if e & 1:
            muls += 1
        muls += 1  # base = base * base, unconditionally
        e >>= 1
    return muls


@dataclass(frozen=True)
class PlanOpCounts:
    """Batch-array operations of one evaluation (complex mul/add units).

    One unit is one vectorised complex batch-array operation over the ``B``
    lanes; each costs a fixed number of multiprecision component operations
    in the dd/qd rungs.  Powers are counted as their binary multiply chains
    (:func:`pow_chain_multiplications`).
    """

    multiplications: int = 0
    additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions

    def __add__(self, other: "PlanOpCounts") -> "PlanOpCounts":
        return PlanOpCounts(self.multiplications + other.multiplications,
                            self.additions + other.additions)

    def as_dict(self) -> Dict[str, int]:
        return {"multiplications": self.multiplications,
                "additions": self.additions,
                "total": self.total}


@dataclass
class PlanExecutionStats:
    """Run-time counters of one plan's executions."""

    executions: int = 0

    def as_dict(self) -> Dict[str, int]:
        # The step-cache keys stay, pinned at 0, for readers of the per-layer
        # benchmark breakdown: the plans no longer cache rows across
        # executions (the tracker stops re-running identical clipped steps
        # instead, see StepControl.clipped_retries).
        return {"executions": self.executions,
                "step_cache_hits": 0,
                "step_cache_misses": 0}


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------
# Operand atoms of schedule entries: ("plane", pid) refers to a shared
# plane; ("scalar", z) is a Python complex weight; ("full", z) materialises
# a constant batch row on use (what the walk's ``backend.full`` does).

@dataclass
class _PolySchedule:
    """Accumulation schedule of one polynomial: value + sparse Jacobian row."""

    value: List[tuple] = field(default_factory=list)
    jacobian: Dict[int, List[tuple]] = field(default_factory=dict)


class _MulOp:
    """One pending ``a * b`` accumulation, dedup-keyed on its exact operands."""

    __slots__ = ("key", "a", "b")

    def __init__(self, key: tuple, a: tuple, b: tuple):
        self.key = key
        self.a = a
        self.b = b


class _Compiler:
    """Builds the shared plane list and per-polynomial schedules.

    Plane specs are emitted in dependency order (a spec only references
    earlier pids), deduplicated by a structural key, so executing the spec
    list top to bottom computes every shared plane exactly once.  Term-level
    products (``coeff * monomial_value`` and the scaled gradient
    contributions) are kept abstract during compilation; :meth:`finalize`
    materialises the multi-consumer ones as shared planes and inlines the
    rest into their accumulator's ``seed_mul`` / ``add_mul`` entry.
    """

    def __init__(self) -> None:
        self.specs: List[tuple] = []
        self._index: Dict[tuple, int] = {}
        self._pending: List[Tuple[List, _PolySchedule]] = []
        self._consumers: Dict[tuple, int] = {}
        self.terms = 0
        self.constant_terms = 0
        self.supports: set = set()
        self.monomials: set = set()

    # -- plane emission -------------------------------------------------
    def _emit(self, key: tuple, spec: tuple) -> int:
        pid = self._index.get(key)
        if pid is None:
            pid = len(self.specs)
            self.specs.append(spec)
            self._index[key] = pid
        return pid

    def _row(self, p: int) -> int:
        return self._emit(("row", p), ("row", p))

    def _power(self, p: int, e: int) -> int:
        return self._emit(("power", p, e), ("power", self._row(p), e))

    def _sweep(self, positions: Tuple[int, ...]) -> int:
        rows = tuple(self._row(p) for p in positions)
        return self._emit(("sweep", positions), ("sweep", rows))

    def _grad(self, positions: Tuple[int, ...], j: int) -> int:
        sid = self._sweep(positions)
        return self._emit(("grad", positions, j), ("grad", sid, j))

    def _product(self, positions: Tuple[int, ...]) -> int:
        k = len(positions)
        if k == 1:
            return self._row(positions[0])
        last = self._grad(positions, k - 1)
        return self._emit(("product", positions),
                          ("mul", ("plane", last),
                           ("plane", self._row(positions[-1]))))

    def _common(self, positions, exponents) -> Optional[int]:
        # Keyed by the power planes themselves, not the full monomial:
        # x0^3*x1 and x0^3*x2 share one common-factor chain.  A single
        # power *is* the common factor -- no chain plane needed.
        powers = tuple(self._power(p, e - 1)
                       for p, e in zip(positions, exponents) if e > 1)
        if not powers:
            return None
        if len(powers) == 1:
            return powers[0]
        return self._emit(("common", powers), ("chain", powers))

    def _monomial_value(self, positions, exponents) -> int:
        common = self._common(positions, exponents)
        product = self._product(positions)
        if common is None:
            return product
        return self._emit(("mvalue", positions, exponents),
                          ("mul", ("plane", common), ("plane", product)))

    def _base(self, positions, exponents, j: int) -> int:
        common = self._common(positions, exponents)
        grad = self._grad(positions, j)
        if common is None:
            return grad
        return self._emit(("base", positions, exponents, j),
                          ("mul", ("plane", common), ("plane", grad)))

    # -- term registration ----------------------------------------------
    def compile_system(self, system: PolynomialSystem) -> List[_PolySchedule]:
        """Register one system's terms; schedules fill in at finalize()."""
        schedules: List[_PolySchedule] = []
        for poly in system:
            value_ops: List = []
            jac_ops: Dict[int, List] = {}
            for coeff, mono in poly.terms:
                coeff = complex(coeff)
                positions, exponents = mono.positions, mono.exponents
                k = len(positions)
                self.terms += 1
                if k == 0:
                    self.constant_terms += 1
                    value_ops.append(("full", coeff))
                    continue
                self.supports.add(positions)
                self.monomials.add((positions, exponents))

                mv = self._monomial_value(positions, exponents)
                op = _MulOp(("term", coeff, positions, exponents),
                            ("scalar", coeff), ("plane", mv))
                self._consumers[op.key] = self._consumers.get(op.key, 0) + 1
                value_ops.append(op)

                common = self._common(positions, exponents)
                for j, (p, exponent) in enumerate(zip(positions, exponents)):
                    scale = coeff * exponent
                    if k == 1:
                        if common is None:
                            jac_ops.setdefault(p, []).append(("full", scale))
                            continue
                        # walk order: common * scale
                        op = _MulOp(("jterm1", scale, positions, exponents),
                                    ("plane", common), ("scalar", scale))
                    else:
                        base = self._base(positions, exponents, j)
                        # walk order: scale * base
                        op = _MulOp(("jterm", scale, positions, exponents, j),
                                    ("scalar", scale), ("plane", base))
                    self._consumers[op.key] = self._consumers.get(op.key, 0) + 1
                    jac_ops.setdefault(p, []).append(op)

            schedule = _PolySchedule()
            self._pending.append(((value_ops, jac_ops), schedule))
            schedules.append(schedule)
        return schedules

    # -- finalization ----------------------------------------------------
    @staticmethod
    def _scalar_plane(op: _MulOp) -> Optional[Tuple[complex, tuple]]:
        """The (scalar, plane-atom) split of a term op; every op has one."""
        if op.a[0] == "scalar":
            return op.a[1], op.b
        if op.b[0] == "scalar":
            return op.b[1], op.a
        return None

    def finalize(self) -> None:
        """Materialise multi-consumer term planes and build the schedules.

        Scale-factor product sharing: every pending op is ``scalar *
        plane``.  When one plane is consumed under two or more *distinct*
        scalars (the same monomial entering different polynomials, or a
        start and a target system, with different coefficients), no
        per-scalar product plane is materialised for it at all -- every
        consumer applies its own scale at accumulation time, exactly the
        multiply the walk path performs, so the plane is shared across all
        the scales.  Planes consumed
        under a single scalar keep the PR 5 behaviour (materialise when
        multi-consumer, inline otherwise).
        """
        plane_scalars: Dict[tuple, set] = {}
        for (value_ops, jac_ops), _ in self._pending:
            for op in self._iter_mul_ops(value_ops, jac_ops):
                scalar_plane = self._scalar_plane(op)
                if scalar_plane is not None:
                    scalar, plane = scalar_plane
                    plane_scalars.setdefault(plane, set()).add(scalar)
        self._scale_shared_planes = {plane for plane, scalars
                                     in plane_scalars.items()
                                     if len(scalars) >= 2}
        self.scale_shared_products = 0

        shared: Dict[tuple, int] = {}
        for (value_ops, jac_ops), _ in self._pending:
            for op in self._iter_mul_ops(value_ops, jac_ops):
                self._share(op, shared)
        self.shared_term_planes = sum(1 for pid in shared.values()
                                      if pid is not None)
        for (value_ops, jac_ops), schedule in self._pending:
            schedule.value = self._entries(value_ops, shared)
            schedule.jacobian = {p: self._entries(ops, shared)
                                 for p, ops in jac_ops.items()}
        self._pending = []

    @staticmethod
    def _iter_mul_ops(value_ops, jac_ops):
        for op in value_ops:
            if isinstance(op, _MulOp):
                yield op
        for ops in jac_ops.values():
            for op in ops:
                if isinstance(op, _MulOp):
                    yield op

    def _share(self, op: _MulOp, shared: Dict[tuple, int]) -> None:
        if op.key in shared or self._consumers[op.key] < 2:
            return
        scalar_plane = self._scalar_plane(op)
        if scalar_plane is not None \
                and scalar_plane[1] in self._scale_shared_planes:
            # Scale-shared: consumers multiply the bare plane by their own
            # scalar inside the accumulate instead of copying/adding a
            # materialised product -- mark suppressed so _entries inlines.
            shared[op.key] = None
            self.scale_shared_products += 1
            return
        shared[op.key] = self._emit(("shared",) + op.key,
                                    ("mul", op.a, op.b))

    @staticmethod
    def _entries(ops: Sequence, shared: Dict[tuple, int]) -> List[tuple]:
        entries: List[tuple] = []
        for position, op in enumerate(ops):
            first = position == 0
            if not isinstance(op, _MulOp):  # ("full", z)
                entries.append(("seed" if first else "add", op))
                continue
            pid = shared.get(op.key)
            if pid is not None:
                entries.append(("seed_copy", pid) if first
                               else ("add", ("plane", pid)))
            else:
                entries.append(("seed_mul" if first else "add_mul",
                                op.a, op.b))
        return entries

    # -- compile-time statistics ----------------------------------------
    def statistics(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        for key in self._index:
            kinds[key[0]] = kinds.get(key[0], 0) + 1
        return {
            "terms": self.terms,
            "constant_terms": self.constant_terms,
            "unique_supports": len(self.supports),
            "unique_monomials": len(self.monomials),
            "power_table_entries": kinds.get("power", 0),
            "unique_sweeps": kinds.get("sweep", 0),
            "shared_term_planes": getattr(self, "shared_term_planes", 0),
            "scale_shared_products": getattr(self, "scale_shared_products", 0),
            "planes": len(self.specs),
        }

    def op_counts(self, schedules: Sequence[List[_PolySchedule]]) -> PlanOpCounts:
        """Array-op tally of the compiled plan (planes + accumulation)."""
        muls = 0
        adds = 0
        for spec in self.specs:
            kind = spec[0]
            if kind == "power":
                muls += pow_chain_multiplications(spec[2])
            elif kind == "sweep":
                k = len(spec[1])
                muls += max(0, 3 * k - 6)
            elif kind == "chain":
                muls += len(spec[1]) - 1
            elif kind == "mul":
                muls += 1
        for system_schedules in schedules:
            for schedule in system_schedules:
                for entries in [schedule.value] + list(schedule.jacobian.values()):
                    for entry in entries:
                        if entry[0] in ("seed_mul", "add_mul"):
                            muls += 1
                        if entry[0].startswith("add"):
                            adds += 1
        return PlanOpCounts(muls, adds)


# ----------------------------------------------------------------------
# lowering: the op graph as levelled binary products
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Program:
    """A compiled plan lowered for one arithmetic flavour.

    Every plane is one row of a ``(planes, B)`` tensor: the ``n`` input
    rows first, then the constant rows (``constants``), then one
    contiguous block per level.  ``levels`` holds, per level, the stacked
    product ``(a, b, start, stop)`` -- operand plane indices and the output
    block -- and, for arithmetics whose ``**`` is one ufunc, one
    ``(exponent, base, start, stop)`` group per exponent.  Every operand
    of a level lives in a lower level, so each level is one kernel call per
    group.

    Accumulators occupy rows ``[0, accumulators)`` of the row tensor,
    longest first: ``seed`` lists the plane of every non-empty
    accumulator's first addend, ``steps[k - 1]`` the plane of the k-th
    addend of the accumulators that have one -- always a prefix of the
    rows, so step k is one gather and one stacked add.  ``accumulator_rows``
    maps each accumulator (in registration order) to its row.
    """

    planes: int
    constants: Tuple[Tuple[int, str, complex], ...]
    levels: Tuple[Tuple[Optional[tuple], Tuple[tuple, ...]], ...]
    seed: np.ndarray
    steps: Tuple[np.ndarray, ...]
    accumulators: int
    accumulator_rows: Tuple[int, ...]


class _Lowering:
    """Lowers plane specs and accumulation entries to levelled products.

    Each node is an input row, a constant row, a binary product or (for
    ufunc-power arithmetics) a power; a product's level is one more than
    its deepest operand's.  Every lowering replays the operation order of
    the schedule it replaces, so stacked execution lands the same bits:

    * power ladders keep the binary ``**`` ladder's multiply order (its
      first accumulation ``one * square`` is exact and becomes an alias,
      its final unused squaring is dropped), chains stay left folds and
      sweeps replay :func:`~repro.polynomials.speelpenning.
      speelpenning_gradient`'s forward/backward order;
    * a scalar operand keeps its place in ``a * b`` unless the arithmetic
      evaluates ``scalar * array`` as ``array * scalar`` (``swap``): dd/qd
      real products are not bitwise commutative, and neither is NumPy's
      complex multiply;
    * identical products (same operands, same order) are computed once.
    """

    def __init__(self, dimension: int, specs: Sequence[tuple], *,
                 ladder: bool, swap: bool):
        self._ladder = ladder
        self._swap = swap
        self._keys: Dict[tuple, int] = {}
        self._nodes: List[tuple] = []
        self._level: List[int] = []
        self._values: Dict[int, complex] = {}
        for p in range(dimension):
            self._add(("row", p), 0)
        self._planes: List = [None] * len(specs)
        self._lower_specs(specs)

    # -- nodes ------------------------------------------------------------
    def _add(self, key: tuple, level: int) -> int:
        node = self._keys.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._level.append(level)
            self._keys[key] = node
        return node

    def _const(self, kind: str, value) -> int:
        value = complex(value)
        # repr keeps signed zeros apart: they coerce to different bits.
        node = self._add(("const", kind, repr(value)), 0)
        self._values[node] = value
        return node

    def _mul(self, a: int, b: int) -> int:
        return self._add(("mul", a, b),
                         1 + max(self._level[a], self._level[b]))

    def _power(self, base: int, exponent: int) -> int:
        if not self._ladder:
            return self._add(("pow", base, exponent), 1 + self._level[base])
        if exponent == 0:
            return self._const("full", 1)
        square, result = base, None
        e = exponent
        while e:
            if e & 1:
                result = square if result is None else self._mul(result, square)
            e >>= 1
            if e:
                square = self._mul(square, square)
        return result

    def _sweep(self, factors: List[int]) -> List[int]:
        k = len(factors)
        if k == 2:
            return [factors[1], factors[0]]
        forward = [None] * k
        forward[1] = factors[0]
        for r in range(1, k - 1):
            forward[r + 1] = self._mul(forward[r], factors[r])
        gradient = [None] * k
        gradient[k - 1] = forward[k - 1]
        backward = factors[k - 1]
        gradient[k - 2] = self._mul(forward[k - 2], backward)
        for r in range(1, k - 2):
            backward = self._mul(backward, factors[k - 1 - r])
            gradient[k - 2 - r] = self._mul(forward[k - 2 - r], backward)
        gradient[0] = self._mul(backward, factors[1])
        return gradient

    def _atom(self, atom: tuple) -> int:
        kind, payload = atom
        if kind == "plane":
            return self._planes[payload]
        return self._const(kind, payload)

    def _product(self, a: tuple, b: tuple) -> int:
        if self._swap and a[0] == "scalar":
            a, b = b, a
        return self._mul(self._atom(a), self._atom(b))

    def _lower_specs(self, specs: Sequence[tuple]) -> None:
        planes = self._planes
        for pid, spec in enumerate(specs):
            kind = spec[0]
            if kind == "row":
                planes[pid] = spec[1]
            elif kind == "power":
                planes[pid] = self._power(planes[spec[1]], spec[2])
            elif kind == "sweep":
                planes[pid] = self._sweep([planes[r] for r in spec[1]])
            elif kind == "grad":
                planes[pid] = planes[spec[1]][spec[2]]
            elif kind == "chain":
                powers = spec[1]
                acc = self._mul(planes[powers[0]], planes[powers[1]])
                for power in powers[2:]:
                    acc = self._mul(acc, planes[power])
                planes[pid] = acc
            else:  # "mul"
                planes[pid] = self._product(spec[1], spec[2])

    def addends(self, entries: Sequence[tuple]) -> List[int]:
        """The addend node of every accumulation entry, in entry order."""
        nodes = []
        for entry in entries:
            kind = entry[0]
            if kind in ("seed", "add"):
                nodes.append(self._atom(entry[1]))
            elif kind == "seed_copy":
                nodes.append(self._planes[entry[1]])
            else:  # "seed_mul" / "add_mul"
                nodes.append(self._product(entry[1], entry[2]))
        return nodes

    # -- layout -------------------------------------------------------------
    def program(self, accumulators: Sequence[List[int]]) -> _Program:
        """Lay the graph out as plane-tensor blocks; sort the accumulators."""
        nodes = self._nodes
        # Input rows are the first nodes, so row p is plane p.
        index = {node: node for node, key in enumerate(nodes)
                 if key[0] == "row"}
        constants = []
        by_level: Dict[int, List[int]] = {}

        def place(group: List[int]) -> Tuple[int, int]:
            start = len(index)
            for node in group:
                index[node] = len(index)
            return start, len(index)

        for node, key in enumerate(nodes):
            if key[0] == "const":
                constants.append((len(index), key[1], self._values[node]))
                place([node])
            elif key[0] != "row":
                by_level.setdefault(self._level[node], []).append(node)

        def operands(group: List[int], slot: int) -> np.ndarray:
            return np.array([index[nodes[node][slot]] for node in group],
                            np.intp)

        levels = []
        for level in sorted(by_level):
            products = None
            muls = [node for node in by_level[level] if nodes[node][0] == "mul"]
            if muls:
                products = (operands(muls, 1), operands(muls, 2)) + place(muls)
            pows = [node for node in by_level[level] if nodes[node][0] == "pow"]
            powers = []
            for exponent in sorted({nodes[node][2] for node in pows}):
                group = [node for node in pows if nodes[node][2] == exponent]
                powers.append((exponent, operands(group, 1)) + place(group))
            levels.append((products, tuple(powers)))

        order = sorted(range(len(accumulators)),
                       key=lambda a: -len(accumulators[a]))
        rows = [0] * len(accumulators)
        for row, a in enumerate(order):
            rows[a] = row
        longest = max((len(acc) for acc in accumulators), default=0)
        addend_planes = [
            np.array([index[accumulators[a][k]] for a in order
                      if len(accumulators[a]) > k], np.intp)
            for k in range(longest)]
        return _Program(
            planes=len(index),
            constants=tuple(constants),
            levels=tuple(levels),
            seed=(addend_planes[0] if addend_planes
                  else np.zeros(0, np.intp)),
            steps=tuple(addend_planes[1:]),
            accumulators=len(accumulators),
            accumulator_rows=tuple(rows),
        )


def _lower(dimension: int, specs: Sequence[tuple],
           schedules: Sequence[List[_PolySchedule]], *, ladder: bool,
           swap: bool) -> Tuple[_Program, List[Dict[tuple, int]]]:
    """Lower the specs and every system's accumulators into a program.

    Returns the program and, per system, the row of each accumulator keyed
    ``("val", i)`` / ``("jac", i, j)``.
    """
    lowering = _Lowering(dimension, specs, ladder=ladder, swap=swap)
    keys: List[Tuple[int, tuple]] = []
    accumulators: List[List[int]] = []
    for s, system_schedules in enumerate(schedules):
        for i, schedule in enumerate(system_schedules):
            keys.append((s, ("val", i)))
            accumulators.append(lowering.addends(schedule.value))
            for j, entries in schedule.jacobian.items():
                keys.append((s, ("jac", i, j)))
                accumulators.append(lowering.addends(entries))
    program = lowering.program(accumulators)
    rows: List[Dict[tuple, int]] = [{} for _ in schedules]
    for (s, key), row in zip(keys, program.accumulator_rows):
        rows[s][key] = row
    return program, rows


@dataclass(frozen=True)
class _RowLayout:
    """Where an execution's returned rows live in the row tensor.

    The accumulators come first, then one zero row per structurally zero
    Jacobian entry (up to ``zero_stop``), then the plan's own rows; a
    tensor has ``total`` rows.  The zero rows -- and the empty
    accumulators just before them -- are re-zeroed every execution, since
    callers may mutate the rows they get.
    """

    total: int
    zero_stop: int
    values: Tuple[int, ...]
    jacobian: Tuple[Tuple[int, ...], ...]
    t_derivative: Tuple[int, ...] = ()


def _jacobian_rows(dimension: int, entry_rows: Dict[tuple, int],
                   first_zero: int) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Row of every Jacobian entry, structural zeros numbered from
    ``first_zero``; returns the rows and the end of the zero block."""
    zero = first_zero
    jacobian = []
    for i in range(dimension):
        row = []
        for j in range(dimension):
            if ("jac", i, j) in entry_rows:
                row.append(entry_rows[("jac", i, j)])
            else:
                row.append(zero)
                zero += 1
        jacobian.append(tuple(row))
    return tuple(jacobian), zero


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class _Tensors:
    """One lane count's plane and row tensors, gather buffers and views.

    Built once per arena sizing; an execution only gathers, computes into
    and reads views of these buffers, so it allocates nothing new.
    """

    def __init__(self, backend: ComplexBatchBackend, program: _Program,
                 layout: _RowLayout, dimension: int, lanes: int):
        def zeros(count: int):
            return backend.zeros((count, lanes))

        self.planes = planes = zeros(program.planes)
        self.rows = rows = zeros(layout.total)
        self.inputs = planes[0:dimension]
        for index, kind, value in program.constants:
            if kind == "full":
                const = backend.full((lanes,), value)
            else:  # "scalar": what ``array * value`` coerces value to
                const = backend.embed_complex128(
                    np.full(lanes, value, dtype=np.complex128))
            backend.copy_into(planes[index], const)

        # Per level: the stacked product's (a, b, out, a index, b index),
        # or None, and one (exponent, base, out, base index) per power group.
        self.levels: List[tuple] = []
        for products, powers in program.levels:
            if products is not None:
                a, b, start, stop = products
                products = (zeros(len(a)), zeros(len(b)), planes[start:stop],
                            a, b)
            self.levels.append((products, [
                (exponent, zeros(len(base)), planes[start:stop], base)
                for exponent, base, start, stop in powers]))

        filled = len(program.seed)
        self.seed = rows[0:filled]
        self.zeros = (rows[filled:layout.zero_stop]
                      if filled < layout.zero_stop else None)
        self.steps = [(zeros(len(addends)), rows[0:len(addends)], addends)
                      for addends in program.steps]
        self.values = [rows[r] for r in layout.values]
        self.jacobian = [[rows[r] for r in row] for row in layout.jacobian]
        self.t_derivative = [rows[r] for r in layout.t_derivative]


class _PlanExecutor:
    """Levelled execution shared by the single-system and homotopy plans.

    One execution copies the points into the plane tensor, then runs level
    by level: gather each level's operands with one ``take`` per operand
    side, one stacked product (and, for ufunc powers, one call per
    exponent).  Accumulation seeds every accumulator with one gather and
    adds the k-th addends of all accumulators with one gather and one
    stacked add per k.  The tensors live in this plan's persistent
    :class:`~repro.multiprec.bufferpool.PlanArena`, built at the first
    execution for a lane count and rebuilt only when the lane count
    changes (lane compression).  Rows handed out of an execution are views
    of the row tensor: valid until the next execution of the same plan,
    which fully overwrites every row it returns.
    """

    backend: ComplexBatchBackend
    dimension: int
    _program: _Program
    _layout: _RowLayout

    def _init_execution_state(self) -> None:
        self._arena = PlanArena()
        self.exec_stats = PlanExecutionStats()

    @property
    def arena(self) -> PlanArena:
        """This plan's persistent buffer arena (hit/miss/resize counters)."""
        return self._arena

    @property
    def levels(self) -> int:
        """Stacked product stages of one execution's plane graph."""
        return len(self._program.levels)

    @property
    def accumulation_steps(self) -> int:
        """Stacked add stages of one execution's accumulation."""
        return len(self._program.steps)

    @staticmethod
    def _flavour(backend: ComplexBatchBackend) -> Dict[str, bool]:
        """How the backend's arrays multiply and raise to powers.

        NumPy arrays raise with one ufunc and keep ``scalar * array`` in
        that order; the multiprecision arrays run the ``**`` ladder and
        evaluate ``scalar * array`` as ``array * scalar``.
        """
        native = isinstance(backend.zeros((0,)), np.ndarray)
        return {"ladder": not native, "swap": not native}

    def _tensors(self, lanes: int):
        self._arena.ensure(lanes)
        return self._arena.slot(("tensors",), lambda: self._bind(lanes))

    def _bind(self, lanes: int):
        return _Tensors(self.backend, self._program, self._layout,
                        self.dimension, lanes)

    def _evaluate(self, points, tensors: _Tensors) -> None:
        """Compute every plane and accumulator row of one execution."""
        backend = self.backend
        planes = tensors.planes
        backend.copy_into(tensors.inputs, points)
        for products, powers in tensors.levels:
            if products is not None:
                a, b, out, a_index, b_index = products
                backend.take_into(a, planes, a_index)
                backend.take_into(b, planes, b_index)
                backend.mul_into(out, a, b)
            for exponent, base, out, base_index in powers:
                # ndarray.__pow__ special-cases exponent 2 as np.square,
                # whose complex product differs in the last bit from
                # npy_cpow: keep the operator's choice.
                backend.take_into(base, planes, base_index)
                if exponent == 2:
                    np.square(base, out=out)
                else:
                    np.power(base, exponent, out=out)
        if len(self._program.seed):
            backend.take_into(tensors.seed, planes, self._program.seed)
        if tensors.zeros is not None:
            backend.zero_into(tensors.zeros)
        for addends, rows, indices in tensors.steps:
            backend.take_into(addends, planes, indices)
            backend.iadd(rows, addends)


class EvaluationPlan(_PlanExecutor):
    """A compiled single-system evaluation schedule.

    Executing the plan is bit-for-bit identical to the reference walk
    :func:`repro.core.reference.walk_evaluate` -- same power chains, same
    sweep, same accumulation order -- while computing every shared plane
    once.

    Attributes
    ----------
    op_counts:
        :class:`PlanOpCounts` of the compiled schedule, per batched
        evaluation.
    statistics:
        Compile-time sharing statistics (unique sweeps, power-table
        entries, shared term planes, ...).
    """

    def __init__(self, system: PolynomialSystem, *,
                 backend: Optional[ComplexBatchBackend] = None,
                 context: NumericContext = DOUBLE):
        if not system.is_square():
            raise ConfigurationError("an evaluation plan needs a square system")
        self.system = system
        self.backend = backend or backend_for_context(context)
        self.dimension = n = system.dimension
        compiler = _Compiler()
        self._schedules = compiler.compile_system(system)
        compiler.finalize()
        self._specs = compiler.specs
        self.op_counts = compiler.op_counts([self._schedules])
        self.statistics = compiler.statistics()
        self._program, (rows,) = _lower(n, self._specs, [self._schedules],
                                        **self._flavour(self.backend))
        jacobian, zero_stop = _jacobian_rows(n, rows,
                                             self._program.accumulators)
        self._layout = _RowLayout(
            total=zero_stop, zero_stop=zero_stop,
            values=tuple(rows[("val", i)] for i in range(n)),
            jacobian=jacobian)
        self._init_execution_state()

    def execute(self, points) -> Tuple[List, List[List]]:
        """Evaluate at an ``(n, B)`` lane batch; returns (values, jacobian).

        The returned rows are views of the plan's row tensor: valid and
        freely mutable until this plan's next ``execute`` call, which
        overwrites them.
        """
        require_lane_batch(points, self.dimension)
        tensors = self._tensors(points.shape[1])
        self._evaluate(points, tensors)
        self.exec_stats.executions += 1
        return list(tensors.values), [list(row) for row in tensors.jacobian]


@dataclass(frozen=True)
class _Blend:
    """The homotopy blend over the row tensor.

    ``g`` / ``f`` gather the start rows (values, entries both systems
    touch, start-only entries) and the target rows (values, both,
    target-only) feeding ``h``; ``h`` is the first row of the blended
    block, laid out values, both, start-only, target-only, with
    ``blended`` rows (values and both) that receive both weighted
    products; ``t`` is the first ``dh/dt`` row.
    """

    g: np.ndarray
    f: np.ndarray
    h: int
    blended: int
    g_only: int
    f_only: int
    t: int


class _BlendTensors:
    """One lane count's gather buffers and row views of the blend."""

    def __init__(self, backend: ComplexBatchBackend, blend: _Blend,
                 rows, dimension: int, lanes: int):
        n = dimension
        self.g = backend.zeros((len(blend.g), lanes))
        self.f = backend.zeros((len(blend.f), lanes))
        h, blended = blend.h, blend.h + blend.blended
        g_stop = blended + blend.g_only
        self.h_g = rows[h:g_stop]
        self.h_both = rows[h:blended]
        self.h_f = rows[g_stop:g_stop + blend.f_only] if blend.f_only else None
        self.g_values = self.g[0:n]
        self.f_values = self.f[0:n]
        self.f_both = self.f[0:blend.blended]
        self.f_only = self.f[blend.blended:] if blend.f_only else None
        self.t = rows[blend.t:blend.t + n]


class HomotopyPlan(_PlanExecutor):
    """A compiled start+target schedule with the fused gamma-trick blend.

    Supports, power tables and term planes are deduplicated across *both*
    systems (a total-degree start system shares most of its monomials with
    the target), and the blend runs over the sparse union of the two
    Jacobian structures as stacked weighted products.

    ``op_counts`` prices one batched homotopy evaluation (both system
    passes plus the blend).
    """

    def __init__(self, start_system: PolynomialSystem,
                 target_system: PolynomialSystem, *,
                 gamma: Optional[complex] = None,
                 backend: Optional[ComplexBatchBackend] = None,
                 context: NumericContext = DOUBLE):
        for system in (start_system, target_system):
            if not system.is_square():
                raise ConfigurationError("a homotopy plan needs square systems")
        if start_system.dimension != target_system.dimension:
            raise ConfigurationError("start and target systems must share a dimension")
        self.start_system = start_system
        self.target_system = target_system
        self.backend = backend or backend_for_context(context)
        self.dimension = target_system.dimension
        self.gamma = None if gamma is None else complex(gamma)

        compiled = self._compile_artifacts(start_system, target_system)
        self._g_schedules = compiled["g_schedules"]
        self._f_schedules = compiled["f_schedules"]
        self._specs = compiled["specs"]
        self.statistics = compiled["statistics"]
        self._jac_union = compiled["jac_union"]
        self.op_counts = compiled["op_counts"]
        flavour = self._flavour(self.backend)
        key = ("lowered", flavour["ladder"], flavour["swap"])
        lowered = compiled.get(key)
        if lowered is None:
            # Read-only like the other artifacts; a racing duplicate
            # lowering is identical and harmless.
            lowered = compiled[key] = self._lower_pair(flavour)
        self._program, self._layout, self._blend = lowered
        self._init_execution_state()

    @staticmethod
    def _compile_artifacts(start_system: PolynomialSystem,
                           target_system: PolynomialSystem) -> Dict[str, object]:
        """Compile the pair, reusing the family-keyed cache.

        The artifacts -- schedules, plane specs, Jacobian union, op counts
        and the per-flavour lowered programs -- are deterministic in the
        two systems' coefficient structure and are strictly read-only at
        execution time, so instances may share them; everything mutable
        (arena, statistics counters) lives in per-instance execution
        state.  This is what lets a parameter-homotopy family compile its
        member plan once and serve every subsequent query from the cache.
        """
        key = (_system_signature(start_system),
               _system_signature(target_system))
        with _COMPILE_CACHE_LOCK:
            cached = _COMPILE_CACHE.get(key)
            if cached is not None:
                _COMPILE_CACHE.move_to_end(key)
                _COMPILE_CACHE_STATS["hits"] += 1
                return cached
            _COMPILE_CACHE_STATS["misses"] += 1

        compiler = _Compiler()
        g_schedules = compiler.compile_system(start_system)
        f_schedules = compiler.compile_system(target_system)
        compiler.finalize()

        # Sparse union of the two Jacobian structures, fixed per system pair.
        n = target_system.dimension
        jac_union: List[List[Tuple[int, bool, bool]]] = []
        for i in range(n):
            g_cols = set(g_schedules[i].jacobian)
            f_cols = set(f_schedules[i].jacobian)
            jac_union.append([(j, j in g_cols, j in f_cols)
                              for j in sorted(g_cols | f_cols)])

        accumulation = compiler.op_counts([g_schedules, f_schedules])
        blend_muls = 2 * n + n  # value rows + dh/dt rows
        blend_adds = n + n
        for union in jac_union:
            for _, has_g, has_f in union:
                blend_muls += 2 if (has_g and has_f) else 1
                blend_adds += 1 if (has_g and has_f) else 0
        compiled = {
            "g_schedules": g_schedules,
            "f_schedules": f_schedules,
            "specs": compiler.specs,
            "statistics": compiler.statistics(),
            "jac_union": jac_union,
            "op_counts": accumulation + PlanOpCounts(blend_muls, blend_adds),
        }
        with _COMPILE_CACHE_LOCK:
            _COMPILE_CACHE[key] = compiled
            _COMPILE_CACHE.move_to_end(key)
            while len(_COMPILE_CACHE) > _COMPILE_CACHE_LIMIT:
                _COMPILE_CACHE.popitem(last=False)
        return compiled

    def _lower_pair(self, flavour: Dict[str, bool]
                    ) -> Tuple[_Program, _RowLayout, _Blend]:
        """Lower the pair and lay out the blend over the row tensor.

        After the accumulators and the zero rows the row tensor holds the
        blended rows ``h`` -- values, Jacobian entries both systems touch,
        start-only, then target-only entries -- and then the ``dh/dt``
        rows, so every stacked blend stage reads and writes contiguous
        blocks.
        """
        n = self.dimension
        program, (g_rows, f_rows) = _lower(
            n, self._specs, [self._g_schedules, self._f_schedules], **flavour)
        both, g_only, f_only = [], [], []
        for i in range(n):
            for j, has_g, has_f in self._jac_union[i]:
                group = both if has_g and has_f else g_only if has_g else f_only
                group.append(("jac", i, j))
        values = [("val", i) for i in range(n)]
        blended = values + both
        h_keys = blended + g_only + f_only
        h = program.accumulators + n * n - len(both + g_only + f_only)
        h_rows = {key: h + offset for offset, key in enumerate(h_keys)}
        jacobian, _ = _jacobian_rows(n, h_rows, program.accumulators)
        t = h + len(h_keys)
        layout = _RowLayout(
            total=t + n, zero_stop=h,
            values=tuple(h_rows[key] for key in values),
            jacobian=jacobian,
            t_derivative=tuple(range(t, t + n)))
        blend = _Blend(
            g=np.array([g_rows[key] for key in blended + g_only], np.intp),
            f=np.array([f_rows[key] for key in blended + f_only], np.intp),
            h=h, blended=len(blended), g_only=len(g_only),
            f_only=len(f_only), t=t)
        return program, layout, blend

    def _bind(self, lanes: int):
        tensors = super()._bind(lanes)
        return tensors, _BlendTensors(self.backend, self._blend, tensors.rows,
                                      self.dimension, lanes)

    def execute(self, points, t: np.ndarray) -> Tuple[List, List[List], List]:
        """Evaluate ``h``, ``dh/dx``, ``dh/dt`` at per-lane parameters ``t``.

        Returns ``(values, jacobian, t_derivative)`` with the same layout
        as :class:`~repro.tracking.homotopy.BatchHomotopyEvaluation`; every
        row is a view of the plan's row tensor, valid until the next
        ``execute``.

        Raises
        ------
        ConfigurationError
            When ``points`` is not an ``(n, B)`` lane batch, or ``t`` is
            not a shape ``(B,)`` array of finite values in ``[0, 1]``.
        """
        if self.gamma is None:
            raise ConfigurationError("this HomotopyPlan was compiled without "
                                     "a gamma; pass one at construction")
        require_lane_batch(points, self.dimension)
        lanes = points.shape[1]
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (lanes,):
            raise ConfigurationError(
                f"expected one continuation parameter per lane, shape "
                f"({lanes},); got shape {t.shape}")
        # NaN fails both comparisons, so it is rejected with the rest.
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ConfigurationError(
                "every continuation parameter must be finite and lie in [0, 1]")
        backend = self.backend
        tensors, blend = self._tensors(lanes)
        self._evaluate(points, tensors)

        # One up-front embedding per execution instead of one inside every
        # blend kernel: ``embed_complex128`` is exactly the coercion the
        # kernels apply to an ndarray operand, so the landed bits are
        # unchanged.
        weight_g = backend.embed_complex128(
            self.gamma * (1.0 - t).astype(np.complex128))
        weight_f = backend.embed_complex128(t.astype(np.complex128))

        backend.take_into(blend.g, tensors.rows, self._blend.g)
        backend.take_into(blend.f, tensors.rows, self._blend.f)
        # dh/dt = f - gamma * g: one stacked product, one stacked subtract.
        backend.copy_into(blend.t, blend.f_values)
        backend.isub_mul(blend.t, blend.g_values, self.gamma)
        # h = weight_g * g + weight_f * f: one stacked product per weight
        # (the walk's operand order, row first) and one stacked add where
        # both systems contribute.  Entries one system touches skip the
        # walk's product of a zeros row by the other weight.
        backend.mul_into(blend.h_g, blend.g, weight_g)
        backend.mul_into(blend.f, blend.f, weight_f)
        backend.iadd(blend.h_both, blend.f_both)
        if blend.f_only is not None:
            backend.copy_into(blend.h_f, blend.f_only)
        self.exec_stats.executions += 1
        return (list(tensors.values), [list(row) for row in tensors.jacobian],
                list(tensors.t_derivative))
