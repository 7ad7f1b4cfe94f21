"""Micro + end-to-end benchmark of the fused QD/DD batch arithmetic.

Two measurements back the fused-kernel work (see
:mod:`repro.multiprec.bufferpool` and the kernels in
:mod:`repro.multiprec.qdarray` / :mod:`repro.multiprec.ddarray`):

1. **Per-op micro-bench** (:func:`run_qd_arith_bench`): each hot operation
   is timed as the product operator (fused) and as the out-of-place chain
   of :mod:`repro.multiprec.reference` (unfused) on the same operands,
   reporting ns/element and the fused speedup.  Both are bit-for-bit
   identical, so this isolates pure execution cost.
2. **End-to-end lane throughput** (:func:`run_qd_tracker_bench`): the
   :class:`~repro.tracking.batch_tracker.BatchTracker` tracks a qd batch of
   the cyclic quadratic benchmark system, reporting wall-clock paths/sec
   and lane-evaluations/sec.  The start set is replicated to fill wide
   batches, so per-lane work stays comparable with the historical
   ``BENCH_batch_tracking.json`` qd rows and the speedup over that
   checked-in baseline is reported directly.

Timings take the best of several repetitions, and the product and reference
repetitions alternate, so both arms see the same machine load; the speedup
ratios are then stable enough for the regression assertion in
``tests/bench`` even on a shared host.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..multiprec import reference
from ..multiprec.bufferpool import DD_ADDSUB_FUSED_MIN_ELEMENTS
from ..multiprec.ddarray import DDArray, _dd_addsub_fused
from ..multiprec.eft import two_diff_into, two_sum_into
from ..multiprec.numeric import QUAD_DOUBLE
from ..multiprec.qdarray import ComplexQDArray, QDArray
from ..tracking.batch_tracker import BatchTracker
from ..tracking.start_systems import start_solutions, total_degree_start_system
from .batch_tracking import cyclic_quadratic_system

__all__ = [
    "QDArithRow",
    "QDTrackerRow",
    "baseline_qd_wall_paths_per_second",
    "qd_arith_report",
    "run_dd_small_batch_bench",
    "run_qd_arith_bench",
    "run_qd_tracker_bench",
]


@dataclass
class QDArithRow:
    """One (operation, batch size) cell of the micro-bench."""

    op: str
    batch: int
    fused_ns_per_element: float
    unfused_ns_per_element: float

    @property
    def speedup(self) -> float:
        if self.fused_ns_per_element == 0.0:
            return float("inf")
        return self.unfused_ns_per_element / self.fused_ns_per_element

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "batch": self.batch,
            "fused_ns_per_elem": self.fused_ns_per_element,
            "unfused_ns_per_elem": self.unfused_ns_per_element,
            "speedup": self.speedup,
        }


@dataclass
class QDTrackerRow:
    """One batch size of the end-to-end qd tracking sweep."""

    batch_size: int
    paths_tracked: int
    paths_converged: int
    lane_evaluations: int
    wall_seconds: float

    @property
    def paths_per_second(self) -> float:
        return self.paths_tracked / self.wall_seconds if self.wall_seconds else float("inf")

    @property
    def lane_evaluations_per_second(self) -> float:
        return self.lane_evaluations / self.wall_seconds if self.wall_seconds else float("inf")

    def as_dict(self) -> Dict[str, object]:
        return {
            "batch": self.batch_size,
            "paths": self.paths_tracked,
            "converged": self.paths_converged,
            "lane_evals": self.lane_evaluations,
            "wall_s": self.wall_seconds,
            "paths_per_s_wall": self.paths_per_second,
            "lane_evals_per_s": self.lane_evaluations_per_second,
        }


def _rand_qd(size: int, seed: int) -> QDArray:
    rng = np.random.default_rng(seed)
    full = QDArray.from_float64(rng.normal(size=size))
    for scale in (1e-17, 1e-34, 1e-51):
        full = full + QDArray.from_float64(rng.normal(size=size) * scale)
    return full


def _rand_dd(size: int, seed: int) -> DDArray:
    rng = np.random.default_rng(seed)
    return DDArray(rng.normal(size=size), rng.normal(size=size) * 1e-17)


def _best_seconds(op: Callable[[], object], repeats: int, inner: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        for _ in range(inner):
            op()
        best = min(best, (time.perf_counter() - began) / inner)
    return best


def _best_interleaved(product: Callable[[], object],
                      reference_op: Callable[[], object],
                      repeats: int, inner: int) -> Tuple[float, float]:
    """Best-of-``repeats`` seconds per call of ``product`` and ``reference_op``.

    The two arms alternate repetition by repetition instead of running as
    two blocks, so a burst of load from elsewhere on the host slows both
    arms rather than only one, and does not skew their ratio.
    """
    arms = (product, reference_op)
    for op in arms:
        op()  # warm scratch stacks / compile outside the timed region
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for i, op in enumerate(arms):
            best[i] = min(best[i], _best_seconds(op, 1, inner))
    return best[0], best[1]


def _operations(batch: int) -> Dict[str, Tuple[Callable[[], object],
                                               Callable[[], object]]]:
    """Each op's (product, reference) arms on shared operands."""
    a = _rand_qd(batch, 1)
    b = _rand_qd(batch, 2)
    ca = ComplexQDArray(_rand_qd(batch, 3), _rand_qd(batch, 4))
    cb = ComplexQDArray(_rand_qd(batch, 5), _rand_qd(batch, 6))
    da = _rand_dd(batch, 7)
    db = _rand_dd(batch, 8)
    return {
        "qd_add": (lambda: a + b, lambda: reference.qd_add(a, b)),
        "qd_mul": (lambda: a * b, lambda: reference.qd_mul(a, b)),
        "qd_div": (lambda: a / b, lambda: reference.qd_div(a, b)),
        "cqd_mul": (lambda: ca * cb, lambda: reference.complex_qd_mul(ca, cb)),
        "dd_mul": (lambda: da * db, lambda: reference.dd_mul(da, db)),
    }


def run_qd_arith_bench(batch_sizes: Sequence[int] = (64, 256),
                       ops: Optional[Sequence[str]] = None,
                       repeats: int = 5) -> List[QDArithRow]:
    """Time each hot operation against its reference chain; best-of-``repeats``,
    interleaved."""
    rows: List[QDArithRow] = []
    for batch in batch_sizes:
        operations = _operations(int(batch))
        for name, (product, reference_op) in operations.items():
            if ops is not None and name not in ops:
                continue
            inner = max(3, min(50, 20000 // int(batch)))
            fused, unfused = _best_interleaved(product, reference_op,
                                              repeats, inner)
            rows.append(QDArithRow(
                op=name,
                batch=int(batch),
                fused_ns_per_element=fused / batch * 1e9,
                unfused_ns_per_element=unfused / batch * 1e9,
            ))
    return rows


def run_dd_small_batch_bench(batch_sizes: Sequence[int] = (8, 64, 256, 1024, 4096, 16384),
                             repeats: int = 5) -> List[QDArithRow]:
    """Fused-vs-reference dd add/sub across batch sizes, crossover finder.

    The dd addition chain has no Dekker splits to share, so its fused
    variant only repackages the same two_sum sequence behind scratch-plane
    bookkeeping -- a fixed cost that dominates tiny batches.  This sweep
    times the fused kernel itself (the operators' size gate would hand
    small batches to the chain) against the :mod:`repro.multiprec.
    reference` chain to measure where the fused kernel actually starts
    winning; the measured rows and the production threshold
    (:data:`repro.multiprec.bufferpool.DD_ADDSUB_FUSED_MIN_ELEMENTS`, below
    which the operators run the plain chain) are
    recorded in the ``small_batch`` section of ``BENCH_qd_arith.json``.
    """
    rows: List[QDArithRow] = []
    for batch in batch_sizes:
        batch = int(batch)
        da = _rand_dd(batch, 21)
        db = _rand_dd(batch, 22)
        x, y = (da.hi, da.lo), (db.hi, db.lo)
        arms = (("dd_add", two_sum_into, reference.dd_add),
                ("dd_sub", two_diff_into, reference.dd_sub))
        for name, two_into, reference_op in arms:
            inner = max(3, min(200, 50000 // batch))
            fused, unfused = _best_interleaved(
                lambda: _dd_addsub_fused(x, y, two_into),
                lambda: reference_op(da, db), repeats, inner)
            rows.append(QDArithRow(
                op=name,
                batch=batch,
                fused_ns_per_element=fused / batch * 1e9,
                unfused_ns_per_element=unfused / batch * 1e9,
            ))
    return rows


def run_qd_tracker_bench(batch_sizes: Sequence[int] = (8, 64),
                         dimension: int = 3) -> List[QDTrackerRow]:
    """Wall-clock qd tracking throughput, start set replicated per batch.

    Every row tracks ``batch_size`` lanes of the same cyclic quadratic
    paths (the ``2^dimension`` distinct start solutions, repeated), so the
    per-lane work profile matches the historical qd rows of
    ``BENCH_batch_tracking.json`` and wall-clock paths/sec are directly
    comparable across batch sizes and PRs.
    """
    target = cyclic_quadratic_system(dimension)
    start = total_degree_start_system(target)
    starts = list(start_solutions(target))

    rows: List[QDTrackerRow] = []
    for batch_size in batch_sizes:
        batch_size = int(batch_size)
        replicated = (starts * ((batch_size + len(starts) - 1) // len(starts)))
        replicated = replicated[:max(batch_size, len(starts))]
        tracker = BatchTracker(start, target, context=QUAD_DOUBLE,
                               batch_size=batch_size)
        began = time.perf_counter()
        outcome = tracker.track_batches(replicated)
        wall = time.perf_counter() - began
        rows.append(QDTrackerRow(
            batch_size=batch_size,
            paths_tracked=len(replicated),
            paths_converged=outcome.paths_converged,
            lane_evaluations=outcome.lane_evaluations,
            wall_seconds=wall,
        ))
    return rows


def baseline_qd_wall_paths_per_second(path="BENCH_batch_tracking.json"
                                      ) -> Optional[float]:
    """Best historical qd wall-clock paths/sec from the checked-in sweep.

    Returns ``None`` when the file (or its qd section) is missing, so the
    report degrades gracefully on fresh checkouts.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        rows = report["qd"]["rows"]
        return max(row["paths"] / row["wall_s"] for row in rows if row["wall_s"])
    except (OSError, KeyError, ValueError, ZeroDivisionError):
        return None


def qd_arith_report(arith_rows: Sequence[QDArithRow],
                    tracker_rows: Sequence[QDTrackerRow],
                    baseline_path: str = "BENCH_batch_tracking.json",
                    small_batch_rows: Optional[Sequence[QDArithRow]] = None) -> Dict:
    """Assemble the ``BENCH_qd_arith.json`` payload."""
    baseline = baseline_qd_wall_paths_per_second(baseline_path)
    wide = [r for r in tracker_rows if r.batch_size >= 64]
    best_wide = max((r.paths_per_second for r in wide), default=None)
    report: Dict = {
        "per_op": [row.as_dict() for row in arith_rows],
        "tracker": [row.as_dict() for row in tracker_rows],
    }
    if small_batch_rows is not None:
        report["small_batch"] = {
            "rows": [row.as_dict() for row in small_batch_rows],
            "dd_addsub_fused_min_elements": DD_ADDSUB_FUSED_MIN_ELEMENTS,
        }
    if baseline is not None:
        report["baseline_qd_paths_per_s_wall"] = baseline
        if best_wide is not None:
            report["wall_speedup_vs_baseline_at_batch_64"] = best_wide / baseline
    return report
