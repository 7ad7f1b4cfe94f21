"""Fused QD/DD arithmetic benchmark: per-op speedups + qd lane throughput.

The fused kernels (see ``repro.multiprec.bufferpool`` and the kernel
sections of ``repro.multiprec.qdarray`` / ``ddarray``) replay the exact
floating-point sequences of the out-of-place chains in
``repro.multiprec.reference`` with a fused NumPy call stream.  This
benchmark reports

* per-operation ns/element, fused vs unfused (the reference chain), across
  batch sizes (the two are bit-for-bit identical, so the ratio is pure
  execution cost);
* end-to-end wall-clock qd ``BatchTracker`` throughput (paths/sec and
  lane-evaluations/sec) at narrow and wide batches, with the speedup over
  the checked-in ``BENCH_batch_tracking.json`` qd baseline.

Run as a script (``python benchmarks/bench_qd_arith.py [--json PATH]``) or
through pytest (``pytest benchmarks/bench_qd_arith.py -s``).
"""

from __future__ import annotations

import argparse
import json

from repro.bench.qd_arith import (
    qd_arith_report,
    run_dd_small_batch_bench,
    run_qd_arith_bench,
    run_qd_tracker_bench,
)
from repro.bench.reporting import format_table

ARITH_BATCHES = (64, 256)
TRACKER_BATCHES = (8, 64)


def sweep(arith_batches=ARITH_BATCHES, tracker_batches=TRACKER_BATCHES):
    arith_rows = run_qd_arith_bench(batch_sizes=arith_batches)
    tracker_rows = run_qd_tracker_bench(batch_sizes=tracker_batches)
    small_rows = run_dd_small_batch_bench()
    return arith_rows, tracker_rows, small_rows


def test_fused_ops_beat_reference():
    """The fused product kernels must stay ahead of the reference chains."""
    rows = run_qd_arith_bench(batch_sizes=(64,), ops=("qd_mul", "cqd_mul"))
    for row in rows:
        assert row.speedup >= 1.3, f"{row.op} fused speedup only {row.speedup:.2f}x"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")
    json_path = parser.parse_args().json

    arith_rows, tracker_rows, small_rows = sweep()
    print(format_table([r.as_dict() for r in arith_rows],
                       title="fused vs unfused qd/dd batch arithmetic"))
    print(format_table([r.as_dict() for r in tracker_rows],
                       title="qd BatchTracker wall-clock throughput (dim 3)"))
    print(format_table([r.as_dict() for r in small_rows],
                       title="dd add/sub fused-vs-reference crossover"))
    report = qd_arith_report(arith_rows, tracker_rows,
                             small_batch_rows=small_rows)
    if "baseline_qd_paths_per_s_wall" in report:
        print(f"-> checked-in qd baseline: "
              f"{report['baseline_qd_paths_per_s_wall']:.3f} paths/s wall")
    if "wall_speedup_vs_baseline_at_batch_64" in report:
        print(f"-> wall speedup vs baseline at batch >= 64: "
              f"{report['wall_speedup_vs_baseline_at_batch_64']:.1f}x")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
