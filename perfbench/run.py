"""The repository benchmark: closed-loop solve workloads end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload d-registry --seed 1 --seconds 35 --trace 0

``--trace 0`` measures whole rotations of the workload for about
``--seconds`` seconds and prints the end-to-end metrics, each time rescaled
to the reference host's speed (see ``hostspeed.py``) with the raw figure
beside it.  ``--trace 1`` solves a fixed, seed-determined list of jobs
twice, untraced and then with every layer wrapped (see ``layertrace.py``),
and prints the per-layer metrics; its counts repeat exactly for one seed.
``--workload all`` runs the four workloads one after another, each in its
own process; ``BENCHMARK.json`` lists three of them (see README.md).

Every answer is checked (root count and an independent residual).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from metrics import PER_LAYER, SELF_COVERAGE_TOLERANCE

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("d-registry", "xprec-fixed", "escalate-divergent",
             "service-pool")

#: Timed set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5


def peak_rss_mib(pids: List[int]) -> float:
    """Peak resident set (VmHWM) of this process plus ``pids``, in MiB."""
    total_kib = 0
    for pid in ["self"] + [str(p) for p in pids]:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def tail(walls: List[float], percentile: int) -> float:
    if percentile >= 100 or len(walls) < 2:
        return max(walls)
    return statistics.quantiles(walls, n=100, method="inclusive")[
        percentile - 1]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def report_failures(samples: list) -> int:
    failed = [s for s in samples if s.error is not None]
    for sample in failed:
        print(f"FAILED {sample.label}: {sample.error}", file=sys.stderr)
    return len(failed)


def timings(walls: List[float], paths: int, percentile: int
            ) -> Dict[str, float]:
    return {"paths_per_s": paths / sum(walls),
            "solve_s_p50": statistics.median(walls),
            "solve_s_tail": tail(walls, percentile)}


def end_to_end(workload, samples: list, setup_s: float, raw_setup_s: float,
               rss_mib: float, rss_solves: int
               ) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, every time at the reference host's speed;
    the raw walls are printed beside them."""
    walls = [s.scaled_wall for s in samples]
    paths = sum(s.paths for s in samples)
    percentile = workload.tail_percentile
    scaled = timings(walls, paths, percentile)
    raw = timings([s.wall for s in samples], paths, percentile)
    beyond = sum(1 for w in walls if w > scaled["solve_s_tail"])
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "paths_per_s": metric(scaled["paths_per_s"], "paths/s"),
        "solve_s_p50": metric(scaled["solve_s_p50"], "s"),
        "solve_s_tail": metric(scaled["solve_s_tail"], "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    notes = {name: f" (raw {value:.6g})" for name, value in raw.items()}
    notes["setup_s"] = f" (raw {raw_setup_s:.6g})"
    notes["peak_rss_mib"] = f" (after the first {rss_solves} solves)"
    for name, entry in metrics.items():
        print(f"{name:<18} {entry['value']:.6g} {entry['unit']}"
              f"{notes[name]}")
    speeds = [s.speed for s in samples]
    print(f"{'':<18} host speed {statistics.median(speeds):.3f} of the "
          f"reference host (median; {min(speeds):.3f} to {max(speeds):.3f})")
    by_label: Dict[str, List[float]] = {}
    for sample in samples:
        by_label.setdefault(sample.label, []).append(sample.scaled_wall)
    for label, label_walls in sorted(by_label.items()):
        print(f"{'':<18} {label}: median {statistics.median(label_walls):.4g}"
              f" s over {len(label_walls)} solves")
    note = ("" if beyond >= 10 else
            "; fewer than 10 beyond at this run length")
    print(f"{'':<18} tail is p{percentile} of {len(walls)} solves, "
          f"{beyond} beyond" + note)
    return metrics


def traced_metrics(tracer, untraced: list, traced: list,
                   cache_delta: Dict[str, int], family_delta: Dict[str, int]
                   ) -> Dict[str, float]:
    """Per-layer values; the tracing overhead compares the two passes at the
    reference host's speed, the self-time coverage uses the raw traced wall."""
    untraced_s = sum(s.scaled_wall for s in untraced)
    overhead_s = sum(s.scaled_wall for s in traced) - untraced_s
    traced_s = sum(s.wall for s in traced)
    counts, busy, own = tracer.counts, tracer.busy_s, tracer.self_s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {
        "core.evalplan.calls": counts["core.evalplan.calls"],
        "core.evalplan.busy_s": busy["core.evalplan"],
        "core.evalplan.lanes_per_call": ratio(counts["core.evalplan.lanes"],
                                              counts["core.evalplan.calls"]),
        "core.evalplan.mp_ops": counts["core.evalplan.mp_ops"],
        "core.evalplan.step_cache_hits": counts["core.evalplan.step_cache_hits"],
        "core.evalplan.step_cache_misses":
            counts["core.evalplan.step_cache_misses"],
        "core.evalplan.compile_cache_hits": cache_delta["hits"],
        "core.evalplan.compile_cache_misses": cache_delta["misses"],
        "tracking.batch_linsolve.calls": counts["tracking.batch_linsolve.calls"],
        "tracking.batch_linsolve.busy_s": busy["tracking.batch_linsolve"],
        "tracking.batch_linsolve.singular_lanes":
            counts["tracking.batch_linsolve.singular_lanes"],
        "multiprec.backend.calls": counts["multiprec.backend.calls"],
        "multiprec.backend.calls_per_newton_iteration":
            ratio(counts["multiprec.backend.calls"],
                  counts["tracking.newton.iterations"]),
        "multiprec.backend.convert_calls":
            counts["multiprec.backend.convert_calls"],
        "tracking.newton.calls": counts["tracking.newton.calls"],
        "tracking.newton.self_s": own["tracking.newton"],
        "tracking.newton.iterations": counts["tracking.newton.iterations"],
        "tracking.newton.converged_ratio":
            ratio(counts["tracking.newton.converged"],
                  counts["tracking.newton.lanes"]),
        "tracking.newton.endgame_s": busy["tracking.newton.endgame"],
        "tracking.predictor.calls": counts["tracking.predictor.calls"],
        "tracking.predictor.self_s": own["tracking.predictor"],
        "tracking.batch_tracker.calls": counts["tracking.batch_tracker.calls"],
        "tracking.batch_tracker.self_s": own["tracking.batch_tracker"],
        "tracking.batch_tracker.rounds": counts["tracking.batch_tracker.rounds"],
        "tracking.batch_tracker.batched_evals":
            counts["tracking.batch_tracker.batched_evals"],
        "tracking.batch_tracker.lane_evals":
            counts["tracking.batch_tracker.lane_evals"],
        "tracking.escalation.escalated_paths":
            counts["tracking.escalation.escalated_paths"],
        "tracking.escalation.recovered": counts["tracking.escalation.recovered"],
        "tracking.escalation.recovery_ratio":
            ratio(counts["tracking.escalation.recovered"],
                  counts["tracking.escalation.escalated_paths"]),
        "tracking.escalation.wide_rung_s": busy["tracking.escalation.wide_rung"],
        "tracking.start_systems.busy_s": busy["tracking.start_systems"],
        "tracking.solver.self_s": own["tracking.solver"],
        "service.queue.wait_s": busy["service.queue"],
        "service.sharded.busy_s": busy["service.sharded"],
        "service.sharded.worker_retries":
            counts["service.sharded.worker_retries"],
        "service.store.puts": counts["service.store.puts"],
        "service.store.gets": counts["service.store.gets"],
        "service.store.bytes": counts["service.store.bytes"],
        "service.store.busy_s": busy["service.store"],
        "tracking.parameter.cold_solves": family_delta["cold_solves"],
        "tracking.parameter.warm_serves": family_delta["warm_serves"],
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": ratio(overhead_s, untraced_s),
        "trace.self_coverage": ratio(sum(own.values()), traced_s),
    }
    coverage = values["trace.self_coverage"]
    verdict = ("within" if abs(coverage - 1.0) <= SELF_COVERAGE_TOLERANCE
               else "OUTSIDE")
    print(f"layer self times cover {coverage:.4f} of the traced solve wall, "
          f"{verdict} the stated tolerance of 1 +- {SELF_COVERAGE_TOLERANCE}")
    print(f"tracing overhead {values['trace.overhead_s']:.4g} s over "
          f"{untraced_s:.4g} s untraced (both rescaled)")
    return values


def traced_pass(workload, rng: random.Random):
    """Solve a fixed job list untraced, then again traced; returns the
    samples of both passes and the per-layer metric values."""
    import workloads
    from hostspeed import SpeedSampler
    from layertrace import Tracer
    from repro.core.evalplan import homotopy_compile_cache_stats

    jobs = [job for _ in range(workload.trace_rotations)
            for job in workload.rotation(rng)]
    tracer = Tracer()
    with SpeedSampler() as sampler:
        untraced = [workloads.run_one(workload, job) for job in jobs]
        cache_before = homotopy_compile_cache_stats()
        family_before = workload.family_stats()
        installation = workload.attach(tracer)
        try:
            traced = [workloads.run_one(workload, job, tracer) for job in jobs]
        finally:
            workload.detach(installation)
    sampler.rescale(untraced + traced)
    cache_after = homotopy_compile_cache_stats()
    family_after = workload.family_stats()
    values = traced_metrics(
        tracer, untraced, traced,
        {k: cache_after[k] - cache_before[k] for k in ("hits", "misses")},
        {k: family_after[k] - family_before[k]
         for k in ("cold_solves", "warm_serves")})
    return untraced + traced, values


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from the root of "
              f"a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_begin = time.perf_counter()
    import workloads
    from hostspeed import SpeedSampler
    import_s = time.perf_counter() - import_begin

    rng = random.Random(args.seed)
    workload = workloads.make_workload(args.workload, ROOT,
                                       traced=bool(args.trace))
    print(f"workload {args.workload}: seed {args.seed}, closed loop, "
          f"1 client, trace {args.trace}")
    try:
        intervals = []
        with SpeedSampler() as sampler:
            for _ in range(SETUP_REPEATS):
                begin = time.perf_counter()
                workload.setup(rng)
                intervals.append((begin, time.perf_counter()))
        raw_setups = [end - begin for begin, end in intervals]
        speeds = [sampler.speed(begin, end) for begin, end in intervals]
        raw_setup_s = import_s + statistics.median(raw_setups)
        # the import ran before sampling began: rescale it by the set-ups'
        setup_s = statistics.median(speeds) * import_s + statistics.median(
            raw * speed for raw, speed in zip(raw_setups, speeds))

        if not args.trace:
            with SpeedSampler() as sampler:
                samples, rss_mib, rss_solves = workloads.measure(
                    workload, rng, args.seconds,
                    lambda: peak_rss_mib(workload.worker_pids()))
            sampler.rescale(samples)
            failed = report_failures(samples)
            print(f"{'solve_error_frac':<18} {failed / len(samples):.6g} "
                  f"({failed} of {len(samples)} solves failed)")
            metrics = end_to_end(workload, samples, setup_s, raw_setup_s,
                                 rss_mib, rss_solves)
        else:
            samples, values = traced_pass(workload, rng)
            failed = report_failures(samples)
            metrics = {}
            for entry in PER_LAYER:
                value = values[entry.name]
                metrics[entry.name] = metric(value, entry.unit)
                print(f"{entry.name:<45} {value:<12.6g} {entry.unit:<10} "
                      f"moves {entry.moves}")
    finally:
        workload.close()
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
