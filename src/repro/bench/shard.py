"""Benchmark of the sharded solve service (:mod:`repro.service.sharded`).

The workload is the escalation benchmark's: every path of the cyclic
quadratic system is tracked with an end tolerance at the double-precision
roundoff floor, so part of the batch escalates from ``d`` to ``dd``.  The
bench solves it once single-process (:func:`~repro.tracking.solver.
solve_system`, the reference) and then through
:func:`~repro.service.sharded.solve_system_sharded` at a sweep of worker
counts, measuring end-to-end wall-clock (process-pool startup included --
that *is* the cost of the service) and paths per second, and verifying the
service's contract on every run: the distinct solutions must be
**bit-for-bit identical** to the reference.

A final crash run injects a worker kill mid-``dd``-rung
(:class:`~repro.service.sharded.FaultInjection`) and checks that the
recovery -- reschedule, resume from the persisted checkpoints -- still
reproduces the reference exactly, while the report's ``worker_retries`` /
``resumed_after_crash`` counters show the crash actually happened.

At benchmark sizes the sharded runs are *slower* than single-process --
forking a pool and pickling systems costs far more than 16 paths of
tracking.  The point of the sweep is not a speedup curve but the measured
price of crash tolerance; the bench asserts correctness invariants, not
scaling ones.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..multiprec.numeric import DOUBLE, DOUBLE_DOUBLE, NumericContext
from ..service.backoff import BackoffPolicy
from ..service.sharded import FAULT_MODES, FaultInjection, solve_system_sharded
from ..service.workerpool import WorkerPool
from ..tracking.solver import EscalationPolicy, SolveReport, solve_system
from ..tracking.tracker import TrackerOptions
from .batch_tracking import cyclic_quadratic_system

__all__ = ["ShardRow", "ShardSummary", "run_robustness_bench",
           "run_shard_bench", "run_scenario_shard_bench"]

#: Reschedule crashed shards at once: the drills time recovery, not waits.
_NO_BACKOFF = BackoffPolicy(base=0.0)


@dataclass
class ShardRow:
    """One configuration of the sweep (reference, a worker count, or the
    crash drill)."""

    configuration: str
    shards: int
    workers: int
    wall_seconds: float
    paths_per_second: float
    solutions: int
    identical_to_reference: bool
    worker_retries: int = 0
    resumed_after_crash: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "configuration": self.configuration,
            "shards": self.shards,
            "workers": self.workers,
            "wall_s": self.wall_seconds,
            "paths_per_s": self.paths_per_second,
            "solutions": self.solutions,
            "identical": self.identical_to_reference,
            "retries": self.worker_retries,
            "resumed_after_crash": self.resumed_after_crash,
        }


@dataclass
class ShardSummary:
    """Outcome of the shard sweep: one row per configuration."""

    rows: List[ShardRow]
    paths_total: int
    dimension: int
    end_tolerance: float
    ladder: List[str]

    @property
    def all_identical(self) -> bool:
        """Whether every sharded run (crash run included) reproduced the
        single-process solutions bit for bit."""
        return all(row.identical_to_reference for row in self.rows)

    @property
    def crash_row(self) -> Optional[ShardRow]:
        for row in self.rows:
            if row.configuration == "crash":
                return row
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "paths_total": self.paths_total,
            "dimension": self.dimension,
            "end_tolerance": self.end_tolerance,
            "ladder": list(self.ladder),
            "all_identical": self.all_identical,
        }


def _solution_key(report: SolveReport) -> List[Tuple]:
    """The bit-for-bit comparison key: every distinct solution's exact
    coordinates, residual and multiplicity, in discovery order."""
    return [(tuple(solution.point), solution.residual, solution.multiplicity)
            for solution in report.solutions]


def run_shard_bench(dimension: int = 4,
                    worker_counts: Sequence[int] = (1, 2, 4),
                    ladder: Sequence[NumericContext] = (DOUBLE, DOUBLE_DOUBLE),
                    end_tolerance: float = 5e-17,
                    crash_kill_after_rounds: int = 0,
                    options: Optional[TrackerOptions] = None) -> ShardSummary:
    """Run the shard sweep (see the module docstring).

    Raises
    ------
    ConfigurationError
        When ``worker_counts`` is empty.
    """
    if not worker_counts:
        raise ConfigurationError("the shard bench needs at least one "
                                 "worker count")
    system = cyclic_quadratic_system(dimension)
    opts = options or TrackerOptions(end_tolerance=end_tolerance,
                                     end_iterations=12)
    policy = EscalationPolicy(ladder=tuple(ladder))

    begin = time.perf_counter()
    reference = solve_system(system, options=opts, escalation=policy)
    reference_wall = time.perf_counter() - begin
    reference_key = _solution_key(reference)
    paths = reference.paths_tracked

    rows = [ShardRow(
        configuration="single-process",
        shards=1,
        workers=0,
        wall_seconds=reference_wall,
        paths_per_second=(paths / reference_wall if reference_wall
                          else float("inf")),
        solutions=len(reference.solutions),
        identical_to_reference=True,
    )]

    def timed(configuration: str, workers: int,
              fault: Optional[FaultInjection] = None) -> ShardRow:
        begin = time.perf_counter()
        report = solve_system_sharded(
            system, shards=workers, max_workers=workers, options=opts,
            escalation=policy, fault_injection=fault, backoff=_NO_BACKOFF)
        wall = time.perf_counter() - begin
        return ShardRow(
            configuration=configuration,
            shards=report.shards,
            workers=workers,
            wall_seconds=wall,
            paths_per_second=paths / wall if wall else float("inf"),
            solutions=len(report.solutions),
            identical_to_reference=_solution_key(report) == reference_key,
            worker_retries=report.worker_retries,
            resumed_after_crash=report.resumed_after_crash,
        )

    for workers in worker_counts:
        rows.append(timed(f"sharded x{workers}", workers))

    # The crash drill: kill shard 0's worker on entry to the escalated
    # rung, forcing a reschedule that resumes from persisted checkpoints.
    crash_level = 1 if len(policy.ladder) > 1 else 0
    rows.append(timed("crash", max(2, min(worker_counts)), FaultInjection(
        shard=0, level=crash_level,
        kill_after_rounds=crash_kill_after_rounds)))

    return ShardSummary(
        rows=rows,
        paths_total=paths,
        dimension=system.dimension,
        end_tolerance=opts.end_tolerance,
        ladder=[ctx.name for ctx in policy.ladder],
    )


def _timed_best(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall seconds -- the same protocol for every arm
    of a comparison, so noise on a loaded box cannot favour either side."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


#: Candidate (scenario, shards, batch_size) rows for the persistent-pool
#: comparison: explicit chunking makes the single-process arm run its
#: sub-batches sequentially while the pool's workers run theirs
#: concurrently -- the configuration where worker parallelism can pay.
_PERSISTENT_CANDIDATES = (("cyclic-4", 2, 4), ("katsura-3", 2, 4),
                          ("noon-2", 2, 4))


def run_robustness_bench(dimension: int = 4,
                         workers: int = 2,
                         ladder: Sequence[NumericContext] = (DOUBLE,
                                                             DOUBLE_DOUBLE),
                         end_tolerance: float = 5e-17,
                         heartbeat_timeout: float = 0.3,
                         repeats: int = 3,
                         options: Optional[TrackerOptions] = None
                         ) -> Dict[str, object]:
    """Measure the supervised runtime's robustness costs.

    Three sub-reports:

    ``modes``
        Every :data:`~repro.service.sharded.FAULT_MODES` drill on a *warm*
        persistent pool: recovery wall-clock overhead versus the clean
        sharded solve, plus the per-mode contract verdict (bit-for-bit
        identical, or an explicitly recorded degradation).
    ``dispatch``
        The per-solve dispatch tax: the same solve through a fresh pool
        (fork + system pickle + plan compile every time -- what the
        service paid before persistent workers) versus warm persistent
        workers.
    ``persistent``
        The best registered-scenario configuration for ``workers``
        persistent workers versus single-process wall-clock, both arms
        measured best-of-``repeats`` under identical protocol.  The
        recorded ``cpus`` is load-bearing: with one schedulable CPU there
        is no parallel capacity and ``beats_single`` reflects amortisation
        alone, so the bench gate (``tools/check_bench.py``) falls back to
        requiring the fresh-pool win instead.
    """
    from .scenarios import get_scenario

    system = cyclic_quadratic_system(dimension)
    opts = options or TrackerOptions(end_tolerance=end_tolerance,
                                     end_iterations=12)
    policy = EscalationPolicy(ladder=tuple(ladder))
    reference = solve_system(system, options=opts, escalation=policy)
    reference_key = _solution_key(reference)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1

    def sharded(pool, fault=None, **extra):
        return solve_system_sharded(
            system, shards=workers, options=opts, escalation=policy,
            pool=pool, backoff=_NO_BACKOFF, fault_injection=fault,
            heartbeat_timeout=heartbeat_timeout, **extra)

    report: Dict[str, object] = {"cpus": cpus, "workers": int(workers)}
    with WorkerPool(workers=workers) as pool:
        sharded(pool)  # warm the workers: ship systems, compile plans
        begin = time.perf_counter()
        sharded(pool)
        clean_wall = time.perf_counter() - begin
        report["clean_wall_s"] = clean_wall

        modes: Dict[str, Dict[str, object]] = {}
        drills = {
            "kill": FaultInjection(shard=0, level=1, kill_after_rounds=0),
            "hang": FaultInjection(shard=0, level=1, kill_after_rounds=0,
                                   mode="hang", delay_seconds=3.0),
            "slow": FaultInjection(shard=0, level=1, kill_after_rounds=0,
                                   mode="slow", delay_seconds=0.02),
            "corrupt-checkpoint": FaultInjection(
                shard=0, level=1, kill_after_rounds=0,
                mode="corrupt-checkpoint"),
            "store-io-error": FaultInjection(
                shard=0, level=1, kill_after_rounds=0,
                mode="store-io-error"),
        }
        assert set(drills) == set(FAULT_MODES)
        for mode in FAULT_MODES:
            begin = time.perf_counter()
            drilled = sharded(pool, fault=drills[mode])
            wall = time.perf_counter() - begin
            identical = _solution_key(drilled) == reference_key
            modes[mode] = {
                "wall_s": wall,
                "overhead_vs_clean": wall / clean_wall if clean_wall
                else float("inf"),
                "identical": identical,
                "degradations": len(drilled.degradations),
                "retries": drilled.worker_retries,
                "hangs_detected": drilled.hangs_detected,
                "cold_restarts": drilled.cold_restarts_after_corruption,
                # The chaos contract: exact, or explicitly degraded.
                "recovered": identical or bool(drilled.degradations),
            }
        report["modes"] = modes

    # -- dispatch tax: fresh pool per solve vs persistent workers --------
    # Measured on a small registered scenario, where the per-solve tax
    # (fork, system pickle, tracker construction) is not drowned out by
    # tracking work, and on a clean pool the drills have not battered.
    dispatch_system = get_scenario("speelpenning-2").build_system()
    fresh_wall = _timed_best(
        lambda: solve_system_sharded(dispatch_system, shards=workers,
                                     max_workers=workers,
                                     backoff=_NO_BACKOFF),
        repeats)
    with WorkerPool(workers=workers) as dispatch_pool:
        solve_system_sharded(dispatch_system, shards=workers,
                             pool=dispatch_pool, backoff=_NO_BACKOFF)
        persistent_wall = _timed_best(
            lambda: solve_system_sharded(dispatch_system, shards=workers,
                                         pool=dispatch_pool,
                                         backoff=_NO_BACKOFF),
            repeats)
    report["dispatch"] = {
        "scenario": "speelpenning-2",
        "fresh_wall_s": fresh_wall,
        "persistent_wall_s": persistent_wall,
        "persistent_speedup_vs_fresh": (fresh_wall / persistent_wall
                                        if persistent_wall
                                        else float("inf")),
    }

    # -- persistent workers vs single-process, best registered scenario --
    best_row: Optional[Dict[str, object]] = None
    for name, shards, chunk in _PERSISTENT_CANDIDATES:
        scenario_system = get_scenario(name).build_system()
        single_wall = _timed_best(
            lambda: solve_system(scenario_system, options=opts,
                                 escalation=policy, batch_size=chunk),
            repeats)
        with WorkerPool(workers=workers) as pool:
            def persistent_solve():
                return solve_system_sharded(
                    scenario_system, shards=shards, pool=pool,
                    options=opts, escalation=policy, batch_size=chunk,
                    backoff=_NO_BACKOFF)
            last = persistent_solve()  # warm the pool before timing
            persistent_wall = _timed_best(persistent_solve, repeats)
        single_ref = solve_system(scenario_system, options=opts,
                                  escalation=policy, batch_size=chunk)
        row = {
            "scenario": name,
            "workers": int(workers),
            "shards": int(shards),
            "batch_size": int(chunk),
            "single_wall_s": single_wall,
            "persistent_wall_s": persistent_wall,
            "speedup_vs_single": (single_wall / persistent_wall
                                  if persistent_wall else float("inf")),
            "beats_single": single_wall > persistent_wall,
            "identical": _solution_key(last) == _solution_key(single_ref),
        }
        if best_row is None or row["speedup_vs_single"] > \
                best_row["speedup_vs_single"]:
            best_row = row
    report["persistent"] = best_row
    return report


def run_scenario_shard_bench(scenarios=None, workers: int = 2,
                             ladder: Sequence[NumericContext] = (
                                 DOUBLE, DOUBLE_DOUBLE),
                             end_tolerance: float = 5e-17,
                             options: Optional[TrackerOptions] = None,
                             ) -> Dict[str, Dict[str, object]]:
    """Sweep the scenario registry through the sharded service.

    Per scenario (defaults to
    :func:`repro.bench.scenarios.bench_scenarios`): the single-process
    reference solve and one sharded solve at ``workers`` workers, with the
    service's contract verified on every shape -- the distinct solutions
    must be **bit-for-bit identical** to the reference, and their count
    must equal the classically known root count.
    """
    from .scenarios import bench_scenarios

    opts = options or TrackerOptions(end_tolerance=end_tolerance,
                                     end_iterations=12)
    policy = EscalationPolicy(ladder=tuple(ladder))
    matrix: Dict[str, Dict[str, object]] = {}
    for scenario in (scenarios if scenarios is not None
                     else bench_scenarios()):
        system = scenario.build_system()
        begin = time.perf_counter()
        reference = solve_system(system, options=opts, escalation=policy)
        reference_wall = time.perf_counter() - begin
        begin = time.perf_counter()
        sharded = solve_system_sharded(
            system, shards=workers, max_workers=workers, options=opts,
            escalation=policy, backoff=_NO_BACKOFF)
        sharded_wall = time.perf_counter() - begin
        entry = scenario.as_dict()
        entry.update({
            "workers": int(workers),
            "paths_total": reference.paths_tracked,
            "paths_converged": reference.paths_converged,
            "solutions": len(reference.solutions),
            "sharded_solutions": len(sharded.solutions),
            "identical": _solution_key(sharded) == _solution_key(reference),
            "single_wall_s": reference_wall,
            "sharded_wall_s": sharded_wall,
        })
        matrix[scenario.name] = entry
    return matrix
