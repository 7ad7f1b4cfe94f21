"""The four closed-loop solve workloads of the repository benchmark.

One client sends a solve, waits for its answer, checks it, and only then
sends the next.  The seed picks the order of the scenarios in each rotation
and the coefficient perturbations of the katsura-3 family; the program
receives only the built systems.

Every solve uses the solver's default accessibility constant ``gamma``.  A
random ``gamma`` per solve loses a root in a few of every thousand ``d``
solves (step-size underflow, e.g. katsura-4 at
``gamma = 0.35412628387032935+0.935197612845644j``), and it spreads one
escalated katsura-3 solve over 0.2 to 1.1 s, more than the few solves of a
run can average out.

Every rotation holds each scenario of a workload once, and runs are made of
whole rotations, so medians and tails always see the same mix.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import get_scenario
from repro.core.evalplan import clear_homotopy_compile_cache
from repro.multiprec.numeric import CONTEXTS
from repro.polynomials.generators import perturb_coefficients
from repro.polynomials.system import PolynomialSystem
from repro.service import (FileCheckpointStore, SolveService, WorkerPool,
                           solve_system_sharded)
from repro.tracking import DiagonalStart, EscalationPolicy, solve_system

from layertrace import Installation, Tracer, TracedSolver, TracedStore, install

#: A solve (submit to result for the service) slower than this counts as
#: failed; the service client stops waiting for it.
SOLVE_TIMEOUT_S = 60.0

#: Largest accepted relative residual of a returned solution, evaluated in
#: complex double by :func:`relative_residual` independently of the solver.
RESIDUAL_TOLERANCE = 1e-8

#: Finite roots of a coefficient-perturbed katsura-3 (a generic member of
#: the katsura-3 family keeps the 2^3 roots of katsura-3).
FAMILY_ROOTS = 8


@dataclass(frozen=True)
class Job:
    """One solve request: the system, its known root count, the options."""

    label: str
    system: PolynomialSystem
    roots: int
    options: Dict[str, object] = field(default_factory=dict)
    family: Optional[str] = None


def relative_residual(system: PolynomialSystem, point: Sequence[complex]
                      ) -> float:
    """Largest ``|f_i(x)| / max(1, sum |c x^a|)`` over the rows of ``system``.

    Evaluated term by term in complex double from the system's own
    coefficients, so the check shares no code with the evaluators it checks.
    """
    worst = 0.0
    for poly in system:
        value, scale = 0j, 0.0
        for coefficient, monomial in poly.terms:
            term = complex(coefficient)
            for position, exponent in zip(monomial.positions,
                                          monomial.exponents):
                term *= point[position] ** exponent
            value += term
            scale += abs(term)
        worst = max(worst, abs(value) / max(1.0, scale))
    return worst


def check_answer(job: Job, report) -> Optional[str]:
    """``None`` when the report is right, else what is wrong with it."""
    distinct = len(report.solutions)
    if distinct != job.roots:
        return f"{distinct} distinct solutions, expected {job.roots}"
    for solution in report.solutions:
        residual = relative_residual(job.system,
                                     [complex(x) for x in solution.point])
        if not residual <= RESIDUAL_TOLERANCE:
            return (f"relative residual {residual:.3g} above "
                    f"{RESIDUAL_TOLERANCE:g}")
    return None


@dataclass
class Sample:
    label: str
    wall: float
    paths: int
    error: Optional[str]
    start: float
    #: host speed across the solve (``hostspeed.SpeedSampler.speed``);
    #: 1 when it was not sampled
    speed: float = 1.0

    @property
    def scaled_wall(self) -> float:
        """The wall rescaled to the reference host's speed."""
        return self.wall * self.speed


def run_one(workload, job: Job, tracer: Optional[Tracer] = None) -> Sample:
    """Solve one job, time it, and check its answer outside the timing."""
    start = time.perf_counter()
    try:
        report = workload.solve(job, tracer)
    except Exception as exc:  # every failure is counted, none is hidden
        return Sample(job.label, time.perf_counter() - start, 0,
                      f"raised {type(exc).__name__}: {exc}", start)
    wall = time.perf_counter() - start
    if tracer is not None:
        escalated = sum(list(report.paths_by_context.values())[1:])
        tracer.counts["tracking.escalation.escalated_paths"] += escalated
        tracer.counts["tracking.escalation.recovered"] += \
            report.recovered_by_escalation
    error = (f"took {wall:.1f} s, over the {SOLVE_TIMEOUT_S:g} s limit"
             if wall > SOLVE_TIMEOUT_S else check_answer(job, report))
    return Sample(job.label, wall, report.paths_tracked, error, start)


def measure(workload, rng: random.Random, seconds: float,
            snapshot: Callable[[], float]
            ) -> Tuple[List[Sample], float, int]:
    """Whole rotations until the next one would end past ``seconds``
    by more than half a rotation.

    Returns the samples, ``snapshot()`` taken once
    ``workload.memory_rotations`` rotations are done (or at the end of a
    shorter run), and the number of solves done when it was taken.  Memory
    grows with the solves served, and a run of fixed length serves more on a
    faster host, so memory is read after a fixed amount of work.
    """
    samples: List[Sample] = []
    begin = time.perf_counter()
    rotations = 0
    memory: Optional[Tuple[float, int]] = None
    while True:
        for job in workload.rotation(rng):
            sample = run_one(workload, job)
            samples.append(sample)
            if sample.wall > SOLVE_TIMEOUT_S:  # the closed loop cannot go on
                return samples, snapshot(), len(samples)
        rotations += 1
        if rotations == workload.memory_rotations:
            memory = (snapshot(), len(samples))
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / rotations >= seconds:
            if memory is None:
                memory = (snapshot(), len(samples))
            return (samples,) + memory


def _start_options(scenario_name: str) -> Dict[str, object]:
    if get_scenario(scenario_name).start_strategy == "diagonal":
        return {"start": DiagonalStart()}
    return {}


def _known_roots(scenario_name: str) -> int:
    return get_scenario(scenario_name).known_root_count


class InProcessWorkload:
    """Closed-loop :func:`~repro.tracking.solve_system` calls in this process.

    ``entries`` pairs each scenario with the arithmetic it is solved in;
    with ``escalate`` every solve starts in ``d`` under the default
    :class:`~repro.tracking.EscalationPolicy` instead.
    """

    def __init__(self, name: str, entries: Sequence[Tuple[str, str]], *,
                 escalate: bool = False, tail_percentile: int,
                 trace_rotations: int, memory_rotations: int):
        self.name = name
        self.entries = tuple(entries)
        self.escalate = escalate
        self.tail_percentile = tail_percentile
        self.trace_rotations = trace_rotations
        self.memory_rotations = memory_rotations
        self.systems: Dict[str, PolynomialSystem] = {}

    def setup(self, rng: random.Random) -> None:
        """Build the systems and compile every homotopy plan with one d
        solve each (the plans do not depend on the arithmetic)."""
        clear_homotopy_compile_cache()
        self.systems = {name: get_scenario(name).build_system()
                        for name, _ in self.entries}
        for name, system in self.systems.items():
            solve_system(system, **_start_options(name))

    def rotation(self, rng: random.Random) -> List[Job]:
        order = list(self.entries)
        rng.shuffle(order)
        jobs = []
        for name, context in order:
            options = _start_options(name)
            if self.escalate:
                options["escalation"] = EscalationPolicy()
            else:
                options["context"] = CONTEXTS[context]
            jobs.append(Job(label=f"{context} {name}",
                            system=self.systems[name],
                            roots=_known_roots(name), options=options))
        return jobs

    def solve(self, job: Job, tracer: Optional[Tracer] = None):
        if tracer is None:
            return solve_system(job.system, **job.options)
        return tracer.call("tracking.solver", solve_system, job.system,
                           **job.options)

    def attach(self, tracer: Tracer) -> Installation:
        return install(tracer)

    def detach(self, installation: Installation) -> None:
        installation.undo()

    def family_stats(self) -> Dict[str, int]:
        return {"cold_solves": 0, "warm_serves": 0}

    def worker_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        pass


class ServicePoolWorkload:
    """One client of a :class:`~repro.service.SolveService` that runs
    :func:`~repro.service.solve_system_sharded` with two shards on a
    persistent two-process :class:`~repro.service.WorkerPool`, persisting
    checkpoints to a :class:`~repro.service.FileCheckpointStore`.

    A rotation is three cold ``d`` solves and two warm serves of freshly
    perturbed katsura-3 members through the service's family route.  With
    four job kinds of equal share the median would fall between two kinds
    and average the slowest of one with the fastest of the other; five
    keeps it inside the speelpenning-3 solves.  With ``traced`` the
    service is built on the benchmark's ``solver=`` and ``store=`` seams,
    which pass straight through until a tracer is attached.
    """

    COLD = ("cyclic-5", "random-sparse-4", "speelpenning-3")
    FAMILY = "katsura-3"

    def __init__(self, name: str, store_root: Path, *, traced: bool,
                 tail_percentile: int, trace_rotations: int,
                 memory_rotations: int):
        self.name = name
        self.store_root = store_root
        self.traced = traced
        self.tail_percentile = tail_percentile
        self.trace_rotations = trace_rotations
        self.memory_rotations = memory_rotations
        self.systems: Dict[str, PolynomialSystem] = {}
        self.pool: Optional[WorkerPool] = None
        self.service: Optional[SolveService] = None
        self.solver_seam: Optional[TracedSolver] = None
        self.store_seam: Optional[TracedStore] = None
        self._store_dir: Optional[str] = None

    def setup(self, rng: random.Random) -> None:
        """Spawn the pool and service, ship and compile every cold system
        with one job each, and adopt a perturbed katsura-3 as the family's
        generic member."""
        self.close()
        clear_homotopy_compile_cache()
        self.systems = {name: get_scenario(name).build_system()
                        for name in self.COLD}
        self.systems[self.FAMILY] = get_scenario(self.FAMILY).build_system()
        self._store_dir = tempfile.mkdtemp(prefix=".perfbench-store-",
                                           dir=self.store_root)
        store = FileCheckpointStore(self._store_dir)
        solver = solve_system_sharded
        if self.traced:
            store = self.store_seam = TracedStore(store)
            solver = self.solver_seam = TracedSolver(solver)
        self.pool = WorkerPool(2)
        self.service = SolveService(capacity=4, workers=1, solver=solver,
                                    shards=2, pool=self.pool, store=store)
        for name in self.COLD:
            self._run(Job(label=name, system=self.systems[name],
                          roots=_known_roots(name),
                          options=_start_options(name)))
        self._run(self._family_job(rng))

    def _family_job(self, rng: random.Random) -> Job:
        target = perturb_coefficients(self.systems[self.FAMILY],
                                      seed=rng.randrange(2 ** 31))
        return Job(label=f"family {self.FAMILY}", system=target,
                   roots=FAMILY_ROOTS, family=self.FAMILY)

    def rotation(self, rng: random.Random) -> List[Job]:
        order = list(self.COLD) + [self.FAMILY, self.FAMILY]
        rng.shuffle(order)
        jobs = []
        for name in order:
            if name == self.FAMILY:
                jobs.append(self._family_job(rng))
            else:
                jobs.append(Job(label=f"d {name}", system=self.systems[name],
                                roots=_known_roots(name),
                                options=_start_options(name)))
        return jobs

    def _run(self, job: Job):
        if self.solver_seam is not None:
            self.solver_seam.submitted_at = time.perf_counter()
        job_id = self.service.submit(job.system, family=job.family,
                                     **job.options)
        return self.service.result(job_id, timeout=SOLVE_TIMEOUT_S)

    def solve(self, job: Job, tracer: Optional[Tracer] = None):
        return self._run(job)

    def attach(self, tracer: Tracer) -> Installation:
        self.solver_seam.tracer = tracer
        self.store_seam.tracer = tracer
        return install(tracer)

    def detach(self, installation: Installation) -> None:
        installation.undo()
        self.solver_seam.tracer = None
        self.store_seam.tracer = None

    def family_stats(self) -> Dict[str, int]:
        return self.service.family_stats(self.FAMILY)

    def worker_pids(self) -> List[int]:
        if self.pool is None:
            return []
        return [slot.process.pid for slot in self.pool.slots
                if slot.process is not None]

    def close(self) -> None:
        """Stop the service thread and the worker processes, drop the
        store directory."""
        if self.service is not None:
            # Not waiting: after a timed-out job the (daemon) drain thread
            # may still be inside the solver; closing the pool ends it.
            self.service.shutdown(wait=False)
            self.service = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None


def make_workload(name: str, store_root: Path, traced: bool):
    """The named workload; the service keeps its checkpoint files in a
    temporary directory under ``store_root``."""
    if name == "d-registry":
        return InProcessWorkload(
            name, [(scenario, "d") for scenario in (
                "cyclic-5", "katsura-4", "noon-3", "random-sparse-4",
                "speelpenning-3", "irregular-5", "triangular-4")],
            tail_percentile=80, trace_rotations=2, memory_rotations=15)
    if name == "xprec-fixed":
        return InProcessWorkload(
            name, [("speelpenning-2", "dd"), ("cyclic-4", "dd"),
                   ("speelpenning-2", "qd")],
            tail_percentile=90, trace_rotations=1, memory_rotations=1)
    if name == "escalate-divergent":
        return InProcessWorkload(
            name, [("noon-2", "d"), ("noon-3", "d"), ("katsura-3", "d")],
            escalate=True, tail_percentile=90, trace_rotations=1,
            memory_rotations=2)
    if name == "service-pool":
        return ServicePoolWorkload(name, store_root, traced=traced,
                                   tail_percentile=90, trace_rotations=24,
                                   memory_rotations=40)
    raise ValueError(f"unknown workload {name!r}")
