"""Sharded, crash-tolerant blackbox solving over a supervised worker pool.

:func:`solve_system_sharded` is :func:`repro.tracking.solver.solve_system`
scaled out and hardened: the solve's path batch is partitioned into
contiguous lane shards (:func:`repro.core.multicore.partition_lanes`), each
shard-rung of the escalation ladder runs as a task on a persistent
:class:`~repro.service.workerpool.WorkerPool` (long-lived processes that
cache the shipped systems and the constructed
:class:`~repro.tracking.batch_tracker.BatchTracker` -- compiled evaluation
plans included -- across rungs *and across solves*), and after every rung
each shard's :class:`~repro.tracking.batch_tracker.LaneCheckpoint` state is
persisted to a pluggable :class:`~repro.service.store.CheckpointStore`.

The :class:`~repro.service.supervisor.Supervisor` drives each rung: workers
emit heartbeats from inside the tracker's lock-step rounds, so the
coordinator can tell *crashed* (pipe EOF / dead sentinel) from *hung* (no
beats -- SIGKILL and retry) from merely *slow* (beats keep coming -- wait);
per-job deadlines are cancelled cooperatively; retries and respawns back
off with capped jitter (:mod:`repro.service.backoff`) without ever sleeping
the coordinator thread; idle workers steal whatever shard-rung task is
queued next.  A retried shard resumes from checkpoints *reloaded from the
store*; a reload that fails to decode
(:class:`~repro.errors.CheckpointCorruptError`) or read (``OSError``) falls
back to a cold restart of only that shard and is recorded in
:attr:`SolveReport.degradations`.  A shard that kills
``quarantine_after_kills`` consecutive workers is *quarantined*: its lanes
are reported as failed paths, the rest of the solve completes exactly.

Determinism is the load-bearing property: lane trajectories of the batched
tracker are independent of batch composition (elementwise arithmetic,
per-lane pivoted elimination, masked updates), the lane partition is a
contiguous slice of the global path order, the portable checkpoint/result
encoding round-trips every float exactly, and the default gamma is a fixed
constant.  A sharded solve's distinct solutions are therefore **bit-for-bit
identical** to the single-process :func:`~repro.tracking.solver.solve_system`
on the same seed/gamma -- crash, hang, or no fault at all.  The two
explicit exceptions are recorded degradations: a quarantined shard's lanes
are missing, and a cold-restarted shard's lanes were re-tracked from
``t = 0`` at the wide rung.

Every rung must be able to take the batched tracking route
(:func:`~repro.tracking.solver.batched_route_available`): the scalar
fallback produces no checkpoints, so a sharded service built on it could
not keep its crash-resume promise.  That is checked up front and refused
with a :class:`~repro.errors.ConfigurationError`, never degraded silently.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.multicore import checkpoints_from_portable, partition_lanes
from ..errors import (
    CheckpointCorruptError,
    ConfigurationError,
    ShardFailedError,
)
from ..multiprec.numeric import DOUBLE, CONTEXTS, NumericContext
from ..polynomials.system import PolynomialSystem
from ..tracking.escalation import RungOutcome, run_escalation_ladder
from ..tracking.solver import (
    EscalationPolicy,
    SolveReport,
    _deduplicate,
    batched_route_available,
)
from ..tracking.start_systems import (
    StartStrategy,
    TotalDegreeStart,
    total_degree,
)
from ..tracking.tracker import PathResult, TrackerOptions
from .backoff import BackoffPolicy
from .store import CheckpointStore, InMemoryCheckpointStore
from .supervisor import Supervisor
from .workerpool import WorkerPool, _result_from_portable

__all__ = ["FaultInjection", "solve_system_sharded"]

#: The fault modes :class:`FaultInjection` can drill (the chaos matrix).
FAULT_MODES = ("kill", "hang", "slow", "corrupt-checkpoint",
               "store-io-error")

#: The retry backoff of :func:`solve_system_sharded` when none is passed:
#: 0.05 s, doubling per retry up to 0.8 s, unjittered.
DEFAULT_RETRY_BACKOFF = BackoffPolicy(base=0.05, factor=2.0, cap=0.8,
                                      jitter=0.0)


@dataclass(frozen=True)
class FaultInjection:
    """Inject one failure mode into a shard-rung, for recovery drills.

    The coordinator arms the fault on the first ``times`` dispatches of
    shard ``shard`` at ladder level ``level``; the armed worker counts the
    batch tracker's rounds (lock-step advances and the endgame round both)
    and triggers the mode once ``kill_after_rounds`` rounds have run
    (``0`` triggers on entry to the first round).  Modes:

    ``kill``
        ``os._exit(1)`` -- an un-catchable hard crash, exactly what a
        preempted or OOM-killed worker looks like.  Recovery: respawn and
        retry, resumed warm from the store.
    ``hang``
        one dead ``sleep(delay_seconds)`` with no heartbeats -- a worker
        stuck in a syscall.  Recovery: the supervisor SIGKILLs it after
        ``heartbeat_timeout`` and retries warm.
    ``slow``
        sleeps ``delay_seconds`` per round *while emitting heartbeats* --
        alive but slow.  Correct behaviour is no intervention at all.
    ``corrupt-checkpoint``
        a ``kill``, plus the persisted records are truncated/mangled
        before the retry reloads them -- shared-storage bit rot.
        Recovery: :class:`~repro.errors.CheckpointCorruptError` on reload,
        cold restart of only that shard, recorded degradation.
    ``store-io-error``
        a ``kill``, plus the store raises ``OSError`` on the retry's first
        read.  Recovery: as for ``corrupt-checkpoint``.

    Retries of the shard are *not* re-armed once the ``times`` budget is
    spent, so every recovery path is exercised end to end.
    """

    shard: int
    level: int = 0
    kill_after_rounds: int = 2
    times: int = 1
    mode: str = "kill"
    delay_seconds: float = 1.0

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; "
                f"available: {list(FAULT_MODES)}")

    def worker_fault(self) -> Dict[str, object]:
        """The worker-side fault payload for this mode (the coordinator
        keeps the store-side half of the corrupt/store-error modes)."""
        if self.mode in ("kill", "corrupt-checkpoint", "store-io-error"):
            return {"mode": "kill",
                    "kill_after_rounds": self.kill_after_rounds}
        return {"mode": self.mode,
                "kill_after_rounds": self.kill_after_rounds,
                "delay_seconds": self.delay_seconds}


class _FaultyReadStore(CheckpointStore):
    """Delegating store whose reads can be armed to raise ``OSError`` --
    the coordinator-side half of the ``store-io-error`` drill."""

    def __init__(self, inner: CheckpointStore):
        self.inner = inner
        self.fail_reads = 0

    def put(self, job_id, shard, state):
        self.inner.put(job_id, shard, state)

    def get(self, job_id, shard):
        if self.fail_reads > 0:
            self.fail_reads -= 1
            raise OSError(
                f"injected store read failure for {job_id!r}/{shard}")
        return self.inner.get(job_id, shard)

    def shards(self, job_id):
        return self.inner.shards(job_id)

    def delete_job(self, job_id):
        self.inner.delete_job(job_id)


def _corrupt_stored_records(store: CheckpointStore, job_id: str) -> int:
    """Damage every persisted record of the job, the way shared storage
    does: file-backed records are truncated on disk, in-memory records get
    their checkpoint payloads mangled.  Returns how many were hit."""
    hit = 0
    for shard in store.shards(job_id):
        path_fn = getattr(store, "record_path", None)
        if callable(path_fn):
            path = path_fn(job_id, shard)
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 3)])
        else:
            record = store.get(job_id, shard) or {}
            record["checkpoints"] = {
                key: {"truncated": True}
                for key in record.get("checkpoints", {})}
            store.put(job_id, shard, record)
        hit += 1
    return hit


def solve_system_sharded(system: PolynomialSystem, *,
                         shards: int = 2,
                         max_workers: Optional[int] = None,
                         store: Optional[CheckpointStore] = None,
                         job_id: Optional[str] = None,
                         cleanup: bool = True,
                         context: NumericContext = DOUBLE,
                         options: Optional[TrackerOptions] = None,
                         max_paths: Optional[int] = None,
                         gamma: Optional[complex] = None,
                         deduplication_tolerance: float = 1e-6,
                         seed: Optional[int] = 0,
                         batch_size: Optional[int] = None,
                         escalation: Optional[EscalationPolicy] = None,
                         start: Optional[StartStrategy] = None,
                         max_retries: int = 2,
                         backoff: BackoffPolicy = DEFAULT_RETRY_BACKOFF,
                         timeout: Optional[float] = None,
                         heartbeat_timeout: float = 30.0,
                         cancel_grace: float = 1.0,
                         quarantine_after_kills: Optional[int] = 3,
                         allow_inprocess_fallback: bool = True,
                         fault_injection: Optional[FaultInjection] = None,
                         mp_context=None,
                         pool: Optional[WorkerPool] = None) -> SolveReport:
    """Solve ``system`` like :func:`~repro.tracking.solver.solve_system`,
    sharded over a supervised persistent worker pool with crash recovery.

    The solver-facing parameters (``context`` .. ``start``) mean
    exactly what they mean on :func:`solve_system` -- including the
    pluggable :class:`~repro.tracking.start_systems.StartStrategy` -- and
    the distinct solutions of the returned report are bit-for-bit
    identical to a single-process solve with the same ones.  The service
    parameters:

    Parameters
    ----------
    shards:
        How many contiguous lane shards to partition the path batch into.
        Each rung's *pending* lanes are repartitioned, so late rungs keep
        every worker busy instead of tracking one skewed residue; shards
        beyond the pending count come back empty and are dropped
        (:attr:`SolveReport.shards` records the level-0 populated count).
    max_workers:
        Worker pool size; defaults to the populated shard count.  With
        fewer workers than shards, idle workers steal queued shard tasks.
    store:
        Where per-shard rung state is persisted
        (:class:`~repro.service.store.CheckpointStore`); a fresh
        :class:`~repro.service.store.InMemoryCheckpointStore` by default.
    job_id:
        Key the shard records are stored under; generated when omitted.
    cleanup:
        Drop the job's store records once the solve completes (default).
        Pass ``False`` to keep them -- e.g. to inspect persisted state, or
        to leave a durable trail in a :class:`FileCheckpointStore`.
    max_retries:
        How many times one shard-rung task may be rescheduled after a
        crash/hang/deadline/worker error before the solve gives up with
        :class:`~repro.errors.ShardFailedError`.
    backoff:
        The capped, jittered :class:`~repro.service.backoff.BackoffPolicy`
        scheduled (never slept on the coordinator thread) before each
        reschedule.  Defaults to :data:`DEFAULT_RETRY_BACKOFF` (0.05 s
        doubling per retry up to 0.8 s, no jitter);
        ``BackoffPolicy(base=0.0)`` disables waiting.
    timeout:
        Per-task deadline in seconds: a worker past it receives a
        cooperative cancel between tracker rounds and is killed only if it
        ignores the cancel past ``cancel_grace``; ``None`` means no
        deadline.
    heartbeat_timeout:
        Seconds of heartbeat silence after which a busy worker is
        declared *hung* and killed (its task retries).  Workers beat from
        inside every tracker round, so a slow-but-alive worker is never
        killed by this.
    cancel_grace:
        Seconds a deadline-cancelled worker gets to acknowledge before it
        is killed.
    quarantine_after_kills:
        A shard-rung task that kills this many consecutive workers is
        quarantined -- its lanes are reported as failed paths with an
        explicit degradation -- instead of failing the whole solve.
        ``None`` disables quarantine (exhausted retries then raise).
    allow_inprocess_fallback:
        When every worker slot has been retired (respawn keeps failing),
        run the remaining shard tasks inline on the coordinator (faults
        stripped) and record the degradation, instead of raising.
    fault_injection:
        Optional :class:`FaultInjection` drill -- see its mode table.
    mp_context:
        Multiprocessing start method name (or context object) for worker
        processes; defaults to ``"fork"`` where available.
    pool:
        An external :class:`~repro.service.workerpool.WorkerPool` to run
        on (and leave running): persistent workers keep their cached
        systems and compiled plans across solves, which is what makes
        repeated sharded solves beat the single process.  By default a
        pool is created for the solve and closed afterwards.

    Raises
    ------
    ConfigurationError
        When a ladder rung cannot take the batched tracking route or is
        not resolvable by name in a worker process -- the service refuses
        up front rather than degrade its crash-resume guarantee.
    ShardFailedError
        When one shard's retries are exhausted (and quarantine did not
        intervene).
    """
    strategy = start if start is not None else TotalDegreeStart()
    plan = strategy.prepare(system)
    start_system = plan.start_system
    bezout = total_degree(system)
    if max_paths is not None and max_paths < plan.path_count:
        starts = plan.sample_solutions(max_paths, seed=seed)
    else:
        starts = list(plan.solutions())
    starts = [tuple(complex(x) for x in s) for s in starts]

    ladder = list(escalation.ladder) if escalation is not None else [context]
    exposed = (start_system, system)
    for rung in ladder:
        if not batched_route_available(rung, exposed):
            raise ConfigurationError(
                f"the sharded service needs the batched tracking route at "
                f"every rung, but context {rung.name!r} has no registered "
                f"batch backend -- its checkpoints could be neither "
                f"produced nor honoured, breaking crash recovery"
            )
        if CONTEXTS.get(rung.name) is not rung:
            raise ConfigurationError(
                f"context {rung.name!r} is not resolvable by name in a "
                f"worker process (repro.multiprec.numeric.get_context); "
                f"the sharded service ships contexts by name across the "
                f"process boundary"
            )
    warm = escalation is None or escalation.warm_restart
    residual_aware = escalation is not None and escalation.residual_aware

    if store is None:
        store = InMemoryCheckpointStore()
    if job_id is None:
        job_id = uuid.uuid4().hex
    flaky: Optional[_FaultyReadStore] = None
    if fault_injection is not None and fault_injection.mode == "store-io-error":
        flaky = _FaultyReadStore(store)
        store = flaky

    owns_pool = pool is None
    if owns_pool:
        pool = WorkerPool(
            workers=max_workers or max(1, min(shards, len(starts) or 1)),
            mp_context=mp_context)
    supervisor = Supervisor(pool, heartbeat_timeout=heartbeat_timeout,
                            cancel_grace=cancel_grace)
    token = pool.register_systems(start_system, system)

    results_portable: Dict[int, Dict[str, object]] = {}
    degradations: List[str] = []
    quarantined_lanes: set = set()
    quarantined_shards: List[int] = []
    stats = {"worker_retries": 0, "resumed_after_crash": 0,
             "hangs_detected": 0, "deadline_cancels": 0,
             "cold_restarts": 0, "inprocess": 0}
    fault_budget = [fault_injection.times if fault_injection is not None else 0]
    level0_shards = [0]

    def build_payload(shard: int, level: int, rung: NumericContext,
                      lane_indices: List[int],
                      resume: Optional[List[Dict[str, object]]]
                      ) -> Dict[str, object]:
        payload = {
            "token": token,
            "context": rung.name,
            "options": options,
            "gamma": gamma,
            "batch_size": batch_size,
            "starts": None if resume is not None
            else [starts[i] for i in lane_indices],
            "resume": resume,
            "skip_certified_endgame": resume is not None and residual_aware,
        }
        if (fault_injection is not None and fault_budget[0] > 0
                and shard == fault_injection.shard
                and level == fault_injection.level):
            fault_budget[0] -= 1
            payload["fault"] = fault_injection.worker_fault()
        return payload

    def run_rung(level: int, rung: NumericContext,
                 pending: List[Tuple[int, Sequence]],
                 checkpoints_by_index: Dict[int, object]) -> RungOutcome:
        """Fan one rung's pending lanes out over the supervised pool.

        The shared ladder loop owns the accounting; this callback owns the
        sharded mechanics -- pending-lane repartition, payload
        construction, crash retries with store-reloaded checkpoints (cold
        restart on corrupt/unreadable records), quarantine bookkeeping,
        and per-shard persistence -- and hands back results/checkpoints
        re-aligned with the global pending order.
        """
        pending_indices = [index for index, _ in pending]
        live = [i for i in pending_indices if i not in quarantined_lanes]
        parts = [part for part in partition_lanes(len(live), shards) if part]
        active = {tid: [live[k] for k in part]
                  for tid, part in enumerate(parts)}
        if level == 0:
            level0_shards[0] = len(active)

        resume_by_task: Dict[int, Optional[List[Dict[str, object]]]] = {}
        payloads: Dict[int, Dict[str, object]] = {}
        for tid in sorted(active):
            lane_indices = active[tid]
            resume = ([checkpoints_by_index[i] for i in lane_indices]
                      if warm and level > 0 else None)
            resume_by_task[tid] = resume
            payloads[tid] = build_payload(tid, level, rung, lane_indices,
                                          resume)
        cold_tasks: set = set()

        def on_retry(tid: int, attempt: int, kind: str
                     ) -> Dict[str, object]:
            """Rebuild a failed task's payload for its next attempt, with
            checkpoints RELOADED from the store -- the persistence layer,
            not coordinator memory, is what the recovery path proves out.
            """
            stats["worker_retries"] += 1
            payload = dict(payloads[tid])
            payload.pop("fault", None)
            payload.pop("systems", None)
            # The store-side half of the corrupt/store-error drills fires
            # now, after the injected kill and before the reload below.
            if (fault_injection is not None
                    and tid == fault_injection.shard
                    and level == fault_injection.level):
                if fault_injection.mode == "corrupt-checkpoint":
                    _corrupt_stored_records(store, job_id)
                elif fault_injection.mode == "store-io-error":
                    flaky.fail_reads = 1
            if resume_by_task[tid] is not None and tid not in cold_tasks:
                try:
                    merged: Dict[str, object] = {}
                    for s in store.shards(job_id):
                        record = store.get(job_id, s)
                        merged.update((record or {}).get("checkpoints", {}))
                    reloaded = [merged.get(str(i), resume_by_task[tid][k])
                                for k, i in enumerate(active[tid])]
                    # Revive now, so a poisoned record surfaces here as
                    # CheckpointCorruptError, not in the worker.
                    checkpoints_from_portable(reloaded)
                    payload["resume"] = reloaded
                    stats["resumed_after_crash"] += 1
                except (CheckpointCorruptError, OSError) as exc:
                    cold_tasks.add(tid)
                    stats["cold_restarts"] += 1
                    degradations.append(
                        f"shard {tid} at rung {rung.name!r} (level {level}):"
                        f" checkpoint reload failed "
                        f"({type(exc).__name__}: {exc}); cold restart from "
                        f"t=0 -- its lanes may differ from the "
                        f"single-process reference")
            if tid in cold_tasks:
                payload["resume"] = None
                payload["starts"] = [starts[i] for i in active[tid]]
                payload["skip_certified_endgame"] = False
            if (fault_injection is not None and fault_budget[0] > 0
                    and tid == fault_injection.shard
                    and level == fault_injection.level):
                fault_budget[0] -= 1
                payload["fault"] = fault_injection.worker_fault()
            payloads[tid] = payload
            return payload

        run = supervisor.run(
            payloads, deadline=timeout, max_retries=max_retries,
            quarantine_after=quarantine_after_kills,
            retry_backoff=backoff, on_retry=on_retry,
            fallback=allow_inprocess_fallback)

        stats["hangs_detected"] += run.hangs_detected
        stats["deadline_cancels"] += run.deadline_cancels
        stats["inprocess"] += run.inprocess_tasks
        for event in run.events:
            degradations.append(f"worker pool: {event}")
        if run.inprocess_tasks:
            degradations.append(
                f"worker pool unavailable at rung {rung.name!r} (level "
                f"{level}): {run.inprocess_tasks} shard task(s) ran "
                f"in-process on the coordinator")

        for tid in sorted(active):
            outcome = run.outcomes[tid]
            if outcome.status == "failed":
                last = outcome.failures[-1] if outcome.failures else None
                raise ShardFailedError(
                    f"shard {tid} failed {outcome.attempts} time(s) at "
                    f"rung {rung.name!r} (level {level}); retries "
                    f"exhausted (max_retries={max_retries})"
                    + (f" -- last failure {last.kind}: {last.detail}"
                       if last else ""))
            if outcome.status == "quarantined":
                quarantined_lanes.update(active[tid])
                quarantined_shards.append(tid)
                degradations.append(
                    f"shard {tid} quarantined at rung {rung.name!r} "
                    f"(level {level}) after {outcome.attempts} consecutive "
                    f"worker kills; its {len(active[tid])} lane(s) are "
                    f"reported as failed paths")

        # -- merge shard outcomes back into global pending order, persist --
        results_by_index: Dict[int, PathResult] = {}
        checkpoints_this_rung: Dict[int, Optional[Dict[str, object]]] = {}
        endgame_skips = 0
        resume_ts: List[float] = []
        for tid in sorted(active):
            outcome = run.outcomes[tid]
            if outcome.status == "quarantined":
                continue
            lane_indices = active[tid]
            result = outcome.result
            resume = resume_by_task[tid]
            if resume is not None and tid not in cold_tasks:
                resume_ts.extend(float(st["t"]) for st in resume
                                 if float(st["t"]) > 0.0)
            endgame_skips += result["endgame_skips"]
            shard_pending: List[int] = []
            for position, index in enumerate(lane_indices):
                portable = result["results"][position]
                results_portable[index] = portable
                checkpoints_this_rung[index] = \
                    result["checkpoints"][position]
                results_by_index[index] = _result_from_portable(portable)
                if not results_by_index[index].success:
                    shard_pending.append(index)
            store.put(job_id, tid, {
                "job_id": job_id,
                "shard": tid,
                "level": level,
                "context": rung.name,
                "lanes": list(lane_indices),
                "pending": shard_pending,
                "checkpoints": {
                    str(i): checkpoints_this_rung.get(
                        i, checkpoints_by_index.get(i))
                    for i in lane_indices
                    if checkpoints_this_rung.get(i) is not None
                    or checkpoints_by_index.get(i) is not None},
                "results": {str(i): results_portable[i]
                            for i in lane_indices
                            if i in results_portable},
            })

        # Quarantined lanes (this rung's and earlier ones') are excluded
        # from dispatch; they surface as explicitly failed paths.
        for index in pending_indices:
            if index in quarantined_lanes:
                results_by_index[index] = PathResult(
                    success=False, solution=[], residual=float("inf"),
                    steps_accepted=0, steps_rejected=0, newton_iterations=0,
                    failure_reason="quarantined: shard isolated after "
                                   "repeated worker kills")
                checkpoints_this_rung[index] = checkpoints_by_index.get(index)

        return RungOutcome(
            results=[results_by_index[index] for index in pending_indices],
            checkpoints=[checkpoints_this_rung[index]
                         for index in pending_indices],
            endgame_skips=endgame_skips,
            resumed_mid_ts=resume_ts if warm and level > 0 else None)

    try:
        state = run_escalation_ladder(ladder, starts, run_rung)
    finally:
        if owns_pool:
            pool.close()

    if cleanup:
        store.delete_job(job_id)

    converged = state.converged_results()
    failures = state.failed_results()
    final_context = ladder[-1] if escalation is not None else context
    solutions = _deduplicate(converged, final_context, deduplication_tolerance)
    return SolveReport(
        system=system,
        bezout_number=bezout,
        paths_tracked=len(starts),
        paths_converged=len(converged),
        solutions=solutions,
        failures=failures,
        paths_by_context=state.paths_by_context,
        converged_by_context=state.converged_by_context,
        recovered_by_escalation=state.recovered,
        resumed_by_context=state.resumed_by_context,
        restarted_by_context=state.restarted_by_context,
        resume_t_by_context=state.resume_t_by_context,
        endgame_skips_by_context=state.endgame_skips_by_context,
        degradations=degradations,
        shards=level0_shards[0],
        worker_retries=stats["worker_retries"],
        resumed_after_crash=stats["resumed_after_crash"],
        quarantined_shards=quarantined_shards,
        hangs_detected=stats["hangs_detected"],
        deadline_cancels=stats["deadline_cancels"],
        cold_restarts_after_corruption=stats["cold_restarts"],
        inprocess_fallbacks=stats["inprocess"],
        start_strategy=plan.strategy,
    )
