"""Layer tracing for the benchmark's traced run.

Every span is recorded from the benchmark's own files: :func:`install`
replaces public functions and methods of each layer with wrappers that time
the call and count its work, and :meth:`Installation.undo` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

Spans nest per thread.  A layer's self time is its span's duration minus
the time of the spans it caused, so the self times of all layers add up to
the wall of the root span (one solve).  Spans are aggregated in memory per
layer; only the totals are reported.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.multiprec import backend as backend_module
from repro.service.store import CheckpointStore
from repro.tracking import batch_tracker, newton, predictor, start_systems
from repro.tracking.batch_tracker import BatchTracker
from repro.tracking.homotopy import BatchHomotopy
from repro.tracking.newton import BatchNewtonCorrector
from repro.tracking.predictor import BatchSecantPredictor, BatchTangentPredictor


class Tracer:
    """Per-layer totals: self time, busy (inclusive) time and counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        """Open a span; returns the frame to hand back to :meth:`exit`."""
        frame = [layer, time.perf_counter(), 0.0]  # layer, start, children
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost span; returns its duration."""
        duration = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        layer = frame[0]
        self.busy_s[layer] += duration
        self.self_s[layer] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        return duration

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        frame = self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def add_self(self, layer: str, seconds: float) -> None:
        """Book time spent outside any span (queue wait) to ``layer``."""
        self.busy_s[layer] += seconds
        self.self_s[layer] += seconds


# ----------------------------------------------------------------------
# in-process layers, wrapped in place
# ----------------------------------------------------------------------
_BACKEND_METHODS = (
    "from_points", "zeros", "ones", "full", "stack", "copy", "where", "iadd",
    "isub_mul", "iadd_mul", "iadd_masked", "mul_into", "copy_into",
    "full_into", "zero_into", "component_planes", "embed_complex128",
    "magnitude", "to_complex128", "lane_scalars",
)


class Installation:
    """The wrappers :func:`install` put in place, to be undone."""

    def __init__(self):
        self._saved: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner, name: str, wrapper) -> None:
        had_own = name in vars(owner)
        self._saved.append((owner, name, had_own, vars(owner).get(name)))
        setattr(owner, name, wrapper)

    def undo(self) -> None:
        for owner, name, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every in-process layer's public entry points for ``tracer``."""
    inst = Installation()
    counts = tracer.counts

    # core.evalplan: every batched homotopy evaluation runs the plan.
    evaluate_batch = BatchHomotopy.evaluate_batch

    def traced_evaluate_batch(self, points, t):
        counts["core.evalplan.calls"] += 1
        counts["core.evalplan.lanes"] += points.shape[-1]
        return tracer.call("core.evalplan", evaluate_batch, self, points, t)

    inst.replace(BatchHomotopy, "evaluate_batch", traced_evaluate_batch)

    # tracking.batch_linsolve, imported by name into its two callers.
    solve = newton.batched_solve

    def traced_batched_solve(matrix, rhs, backend, active=None, copy=True):
        counts["tracking.batch_linsolve.calls"] += 1
        x, singular = tracer.call("tracking.batch_linsolve", solve, matrix,
                                  rhs, backend, active=active, copy=copy)
        live = singular if active is None else singular & active
        counts["tracking.batch_linsolve.singular_lanes"] += int(
            np.count_nonzero(live))
        return x, singular

    inst.replace(newton, "batched_solve", traced_batched_solve)
    inst.replace(predictor, "batched_solve", traced_batched_solve)

    # tracking.newton: the batched corrector; end-tolerance calls are the
    # endgame.
    correct = BatchNewtonCorrector.correct
    end_tolerance = {"value": None}

    def traced_correct(self, points, active=None):
        counts["tracking.newton.calls"] += 1
        frame = tracer.enter("tracking.newton")
        try:
            result = correct(self, points, active)
        finally:
            duration = tracer.exit(frame)
        if self.tolerance == end_tolerance["value"]:
            tracer.busy_s["tracking.newton.endgame"] += duration
        entering = (np.ones(points.shape[-1], dtype=bool) if active is None
                    else np.asarray(active, dtype=bool))
        counts["tracking.newton.lanes"] += int(np.count_nonzero(entering))
        counts["tracking.newton.converged"] += int(
            np.count_nonzero(result.converged & entering))
        # Lanes iterate in lock step, so the batched iterations of one call
        # are the most any lane ran.
        counts["tracking.newton.iterations"] += int(
            result.iterations.max(initial=0))
        return result

    inst.replace(BatchNewtonCorrector, "correct", traced_correct)

    # tracking.predictor: whichever batched predictor the options select.
    for cls in (BatchSecantPredictor, BatchTangentPredictor):
        predict = cls.predict

        def traced_predict(self, *args, _predict=predict, **kwargs):
            counts["tracking.predictor.calls"] += 1
            return tracer.call("tracking.predictor", _predict, self, *args,
                               **kwargs)

        inst.replace(cls, "predict", traced_predict)

    # tracking.batch_tracker: one call per rung; also the plan counters of
    # the rung's homotopy and the wide-rung wall of the escalation ladder.
    track_batches = BatchTracker.track_batches

    def traced_track_batches(self, *args, **kwargs):
        counts["tracking.batch_tracker.calls"] += 1
        end_tolerance["value"] = self.options.end_tolerance
        plan = self.homotopy.plan
        before = plan.exec_stats.as_dict()
        frame = tracer.enter("tracking.batch_tracker")
        try:
            outcome = track_batches(self, *args, **kwargs)
        finally:
            duration = tracer.exit(frame)
        if self.context.name != "d":
            tracer.busy_s["tracking.escalation.wide_rung"] += duration
        after = plan.exec_stats.as_dict()
        executions = after["executions"] - before["executions"]
        counts["core.evalplan.mp_ops"] += plan.op_counts.total * executions
        for key in ("step_cache_hits", "step_cache_misses"):
            counts["core.evalplan." + key] += after[key] - before[key]
        counts["tracking.batch_tracker.rounds"] += outcome.rounds
        counts["tracking.batch_tracker.batched_evals"] += \
            outcome.batched_evaluations
        counts["tracking.batch_tracker.lane_evals"] += \
            outcome.lane_evaluations
        return outcome

    inst.replace(BatchTracker, "track_batches", traced_track_batches)

    # tracking.start_systems: every strategy's prepare.
    for cls in (start_systems.TotalDegreeStart, start_systems.DiagonalStart,
                start_systems.GenericMemberStart):
        prepare = cls.prepare

        def traced_prepare(self, target, _prepare=prepare):
            return tracer.call("tracking.start_systems", _prepare, self,
                               target)

        inst.replace(cls, "prepare", traced_prepare)

    # multiprec.backend: calls into the registered batch backends, and the
    # checkpoint conversions between them.
    for backend in backend_module.registered_backends().values():
        for name in _BACKEND_METHODS:
            method = getattr(backend, name)

            def counted(*args, _method=method, **kwargs):
                counts["multiprec.backend.calls"] += 1
                return _method(*args, **kwargs)

            inst.replace(backend, name, counted)

    convert = batch_tracker.convert_batch

    def counted_convert(*args, **kwargs):
        counts["multiprec.backend.convert_calls"] += 1
        return convert(*args, **kwargs)

    inst.replace(batch_tracker, "convert_batch", counted_convert)
    return inst


# ----------------------------------------------------------------------
# the service seams: solver= and store=
# ----------------------------------------------------------------------
class TracedSolver:
    """The ``solver=`` seam of :class:`~repro.service.SolveService`.

    Passes straight through while :attr:`tracer` is ``None``.  Otherwise it
    books the time since :attr:`submitted_at` as queue wait and times the
    sharded solve.
    """

    def __init__(self, solver: Callable):
        self.solver = solver
        self.tracer: Optional[Tracer] = None
        self.submitted_at = 0.0

    def __call__(self, system, **kwargs):
        tracer = self.tracer
        if tracer is None:
            return self.solver(system, **kwargs)
        tracer.add_self("service.queue", time.perf_counter()
                        - self.submitted_at)
        report = tracer.call("service.sharded", self.solver, system, **kwargs)
        tracer.counts["service.sharded.worker_retries"] += \
            report.worker_retries
        return report


class TracedStore(CheckpointStore):
    """The ``store=`` seam: a delegating store that times and counts I/O."""

    def __init__(self, inner):
        self.inner = inner
        self.tracer: Optional[Tracer] = None

    def put(self, job_id, shard, state):
        tracer = self.tracer
        if tracer is None:
            return self.inner.put(job_id, shard, state)
        tracer.call("service.store", self.inner.put, job_id, shard, state)
        tracer.counts["service.store.puts"] += 1
        tracer.counts["service.store.bytes"] += \
            self.inner.record_path(job_id, shard).stat().st_size

    def get(self, job_id, shard):
        tracer = self.tracer
        if tracer is None:
            return self.inner.get(job_id, shard)
        tracer.counts["service.store.gets"] += 1
        return tracer.call("service.store", self.inner.get, job_id, shard)

    def shards(self, job_id):
        return self.inner.shards(job_id)

    def delete_job(self, job_id):
        tracer = self.tracer
        if tracer is None:
            return self.inner.delete_job(job_id)
        return tracer.call("service.store", self.inner.delete_job, job_id)
