"""Batched many-path tracking: a structure of arrays over the whole batch.

The paper accelerates evaluation and differentiation in double-double
arithmetic precisely so that *many* homotopy paths can be processed on
massively parallel hardware.  The scalar :class:`~repro.tracking.tracker.
PathTracker` walks one path at a time; this module drives ``B`` paths in
lock step:

* :class:`PathBatch` holds the state of all paths as columns (*lanes*) of
  ``(n, B)`` batch arrays -- a structure of arrays over
  :class:`~repro.multiprec.ddarray.ComplexDDArray` (or ``complex128``), the
  layout a device would keep resident between kernel launches;
* :class:`BatchTracker` runs the predictor -> Newton-corrector -> step
  control loop for the whole batch at once.  Every lane carries its own
  continuation parameter ``t`` and step ``dt``; per-lane boolean masks let
  converged, failed and finished paths *retire* without stalling the rest,
  and each round the live lanes are compressed so retired lanes cost
  nothing;
* one batched homotopy evaluation replaces ``B`` scalar evaluations, which
  is what lets the cost model price one kernel launch per batch instead of
  one per path (see
  :meth:`repro.gpusim.costmodel.GPUCostModel.batched_kernel_time`);
* every lane's final state is exportable as a :class:`LaneCheckpoint` -- the
  last accepted ``(x, t)``, the step size, the consecutive-success counter
  and the failure cause -- and :meth:`BatchTracker.track_batches` accepts
  ``resume_from=`` checkpoints so a batch can start *mid-path*.  Checkpoints
  convert between arithmetics through the backend registry
  (:func:`repro.multiprec.backend.convert_batch`), which is what lets the
  escalation pipeline warm-restart a failed path one precision rung wider
  instead of re-tracking it from ``t = 0``.

The tracker reports plain :class:`~repro.tracking.tracker.PathResult`
objects, so callers (and the differential tests) can compare its roots
directly with the scalar engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..multiprec.backend import (
    ComplexBatchBackend,
    backend_for_context,
    convert_batch,
    masked_lane_errstate,
    registered_backends,
)
from ..multiprec.complex_dd import ComplexDD
from ..multiprec.double_double import DoubleDouble
from ..multiprec.numeric import DOUBLE, ComplexQD, NumericContext
from ..multiprec.quad_double import QuadDouble
from .homotopy import BatchHomotopy
from .newton import BatchNewtonCorrector
from .predictor import BatchSecantPredictor, BatchTangentPredictor
from .tracker import PathResult, StepControl, TrackerOptions

__all__ = ["PathStatus", "LaneCheckpoint", "PathBatch", "BatchTrackResult",
           "BatchTracker", "scalar_to_planes", "scalar_from_planes"]


# ----------------------------------------------------------------------
# portable scalar encoding: context scalars <-> flat float64 components
# ----------------------------------------------------------------------
#: Flat float components of one complex scalar per context: ``d`` stores
#: ``(re, im)``, ``dd`` the four ``(re.hi, re.lo, im.hi, im.lo)`` planes,
#: ``qd`` all eight quad-double components.  The planes ARE the scalar's
#: in-memory representation, so the round trip is bit-for-bit (inf, NaN
#: and signed zeros included).
_PLANES_PER_SCALAR = {"d": 2, "dd": 4, "qd": 8}


def scalar_to_planes(x, context_name: str) -> List[float]:
    """Flatten one scalar of a ``d``/``dd``/``qd`` context to plain floats.

    The floats are exactly the scalar's component planes -- no rounding --
    so :func:`scalar_from_planes` reconstructs the scalar bit-for-bit.
    This is the element step of the portable checkpoint format (see
    :meth:`LaneCheckpoint.to_portable`).

    Raises
    ------
    ConfigurationError
        For contexts without a known plane decomposition.
    """
    if context_name == "d":
        z = complex(x)
        return [z.real, z.imag]
    if context_name == "dd":
        if not isinstance(x, ComplexDD):
            x = ComplexDD(DoubleDouble(complex(x).real),
                          DoubleDouble(complex(x).imag))
        return [x.real.hi, x.real.lo, x.imag.hi, x.imag.lo]
    if context_name == "qd":
        if not isinstance(x, ComplexQD):
            x = ComplexQD(complex(x))
        return [*x.real.c, *x.imag.c]
    raise ConfigurationError(
        f"no portable plane encoding for numeric context {context_name!r}; "
        f"supported: {sorted(_PLANES_PER_SCALAR)}"
    )


def scalar_from_planes(planes: Sequence[float], context_name: str):
    """Rebuild a context scalar from :func:`scalar_to_planes` output."""
    values = [float(v) for v in planes]
    expected = _PLANES_PER_SCALAR.get(context_name)
    if expected is None:
        raise ConfigurationError(
            f"no portable plane encoding for numeric context {context_name!r}; "
            f"supported: {sorted(_PLANES_PER_SCALAR)}"
        )
    if len(values) != expected:
        raise ConfigurationError(
            f"a {context_name!r} scalar needs {expected} plane components, "
            f"got {len(values)}"
        )
    if context_name == "d":
        return complex(values[0], values[1])
    if context_name == "dd":
        # _raw skips the constructor's two_sum renormalisation: the planes
        # already are a valid decomposition, and renormalising would poison
        # non-finite lanes (inf + nan -> nan).
        return ComplexDD(DoubleDouble._raw(values[0], values[1]),
                         DoubleDouble._raw(values[2], values[3]))
    return ComplexQD(QuadDouble._raw(tuple(values[:4])),
                     QuadDouble._raw(tuple(values[4:])))


class PathStatus(IntEnum):
    """Per-lane life cycle of a batched path."""

    TRACKING = 0
    SUCCESS = 1
    START_FAILED = 2
    STEP_UNDERFLOW = 3
    MAX_STEPS = 4
    ENDGAME_FAILED = 5


_FAILURE_REASONS = {
    PathStatus.START_FAILED: "start point does not satisfy the start system",
    PathStatus.STEP_UNDERFLOW: "step size underflow",
    PathStatus.MAX_STEPS: "maximum number of steps exceeded",
    PathStatus.ENDGAME_FAILED: "end game did not converge",
}


@dataclass(frozen=True)
class LaneCheckpoint:
    """The exportable state of one lane of a :class:`PathBatch`.

    A checkpoint captures everything the tracker needs to continue the path
    from where the lane retired: the last *accepted* point and its
    continuation parameter (on a failed step the batch never moves, so
    ``point`` is always on the path to working accuracy), the predictor
    history, the adaptive step state and the retirement cause.  Checkpoints
    are plain scalar data -- ``point``/``prev_point`` hold scalars of the
    capturing arithmetic (``context_name``) -- so they survive the batch
    they came from and can seed a new batch in a *different* arithmetic:
    :meth:`PathBatch.from_checkpoints` widens them through the backend
    registry (:func:`repro.multiprec.backend.convert_batch`).

    Attributes
    ----------
    context_name:
        Name of the numeric context the checkpoint was captured in
        (``"d"``, ``"dd"``, ``"qd"``, or any registered backend's).
    point / t:
        The last accepted solution ``x`` (tuple of context scalars) and its
        continuation parameter.
    prev_point / prev_t / has_prev:
        The secant predictor's memory: the previously accepted point, or a
        copy of ``point`` with ``has_prev=False`` when no step was accepted.
    dt:
        The adaptive step size at retirement.
    residual:
        The last measured per-lane residual norm (double-rounded).
    status:
        The lane's :class:`PathStatus` at capture -- the failure cause for
        retired lanes, ``TRACKING`` for lanes interrupted mid-path.
    steps_accepted / steps_rejected / newton_iterations:
        The lane's work counters, carried into the resumed batch so path
        results accumulate across rungs.
    consecutive_successes:
        Accepted steps since the last rejection.  Diagnostic state: the
        current :class:`~repro.tracking.tracker.StepControl` grows the step
        on every acceptance, so nothing reads the streak yet, but it is
        maintained and checkpointed so a streak-gated growth policy (the
        classic "grow only after N consecutive successes") can resume
        without losing its state.
    """

    context_name: str
    point: tuple
    t: float
    prev_point: tuple
    prev_t: float
    has_prev: bool
    dt: float
    residual: float
    status: PathStatus
    steps_accepted: int
    steps_rejected: int
    newton_iterations: int
    consecutive_successes: int

    @property
    def failed(self) -> bool:
        """Whether the lane retired with a failure cause."""
        return self.status not in (PathStatus.SUCCESS, PathStatus.TRACKING)

    @property
    def failure_reason(self) -> Optional[str]:
        """Human-readable failure cause, ``None`` for healthy lanes."""
        return _FAILURE_REASONS.get(self.status)

    @property
    def resumes_mid_path(self) -> bool:
        """Whether resuming this checkpoint reuses tracked progress
        (``t > 0``) rather than restarting the path from scratch."""
        return self.t > 0.0

    # ------------------------------------------------------------------
    # portable state: plain floats/ints, exact across d/dd/qd
    # ------------------------------------------------------------------
    def to_portable(self) -> Dict[str, object]:
        """This checkpoint as a dict of plain floats, ints and bools.

        ``point``/``prev_point`` hold context scalars (:class:`~repro.
        multiprec.complex_dd.ComplexDD`, :class:`~repro.multiprec.numeric.
        ComplexQD`, ...), which no generic store can persist.  The portable
        form flattens every scalar to its float64 component planes
        (:func:`scalar_to_planes`), so the whole state is JSON/npz-friendly
        while :meth:`from_portable` reconstructs the checkpoint bit-for-bit
        -- inf/NaN lanes and signed zeros included.  This is the wire and
        storage format of the sharded solve service
        (:mod:`repro.service.store`).
        """
        name = self.context_name
        return {
            "context": name,
            "point": [scalar_to_planes(x, name) for x in self.point],
            "t": float(self.t),
            "prev_point": [scalar_to_planes(x, name) for x in self.prev_point],
            "prev_t": float(self.prev_t),
            "has_prev": bool(self.has_prev),
            "dt": float(self.dt),
            "residual": float(self.residual),
            "status": int(self.status),
            "steps_accepted": int(self.steps_accepted),
            "steps_rejected": int(self.steps_rejected),
            "newton_iterations": int(self.newton_iterations),
            "consecutive_successes": int(self.consecutive_successes),
        }

    @classmethod
    def from_portable(cls, state: Dict[str, object]) -> "LaneCheckpoint":
        """Rebuild a checkpoint from :meth:`to_portable` output.

        Raises
        ------
        ConfigurationError
            When the state names a context without a plane encoding or the
            plane counts are inconsistent.
        """
        name = str(state["context"])
        return cls(
            context_name=name,
            point=tuple(scalar_from_planes(planes, name)
                        for planes in state["point"]),
            t=float(state["t"]),
            prev_point=tuple(scalar_from_planes(planes, name)
                             for planes in state["prev_point"]),
            prev_t=float(state["prev_t"]),
            has_prev=bool(state["has_prev"]),
            dt=float(state["dt"]),
            residual=float(state["residual"]),
            status=PathStatus(int(state["status"])),
            steps_accepted=int(state["steps_accepted"]),
            steps_rejected=int(state["steps_rejected"]),
            newton_iterations=int(state["newton_iterations"]),
            consecutive_successes=int(state["consecutive_successes"]),
        )


@dataclass
class PathBatch:
    """Structure-of-arrays state of ``B`` homotopy paths.

    ``points`` and ``prev_points`` are ``(n, B)`` batch arrays; every other
    field is a ``(B,)`` NumPy array.  Lane ``b`` of every array belongs to
    path ``b``, so selecting a lane subset is one fancy-indexing operation
    per array -- no per-path objects are ever materialised.

    ``attempts`` counts the step attempts of the current tracking run, the
    ones :meth:`~repro.tracking.tracker.StepControl.clipped_retries`
    skipped included; a lane that reaches ``max_steps`` retires.  It is
    not checkpointed: a resumed run starts a fresh ``max_steps`` budget.

    A batch is constructed either fresh at ``t = 0``
    (:meth:`from_start_solutions`) or mid-path from per-lane
    :class:`LaneCheckpoint` state (:meth:`from_checkpoints`), and every lane
    can be exported back out as a checkpoint (:meth:`checkpoint` /
    :meth:`checkpoints`) -- the round trip behind warm-restarted precision
    escalation.
    """

    backend: ComplexBatchBackend
    points: object
    prev_points: object
    t: np.ndarray
    prev_t: np.ndarray
    dt: np.ndarray
    has_prev: np.ndarray
    active: np.ndarray
    status: np.ndarray
    residual: np.ndarray
    steps_accepted: np.ndarray
    steps_rejected: np.ndarray
    newton_iterations: np.ndarray
    consecutive_successes: np.ndarray
    attempts: np.ndarray

    @classmethod
    def from_start_solutions(cls, backend: ComplexBatchBackend,
                             starts: Sequence[Sequence],
                             initial_step: float) -> "PathBatch":
        """Pack start solutions into a fresh batch at ``t = 0``.

        Parameters
        ----------
        backend:
            The batch array backend holding the lane arrays.
        starts:
            ``B`` start solutions (sequences of scalars the backend accepts).
        initial_step:
            The step size every lane begins with.

        Raises
        ------
        ConfigurationError
            When ``starts`` is empty.
        """
        if not starts:
            raise ConfigurationError("a path batch needs at least one start solution")
        points = backend.from_points(starts)
        lanes = len(starts)
        return cls(
            backend=backend,
            points=points,
            prev_points=backend.copy(points),
            t=np.zeros(lanes),
            prev_t=np.zeros(lanes),
            dt=np.full(lanes, float(initial_step)),
            has_prev=np.zeros(lanes, dtype=bool),
            active=np.ones(lanes, dtype=bool),
            status=np.full(lanes, int(PathStatus.TRACKING), dtype=np.int8),
            residual=np.full(lanes, np.inf),
            steps_accepted=np.zeros(lanes, dtype=np.int64),
            steps_rejected=np.zeros(lanes, dtype=np.int64),
            newton_iterations=np.zeros(lanes, dtype=np.int64),
            consecutive_successes=np.zeros(lanes, dtype=np.int64),
            attempts=np.zeros(lanes, dtype=np.int64),
        )

    @classmethod
    def from_checkpoints(cls, backend: ComplexBatchBackend,
                         checkpoints: Sequence[LaneCheckpoint],
                         initial_step: float) -> "PathBatch":
        """Rebuild a batch mid-path from per-lane checkpoints.

        Checkpoint points are converted into ``backend``'s arithmetic
        through the backend registry: lanes are grouped by their capturing
        context and each group moves as one structure-of-arrays
        :func:`~repro.multiprec.backend.convert_batch` call, so the common
        case -- a whole residue escalating one rung wider -- costs a handful
        of NumPy plane copies.  Widening (``d -> dd -> qd``) preserves every
        checkpointed value bit-for-bit.

        The resumed lane state follows the checkpoint exactly, with two
        policy exceptions:

        * all lanes restart as ``TRACKING`` (resuming *is* the retry), and
        * a lane that retired by ``STEP_UNDERFLOW`` gets a fresh
          ``initial_step`` -- its recorded ``dt`` had collapsed below the
          giving-up threshold under the old arithmetic, which would cripple
          the retry; every other lane keeps its earned step size so a
          same-arithmetic resume continues the cold run bit-for-bit.

        Lanes checkpointed at ``t >= 1`` are created inactive: they skip the
        predictor-corrector loop entirely and go straight to the endgame.

        Parameters
        ----------
        backend:
            The batch array backend of the *resuming* batch (its arithmetic
            may be wider than any checkpoint's).
        checkpoints:
            One :class:`LaneCheckpoint` per lane to resume.
        initial_step:
            Replacement step size for step-underflow lanes.

        Raises
        ------
        ConfigurationError
            When ``checkpoints`` is empty or the checkpoint dimensions
            disagree.
        """
        if not checkpoints:
            raise ConfigurationError("a path batch needs at least one checkpoint")
        n = len(checkpoints[0].point)
        if any(len(cp.point) != n for cp in checkpoints):
            raise ConfigurationError("all checkpoints must share a dimension")
        lanes = len(checkpoints)

        # Convert lane points per capturing context, whole groups at a time.
        points = backend.zeros((n, lanes))
        prev_points = backend.zeros((n, lanes))
        registry = registered_backends()
        by_context: Dict[str, List[int]] = {}
        for lane, cp in enumerate(checkpoints):
            by_context.setdefault(cp.context_name, []).append(lane)
        for name, group in by_context.items():
            source = registry.get(name)
            group_points = [checkpoints[lane].point for lane in group]
            group_prev = [checkpoints[lane].prev_point for lane in group]
            if source is None:
                # Unregistered capturing arithmetic: let the target backend
                # coerce the scalars itself.
                converted = backend.from_points(group_points)
                converted_prev = backend.from_points(group_prev)
            else:
                converted = convert_batch(source.from_points(group_points),
                                          source, backend)
                converted_prev = convert_batch(source.from_points(group_prev),
                                               source, backend)
            idx = (slice(None), np.asarray(group, dtype=np.intp))
            points[idx] = converted
            prev_points[idx] = converted_prev

        t = np.array([cp.t for cp in checkpoints], dtype=np.float64)
        dt = StepControl.resumed(
            np.array([cp.dt for cp in checkpoints], dtype=np.float64),
            np.array([cp.status is PathStatus.STEP_UNDERFLOW
                      for cp in checkpoints], dtype=bool),
            float(initial_step))
        return cls(
            backend=backend,
            points=points,
            prev_points=prev_points,
            t=t,
            prev_t=np.array([cp.prev_t for cp in checkpoints], dtype=np.float64),
            dt=dt,
            has_prev=np.array([cp.has_prev for cp in checkpoints], dtype=bool),
            active=t < 1.0,
            status=np.full(lanes, int(PathStatus.TRACKING), dtype=np.int8),
            residual=np.array([cp.residual for cp in checkpoints], dtype=np.float64),
            steps_accepted=np.array([cp.steps_accepted for cp in checkpoints],
                                    dtype=np.int64),
            steps_rejected=np.array([cp.steps_rejected for cp in checkpoints],
                                    dtype=np.int64),
            newton_iterations=np.array([cp.newton_iterations for cp in checkpoints],
                                       dtype=np.int64),
            consecutive_successes=np.array([cp.consecutive_successes
                                            for cp in checkpoints], dtype=np.int64),
            attempts=np.zeros(lanes, dtype=np.int64),
        )

    @property
    def n_paths(self) -> int:
        return int(self.t.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[0])

    def select(self, lanes: np.ndarray) -> "PathBatch":
        """A compressed copy holding only the given lanes."""
        idx = (slice(None), lanes)
        return PathBatch(
            backend=self.backend,
            points=self.points[idx],
            prev_points=self.prev_points[idx],
            t=self.t[lanes].copy(),
            prev_t=self.prev_t[lanes].copy(),
            dt=self.dt[lanes].copy(),
            has_prev=self.has_prev[lanes].copy(),
            active=self.active[lanes].copy(),
            status=self.status[lanes].copy(),
            residual=self.residual[lanes].copy(),
            steps_accepted=self.steps_accepted[lanes].copy(),
            steps_rejected=self.steps_rejected[lanes].copy(),
            newton_iterations=self.newton_iterations[lanes].copy(),
            consecutive_successes=self.consecutive_successes[lanes].copy(),
            attempts=self.attempts[lanes].copy(),
        )

    def scatter(self, lanes: np.ndarray, sub: "PathBatch") -> None:
        """Write a compressed sub-batch back into the given lanes."""
        idx = (slice(None), lanes)
        self.points[idx] = sub.points
        self.prev_points[idx] = sub.prev_points
        self.t[lanes] = sub.t
        self.prev_t[lanes] = sub.prev_t
        self.dt[lanes] = sub.dt
        self.has_prev[lanes] = sub.has_prev
        self.active[lanes] = sub.active
        self.status[lanes] = sub.status
        self.residual[lanes] = sub.residual
        self.steps_accepted[lanes] = sub.steps_accepted
        self.steps_rejected[lanes] = sub.steps_rejected
        self.newton_iterations[lanes] = sub.newton_iterations
        self.consecutive_successes[lanes] = sub.consecutive_successes
        self.attempts[lanes] = sub.attempts

    def retire(self, mask: np.ndarray, status: PathStatus) -> None:
        """Mark lanes under ``mask`` finished with the given status."""
        mask = np.asarray(mask, dtype=bool)
        self.status[mask] = int(status)
        self.active &= ~mask

    def status_counts(self) -> dict:
        """Histogram of lane statuses (for reporting)."""
        return {PathStatus(code).name.lower(): int(count)
                for code, count in zip(*np.unique(self.status, return_counts=True))}

    def checkpoint(self, lane: int) -> LaneCheckpoint:
        """Export one lane's state as a :class:`LaneCheckpoint`.

        Retired lanes are never touched again by the tracker (the advance
        loop compresses to active lanes and the endgame only sharpens
        pending ones), so a checkpoint taken after tracking finished is
        exactly the lane's state at retirement: the last accepted point, the
        step size the step control had earned, and the failure cause.
        """
        return LaneCheckpoint(
            context_name=self.backend.context.name,
            point=tuple(self.backend.lane_scalars(self.points, lane)),
            t=float(self.t[lane]),
            prev_point=tuple(self.backend.lane_scalars(self.prev_points, lane)),
            prev_t=float(self.prev_t[lane]),
            has_prev=bool(self.has_prev[lane]),
            dt=float(self.dt[lane]),
            residual=float(self.residual[lane]),
            status=PathStatus(int(self.status[lane])),
            steps_accepted=int(self.steps_accepted[lane]),
            steps_rejected=int(self.steps_rejected[lane]),
            newton_iterations=int(self.newton_iterations[lane]),
            consecutive_successes=int(self.consecutive_successes[lane]),
        )

    def checkpoints(self) -> List[LaneCheckpoint]:
        """One :class:`LaneCheckpoint` per lane, in lane order."""
        return [self.checkpoint(lane) for lane in range(self.n_paths)]


@dataclass
class BatchTrackResult:
    """Outcome of a tracking run, per-lane and aggregate.

    ``batches`` holds one :class:`PathBatch` per chunk the start set was
    split into; ``results``, ``rounds`` and ``evaluation_log`` aggregate
    over all of them.
    """

    batches: List[PathBatch]
    results: List[PathResult]
    evaluation_log: List[int] = field(default_factory=list)
    rounds: int = 0
    #: resumed lanes whose checkpointed residual already certified the
    #: endgame tolerance, so their endgame re-entry round was skipped
    #: (only nonzero under ``skip_certified_endgame``).
    endgame_reentries_skipped: int = 0

    @property
    def paths_converged(self) -> int:
        return sum(1 for r in self.results if r.success)

    def status_counts(self) -> dict:
        """Histogram of lane statuses across every tracked batch."""
        counts: dict = {}
        for batch in self.batches:
            for name, count in batch.status_counts().items():
                counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def batched_evaluations(self) -> int:
        """Number of batched homotopy evaluations performed."""
        return len(self.evaluation_log)

    @property
    def lane_evaluations(self) -> int:
        """Total per-lane evaluations (what a scalar tracker would pay)."""
        return int(sum(self.evaluation_log))

    def checkpoints(self) -> List[LaneCheckpoint]:
        """Per-path checkpoints across every tracked batch, aligned with
        ``results`` -- ``checkpoints()[i]`` is the final lane state of the
        path behind ``results[i]``."""
        out: List[LaneCheckpoint] = []
        for batch in self.batches:
            out.extend(batch.checkpoints())
        return out


class BatchTracker:
    """Track many homotopy paths in lock step with per-lane retirement.

    Parameters
    ----------
    start_system / target_system:
        The systems of the gamma-trick homotopy (evaluated with the
        structure-of-arrays evaluator; regularity is not required).
    context:
        Scalar arithmetic; ``d`` and ``dd`` have batch backends.
    options:
        The same :class:`~repro.tracking.tracker.TrackerOptions` the scalar
        tracker takes -- both engines share the step-control policy.
    batch_size:
        Maximum lanes per batch; larger start sets are chunked.  ``None``
        tracks all paths in one batch.
    gamma:
        Accessibility constant, defaulted like the scalar homotopy.
    skip_certified_endgame:
        Residual-aware resume policy (off by default, so same-arithmetic
        resumes stay bit-for-bit with the cold run): when resuming from
        checkpoints, a lane checkpointed at ``t >= 1`` whose stored
        residual already satisfies ``end_tolerance`` retires as a success
        immediately instead of re-entering the endgame corrector -- its
        residual was *measured* at that point by the capturing run, so the
        re-entry round would only re-derive a certificate the checkpoint
        already carries.  Certificates exist for lanes that converged (or
        are resumed under a looser tolerance than they were captured with);
        endgame *failures* carry residuals above the tolerance by
        construction and always re-enter, so the skip is conservative.  The
        payoff case is resuming a full checkpoint set -- replaying or
        continuing an interrupted run -- where the converged lanes would
        otherwise each pay a pointless endgame evaluation round.  Skipped
        re-entries are counted in
        :attr:`BatchTrackResult.endgame_reentries_skipped`.
    """

    def __init__(self, start_system, target_system, *,
                 context: NumericContext = DOUBLE,
                 options: Optional[TrackerOptions] = None,
                 batch_size: Optional[int] = None,
                 gamma: Optional[complex] = None,
                 skip_certified_endgame: bool = False):
        self.context = context
        self.options = options or TrackerOptions()
        self.skip_certified_endgame = bool(skip_certified_endgame)
        self.backend = backend_for_context(context)
        self.homotopy = BatchHomotopy(start_system, target_system,
                                      gamma=gamma, context=context,
                                      backend=self.backend)
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        self.batch_size = batch_size
        self._step_control = StepControl.from_options(self.options)
        #: lane counts of every batched homotopy evaluation of the last run
        #: (corrector and tangent-predictor evaluations alike)
        self.evaluation_log: List[int] = []
        if self.options.predictor == "tangent":
            self._predictor = BatchTangentPredictor(
                self.backend, evaluation_log=self.evaluation_log)
        else:
            self._predictor = BatchSecantPredictor(self.backend)

    # ------------------------------------------------------------------
    def track_many(self, start_solutions: Optional[Sequence[Sequence]] = None, *,
                   resume_from: Optional[Sequence[LaneCheckpoint]] = None
                   ) -> List[PathResult]:
        """Track paths from scratch or resume them from checkpoints.

        Parameters
        ----------
        start_solutions:
            Start solutions to track from ``t = 0``.
        resume_from:
            :class:`LaneCheckpoint` list to continue mid-path instead;
            mutually exclusive with ``start_solutions``.  Checkpoints
            captured in a different arithmetic are converted through the
            backend registry on entry.

        Returns
        -------
        list of PathResult
            One result per start solution or checkpoint, in order.  Resumed
            results *accumulate*: step and Newton counters include the work
            recorded in the checkpoint.

        Raises
        ------
        ConfigurationError
            When both or neither of ``start_solutions`` / ``resume_from``
            are given.
        """
        return self.track_batches(start_solutions,
                                  resume_from=resume_from).results

    def track_batches(self, start_solutions: Optional[Sequence[Sequence]] = None, *,
                      resume_from: Optional[Sequence[LaneCheckpoint]] = None
                      ) -> BatchTrackResult:
        """Like :meth:`track_many` but returning the full
        :class:`BatchTrackResult` diagnostics (batches, evaluation log,
        per-path checkpoints)."""
        if (start_solutions is None) == (resume_from is None):
            raise ConfigurationError(
                "pass exactly one of start_solutions or resume_from"
            )
        checkpoints = None if resume_from is None else list(resume_from)
        items = list(start_solutions) if checkpoints is None else checkpoints
        if not items:
            return BatchTrackResult(batches=[], results=[], evaluation_log=[])
        # clear() rather than rebinding: the predictor and correctors hold
        # a reference to this very list.
        self.evaluation_log.clear()
        chunk = self.batch_size or len(items)
        results: List[PathResult] = []
        batches: List[PathBatch] = []
        rounds = 0
        for offset in range(0, len(items), chunk):
            piece = items[offset:offset + chunk]
            if checkpoints is None:
                batch = self._track_one_batch(piece)
            else:
                batch = self._track_one_batch(checkpoints=piece)
            rounds += batch_rounds_of(batch)
            results.extend(self._lane_results(batch))
            batches.append(batch)
        return BatchTrackResult(batches=batches, results=results,
                                evaluation_log=list(self.evaluation_log),
                                rounds=rounds,
                                endgame_reentries_skipped=sum(
                                    getattr(b, "endgame_skipped", 0)
                                    for b in batches))

    # ------------------------------------------------------------------
    @property
    def plan_execution_stats(self):
        """Execution counters of the homotopy's compiled plan
        (:class:`~repro.core.evalplan.PlanExecutionStats`).  Compiles the
        plan on first access; counters accumulate across runs."""
        return self.homotopy.plan.exec_stats

    # ------------------------------------------------------------------
    def _corrector(self, t: np.ndarray, tolerance: float,
                   iterations: int) -> BatchNewtonCorrector:
        return BatchNewtonCorrector(self.homotopy.at(t), self.backend,
                                    tolerance=tolerance,
                                    max_iterations=iterations,
                                    evaluation_log=self.evaluation_log)

    def _track_one_batch(self, starts: Optional[Sequence[Sequence]] = None,
                         checkpoints: Optional[Sequence[LaneCheckpoint]] = None
                         ) -> PathBatch:
        # Lanes that diverge or retire carry inf/NaN through the masked
        # batch arithmetic (predictor, corrector, endgame); the errstate
        # scope keeps them from spraying RuntimeWarnings while the status
        # masks report the failures.
        with masked_lane_errstate():
            return self._track_one_batch_inner(starts, checkpoints)

    def _track_one_batch_inner(self,
                               starts: Optional[Sequence[Sequence]] = None,
                               checkpoints: Optional[Sequence[LaneCheckpoint]] = None
                               ) -> PathBatch:
        opts = self.options
        backend = self.backend
        if checkpoints is not None:
            batch = PathBatch.from_checkpoints(backend, checkpoints,
                                               opts.initial_step)
            batch.rounds = 0  # dynamic attribute: lock-step rounds of this batch
            # Checkpointed lanes already sit on the path at their t -- a cold
            # run corrected them there -- so re-correcting would both waste
            # evaluations and break bit-for-bit same-arithmetic resumes.
            # The exception is a lane whose *start correction* failed: its
            # point is the raw start solution, so retry the correction (in
            # this batch's possibly wider arithmetic).
            needs_start = np.array([cp.status is PathStatus.START_FAILED
                                    for cp in checkpoints], dtype=bool)
            if needs_start.any():
                start_corrector = self._corrector(batch.t, opts.corrector_tolerance,
                                                  opts.end_iterations)
                started = start_corrector.correct(batch.points, needs_start)
                batch.newton_iterations += started.iterations
                batch.residual = np.where(needs_start, started.residual_norm,
                                          batch.residual)
                batch.points = backend.where(started.converged, started.solution,
                                             batch.points)
                batch.retire(needs_start & ~started.converged,
                             PathStatus.START_FAILED)
            if self.skip_certified_endgame:
                # Residual-aware resume: lanes parked at t >= 1 whose
                # checkpointed residual already certifies the endgame
                # tolerance retire as successes without the re-entry round.
                certified = ((batch.t >= 1.0)
                             & (batch.status == int(PathStatus.TRACKING))
                             & (batch.residual <= opts.end_tolerance))
                if certified.any():
                    batch.retire(certified, PathStatus.SUCCESS)
                    batch.endgame_skipped = int(certified.sum())
        else:
            batch = PathBatch.from_start_solutions(backend, starts,
                                                   opts.initial_step)
            batch.rounds = 0  # dynamic attribute: lock-step rounds of this batch

            # Make sure the start points actually lie on the path at t = 0.
            start_corrector = self._corrector(batch.t, opts.corrector_tolerance,
                                              opts.end_iterations)
            started = start_corrector.correct(batch.points, batch.active)
            batch.newton_iterations += started.iterations
            batch.residual = started.residual_norm
            batch.points = backend.where(started.converged, started.solution,
                                         batch.points)
            batch.retire(batch.active & ~started.converged, PathStatus.START_FAILED)

        while True:
            lanes = np.flatnonzero(batch.active
                                   & (batch.attempts < opts.max_steps))
            if not lanes.size:
                break
            batch.rounds += 1
            sub = batch.select(lanes)
            self._advance(sub)
            batch.scatter(lanes, sub)

        batch.retire(batch.active, PathStatus.MAX_STEPS)
        self._endgame(batch)
        return batch

    def _advance(self, sub: PathBatch) -> None:
        """One predictor-corrector-stepcontrol round on live lanes only."""
        opts = self.options
        backend = self.backend
        control = self._step_control

        sub.attempts += 1
        next_t = np.minimum(1.0, sub.t + sub.dt)
        predicted = self._predictor.predict(
            self.homotopy, sub.points, sub.prev_points,
            sub.t, sub.prev_t, next_t - sub.t, sub.has_prev)

        corrector = self._corrector(next_t, opts.corrector_tolerance,
                                    opts.corrector_iterations)
        corrected = corrector.correct(predicted, sub.active)
        sub.newton_iterations += corrected.iterations
        sub.residual = np.where(sub.active, corrected.residual_norm, sub.residual)

        accepted = sub.active & corrected.converged
        rejected = sub.active & ~corrected.converged

        if accepted.any():
            # The scalar tracker remembers the pre-step point for the secant
            # predictor before moving; do the same lane-wise.
            sub.prev_points = backend.where(accepted, sub.points, sub.prev_points)
            sub.prev_t = np.where(accepted, sub.t, sub.prev_t)
            sub.has_prev |= accepted
            sub.points = backend.where(accepted, corrected.solution, sub.points)
            sub.t = np.where(accepted, next_t, sub.t)
            sub.steps_accepted += accepted
            sub.consecutive_successes += accepted
            sub.dt = np.where(accepted, control.grown(sub.dt, sub.t), sub.dt)
            # Lanes that reached t = 1 leave the main loop; the endgame
            # sharpens them together afterwards.
            finished = accepted & (sub.t >= 1.0)
            sub.active &= ~finished

        if rejected.any():
            sub.consecutive_successes[rejected] = 0
            sub.dt = np.where(rejected, control.shrunk(sub.dt), sub.dt)
            # Retries of a rejection clipped to t = 1 repeat it bit for bit:
            # skip them, charged as if they ran.
            budget = np.where(rejected & (next_t == 1.0),
                              opts.max_steps - sub.attempts, 0)
            sub.dt, retries = control.clipped_retries(sub.t, sub.dt, budget)
            sub.attempts += retries
            sub.steps_rejected += rejected + retries
            sub.newton_iterations += retries * corrected.iterations
            sub.retire(rejected & control.underflowed(sub.dt),
                       PathStatus.STEP_UNDERFLOW)

    def _endgame(self, batch: PathBatch) -> None:
        """Sharpen every lane that reached t = 1 with a batched end Newton."""
        opts = self.options
        backend = self.backend
        pending = (batch.status == int(PathStatus.TRACKING)) & (batch.t >= 1.0)
        if not pending.any():
            return
        lanes = np.flatnonzero(pending)
        sub = batch.select(lanes)
        corrector = self._corrector(np.ones(sub.n_paths), opts.end_tolerance,
                                    opts.end_iterations)
        final = corrector.correct(sub.points, np.ones(sub.n_paths, dtype=bool))
        sub.newton_iterations += final.iterations
        sub.residual = final.residual_norm
        sub.points = backend.where(final.converged, final.solution, sub.points)
        sub.status = np.where(final.converged, int(PathStatus.SUCCESS),
                              int(PathStatus.ENDGAME_FAILED)).astype(np.int8)
        batch.scatter(lanes, sub)

    # ------------------------------------------------------------------
    def _lane_results(self, batch: PathBatch) -> List[PathResult]:
        results = []
        for lane in range(batch.n_paths):
            status = PathStatus(int(batch.status[lane]))
            results.append(PathResult(
                success=status is PathStatus.SUCCESS,
                solution=self.backend.lane_scalars(batch.points, lane),
                residual=float(batch.residual[lane]),
                steps_accepted=int(batch.steps_accepted[lane]),
                steps_rejected=int(batch.steps_rejected[lane]),
                newton_iterations=int(batch.newton_iterations[lane]),
                failure_reason=_FAILURE_REASONS.get(status),
            ))
        return results


def batch_rounds_of(batch: PathBatch) -> int:
    """Lock-step rounds a batch ran (tolerant of hand-built batches)."""
    return int(getattr(batch, "rounds", 0))
