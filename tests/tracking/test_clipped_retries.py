"""The clipped-retry step rule: identical rejected retries are skipped.

A step from ``t`` targets ``min(1, t + dt)``.  Once a rejected attempt was
clipped to 1.0, every retry whose shrunk step still reaches 1.0 repeats
it bit for bit, so :meth:`StepControl.clipped_retries` replays only the
step-size halvings and the trackers charge the skipped retries as if they
ran.  These tests pin the rule on its own (floats and lane arrays) and
through the batch tracker, where the expected end state is computed here
by replaying :meth:`StepControl.shrunk` attempt by attempt.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.scenarios import get_scenario
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.tracking import BatchTracker, StepControl, TrackerOptions
from repro.tracking.batch_tracker import PathStatus
from repro.tracking.start_systems import start_solutions, total_degree_start_system

CONTROL = StepControl(min_step=1e-6, max_step=0.25, expansion=1.5,
                      reduction=0.5)

#: (t, dt, budget): clipped until the step no longer reaches 1, clipped
#: until underflow, budget-limited, never clipped, and a zero budget.
CASES = [
    (1.0 - 1e-5, 0.05, 500),
    (1.0 - 1e-7, 0.05, 500),
    (1.0 - 1e-5, 0.05, 3),
    (0.5, 0.05, 500),
    (1.0 - 1e-5, 0.05, 0),
    (0.9, 0.2, 500),
]


def per_attempt(control, t, dt, budget):
    """The per-attempt loop the rule stands in for: shrink while the next
    attempt's target is still clipped to 1 and the step survives."""
    k = 0
    while (k < budget and min(1.0, t + dt) == 1.0
           and not control.underflowed(dt)):
        dt = control.shrunk(dt)
        k += 1
    return dt, k


class TestStepControlRule:
    @pytest.mark.parametrize("t, dt, budget", CASES)
    def test_floats_match_the_per_attempt_loop(self, t, dt, budget):
        got_dt, got_k = CONTROL.clipped_retries(t, dt, budget)
        assert (float(got_dt), int(got_k)) == per_attempt(CONTROL, t, dt,
                                                          budget)

    def test_lane_arrays_match_the_per_attempt_loop(self):
        t, dt, budget = (np.array(column) for column in zip(*CASES))
        got_dt, got_k = CONTROL.clipped_retries(t, dt, budget)
        expected = [per_attempt(CONTROL, *case) for case in CASES]
        assert got_dt.tolist() == [e[0] for e in expected]
        assert got_k.tolist() == [e[1] for e in expected]

    def test_stops_at_underflow(self):
        t = 1.0 - 1e-7  # every step above min_step still reaches 1
        dt, k = CONTROL.clipped_retries(t, 0.05, 500)
        assert CONTROL.underflowed(dt)
        assert not CONTROL.underflowed(dt / CONTROL.reduction)
        assert k > 0


def underflowed_noon_checkpoint():
    """A noon-2 lane that retired by step underflow at d, moved to
    ``t = 1 - 1e-5``: its fresh step targets 1.0 and is rejected there."""
    system = get_scenario("noon-2").build_system()
    start = total_degree_start_system(system)
    outcome = BatchTracker(start, system, context=DOUBLE).track_batches(
        list(start_solutions(system)))
    checkpoint = next(cp for cp in outcome.checkpoints()
                      if cp.status is PathStatus.STEP_UNDERFLOW)
    return start, system, replace(checkpoint, t=1.0 - 1e-5)


class TestResumedUnderflowLane:
    """A dd lane resumed from a ``STEP_UNDERFLOW`` checkpoint just short of
    ``t = 1``.  ``min_step`` sits above ``1 - t``, so every attempt of the
    per-attempt loop targets 1.0 and is rejected until the step
    underflows."""

    @staticmethod
    def resume(start, system, checkpoint, **options):
        tracker = BatchTracker(start, system, context=DOUBLE_DOUBLE,
                               options=TrackerOptions(min_step=2e-5,
                                                      **options))
        outcome = tracker.track_batches(resume_from=[checkpoint])
        return outcome, outcome.checkpoints()[0]

    @pytest.fixture(scope="class")
    def lane(self):
        start, system, checkpoint = underflowed_noon_checkpoint()
        # One attempt, no retry budget: the attempt's own cost.
        single, after_one = self.resume(start, system, checkpoint,
                                        max_steps=1)
        assert after_one.status is PathStatus.MAX_STEPS
        assert after_one.steps_rejected == checkpoint.steps_rejected + 1
        iterations = after_one.newton_iterations - checkpoint.newton_iterations
        assert iterations > 0
        return start, system, checkpoint, single.evaluation_log, iterations

    @staticmethod
    def replay(max_steps):
        """The per-attempt loop's end state: (rejections, dt, status)."""
        control = StepControl.from_options(TrackerOptions(min_step=2e-5))
        dt = TrackerOptions().initial_step  # a resumed underflow's fresh step
        attempts = 0
        while attempts < max_steps:
            attempts += 1
            dt = control.shrunk(dt)
            if control.underflowed(dt):
                return attempts, dt, PathStatus.STEP_UNDERFLOW
        return attempts, dt, PathStatus.MAX_STEPS

    @pytest.mark.parametrize("max_steps", [500, 5])
    def test_runs_the_clipped_attempt_once(self, lane, max_steps):
        start, system, checkpoint, one_attempt_log, iterations = lane
        outcome, end = self.resume(start, system, checkpoint,
                                   max_steps=max_steps)
        rejections, dt, status = self.replay(max_steps)
        assert rejections > 1  # the rule had retries to skip
        assert outcome.evaluation_log == one_attempt_log
        assert outcome.rounds == 1
        assert end.status is status
        assert end.dt == dt
        assert end.t == checkpoint.t
        assert end.steps_accepted == checkpoint.steps_accepted
        assert end.steps_rejected == checkpoint.steps_rejected + rejections
        assert end.newton_iterations == \
            checkpoint.newton_iterations + rejections * iterations
