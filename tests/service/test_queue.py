"""Tests for the bounded async job-queue front end of the solve service.

The queue's own behaviour (states, backpressure, error propagation) is
tested against stub solvers -- no process pools -- so these run in
milliseconds; one tier-1 integration test drives a real sharded solve
through the queue.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (JobCancelledError, JobNotFoundError, QueueFullError,
                          RateLimitedError, ServiceError, SolveTimeoutError)
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.service import SolveService


def tiny_system():
    return PolynomialSystem([Polynomial([
        (1 + 0j, Monomial((0,), (2,))),
        (-1 + 0j, Monomial((), ())),
    ])])


class TestLifecycle:
    def test_submit_poll_result_round_trip(self):
        outcome = object()
        with SolveService(solver=lambda system, **kw: outcome) as service:
            job = service.submit(tiny_system())
            assert job == "job-1"
            report = service.result(job, timeout=10)
            assert report is outcome
            status = service.poll(job)
            assert status.state == "done"
            assert status.finished
            assert status.report is outcome
            assert status.error is None

    def test_jobs_get_distinct_ids_and_keep_results(self):
        with SolveService(solver=lambda system, **kw: id(system)) as service:
            first = service.submit(tiny_system())
            second = service.submit(tiny_system())
            assert first != second
            service.result(second, timeout=10)
            # Late polls of the earlier job still see its terminal state.
            service.result(first, timeout=10)
            assert service.poll(first).state == "done"

    def test_defaults_merge_under_overrides(self):
        seen = {}

        def recorder(system, **kwargs):
            seen.update(kwargs)
            return "ok"

        with SolveService(solver=recorder, shards=4,
                          max_retries=5) as service:
            job = service.submit(tiny_system(), shards=2)
            service.result(job, timeout=10)
        assert seen == {"shards": 2, "max_retries": 5}

    def test_unknown_job_id(self):
        with SolveService(solver=lambda system, **kw: None) as service:
            with pytest.raises(JobNotFoundError):
                service.poll("job-999")
            with pytest.raises(JobNotFoundError):
                service.result("nope")

    def test_submit_after_shutdown_is_refused(self):
        service = SolveService(solver=lambda system, **kw: None)
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit(tiny_system())
        service.shutdown()  # idempotent


class TestFailures:
    def test_failed_solve_reraises_from_result(self):
        def exploding(system, **kw):
            raise ValueError("no convergence today")

        with SolveService(solver=exploding) as service:
            job = service.submit(tiny_system())
            with pytest.raises(ValueError, match="no convergence"):
                service.result(job, timeout=10)
            status = service.poll(job)
            assert status.state == "failed"
            assert isinstance(status.error, ValueError)
            assert status.report is None

    def test_one_failure_does_not_poison_the_worker(self):
        calls = []

        def flaky(system, **kw):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first job dies")
            return "second job fine"

        with SolveService(solver=flaky) as service:
            bad = service.submit(tiny_system())
            good = service.submit(tiny_system())
            assert service.result(good, timeout=10) == "second job fine"
            assert service.poll(bad).state == "failed"

    def test_result_timeout(self):
        gate = threading.Event()

        def blocked(system, **kw):
            gate.wait(10)
            return "late"

        service = SolveService(solver=blocked)
        try:
            job = service.submit(tiny_system())
            with pytest.raises(TimeoutError):
                service.result(job, timeout=0.05)
        finally:
            gate.set()
            service.shutdown()

    def test_result_timeout_carries_the_job_state(self):
        """SolveTimeoutError is a TimeoutError that tells the caller what
        the job was doing when patience ran out -- 'still running' is
        distinguishable from 'lost'."""
        started = threading.Event()
        gate = threading.Event()

        def blocked(system, **kw):
            started.set()
            gate.wait(10)
            return "late"

        service = SolveService(solver=blocked)
        try:
            job = service.submit(tiny_system())
            assert started.wait(5)
            with pytest.raises(SolveTimeoutError) as excinfo:
                service.result(job, timeout=0.05)
            assert excinfo.value.job_id == job
            assert excinfo.value.state == "running"
            assert isinstance(excinfo.value, TimeoutError)
        finally:
            gate.set()
            service.shutdown()


class TestCancellation:
    def test_cancel_queued_job_before_it_runs(self):
        """A queued job can be declined: cancel() flips it to a terminal
        ``cancelled`` state, the drain thread skips it, and result()
        raises JobCancelledError immediately (no waiting)."""
        started = threading.Event()
        gate = threading.Event()

        def blocked(system, **kw):
            started.set()
            gate.wait(10)
            return "done"

        service = SolveService(capacity=4, workers=1, solver=blocked)
        try:
            running = service.submit(tiny_system())
            assert started.wait(5)  # the single worker is now occupied
            queued = service.submit(tiny_system())
            assert service.cancel(queued) is True
            status = service.poll(queued)
            assert status.state == "cancelled"
            assert status.finished
            with pytest.raises(JobCancelledError, match="cancelled"):
                service.result(queued, timeout=5)
            gate.set()
            assert service.result(running, timeout=10) == "done"
            # The cancelled job never reached the solver.
            assert service.poll(queued).state == "cancelled"
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_running_job_is_refused(self):
        started = threading.Event()
        gate = threading.Event()

        def blocked(system, **kw):
            started.set()
            gate.wait(10)
            return "done"

        service = SolveService(solver=blocked)
        try:
            job = service.submit(tiny_system())
            assert started.wait(5)
            assert service.cancel(job) is False  # already running
            gate.set()
            assert service.result(job, timeout=10) == "done"
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_terminal_job_is_refused_and_idempotent(self):
        with SolveService(solver=lambda system, **kw: "ok") as service:
            job = service.submit(tiny_system())
            service.result(job, timeout=10)
            assert service.cancel(job) is False
            assert service.cancel(job) is False  # still False, no raise
            assert service.poll(job).state == "done"

    def test_cancel_unknown_job_raises(self):
        with SolveService(solver=lambda system, **kw: "ok") as service:
            with pytest.raises(JobNotFoundError):
                service.cancel("job-999")


class TestBackpressure:
    def test_full_queue_raises_queue_full(self):
        started = threading.Event()
        gate = threading.Event()

        def blocked(system, **kw):
            started.set()
            gate.wait(10)
            return "done"

        service = SolveService(capacity=1, workers=1, solver=blocked)
        try:
            running = service.submit(tiny_system())
            assert started.wait(5)  # worker busy; queue now empty
            queued = service.submit(tiny_system())  # fills the queue
            with pytest.raises(QueueFullError):
                service.submit(tiny_system())
            # The rejected submission left no ghost job behind.
            with pytest.raises(JobNotFoundError):
                service.poll("job-3")
            gate.set()
            assert service.result(running, timeout=10) == "done"
            assert service.result(queued, timeout=10) == "done"
            # With the backlog drained, submits are accepted again.
            assert service.result(service.submit(tiny_system()),
                                  timeout=10) == "done"
        finally:
            gate.set()
            service.shutdown()

    def test_capacity_and_worker_validation(self):
        with pytest.raises(ServiceError):
            SolveService(capacity=0)
        with pytest.raises(ServiceError):
            SolveService(workers=0)


class FakeClock:
    """Hand-driven monotonic clock for deterministic bucket tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRateLimiting:
    def make_service(self, *, rate_limit, burst=None, capacity=64):
        clock = FakeClock()
        service = SolveService(capacity=capacity, rate_limit=rate_limit,
                               burst=burst, clock=clock,
                               solver=lambda system, **kw: "ok")
        return service, clock

    def test_burst_then_throttled(self):
        service, clock = self.make_service(rate_limit=1.0, burst=3)
        with service:
            for _ in range(3):
                service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError, match="'alice'"):
                service.submit(tiny_system(), client="alice")

    def test_rate_limited_is_not_queue_full(self):
        service, clock = self.make_service(rate_limit=1.0, burst=1)
        with service:
            service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError) as excinfo:
                service.submit(tiny_system(), client="alice")
            assert not isinstance(excinfo.value, QueueFullError)
            assert isinstance(excinfo.value, ServiceError)

    def test_throttled_submit_leaves_no_ghost_job_and_burns_no_id(self):
        service, clock = self.make_service(rate_limit=1.0, burst=1)
        with service:
            service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError):
                service.submit(tiny_system(), client="alice")
            with pytest.raises(JobNotFoundError):
                service.poll("job-2")
            clock.advance(1.0)
            # Job ids continue densely: the throttled attempt burned none.
            assert service.submit(tiny_system(), client="alice") == "job-2"

    def test_bucket_refills_at_the_configured_rate(self):
        service, clock = self.make_service(rate_limit=2.0, burst=2)
        with service:
            service.submit(tiny_system(), client="alice")
            service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError):
                service.submit(tiny_system(), client="alice")
            clock.advance(0.5)  # 2 tokens/s -> one token back
            service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError):
                service.submit(tiny_system(), client="alice")

    def test_clients_do_not_share_buckets(self):
        service, clock = self.make_service(rate_limit=1.0, burst=1)
        with service:
            service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError):
                service.submit(tiny_system(), client="alice")
            # Bob's bucket is untouched by Alice's throttling.
            service.submit(tiny_system(), client="bob")

    def test_refill_caps_at_burst(self):
        service, clock = self.make_service(rate_limit=1.0, burst=2)
        with service:
            clock.advance(100.0)  # a long idle must not bank 100 tokens
            service.submit(tiny_system(), client="alice")
            service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError):
                service.submit(tiny_system(), client="alice")

    def test_no_rate_limit_by_default(self):
        with SolveService(capacity=64,
                          solver=lambda system, **kw: "ok") as service:
            for _ in range(20):
                service.submit(tiny_system(), client="alice")

    def test_rate_limit_validation(self):
        with pytest.raises(ServiceError):
            SolveService(rate_limit=0.0)
        with pytest.raises(ServiceError):
            SolveService(rate_limit=-1.0)
        with pytest.raises(ServiceError):
            SolveService(rate_limit=1.0, burst=0)
        with pytest.raises(ServiceError):
            SolveService(burst=4)  # burst without a rate makes no sense

    def test_burst_defaults_to_rate_ceiling(self):
        service, clock = self.make_service(rate_limit=2.5)  # burst -> 3
        with service:
            for _ in range(3):
                service.submit(tiny_system(), client="alice")
            with pytest.raises(RateLimitedError):
                service.submit(tiny_system(), client="alice")


class TestFamilyRouting:
    """The family-scoped submit path: jobs naming a family share one
    :class:`~repro.tracking.parameter.ParameterFamily` around the
    service's solver -- first job cold, later jobs member-seeded."""

    @staticmethod
    def family_stub(calls):
        from repro.tracking import Solution, SolveReport

        def stub(system, **kwargs):
            calls.append(kwargs)
            return SolveReport(
                system=system, bezout_number=2, paths_tracked=2,
                paths_converged=2,
                solutions=[Solution(point=(1 + 0j,), residual=0.0),
                           Solution(point=(-1 + 0j,), residual=0.0)],
                start_strategy=(kwargs["start"].name if "start" in kwargs
                                else "total-degree"))
        return stub

    def test_family_jobs_share_a_member(self):
        calls = []
        with SolveService(solver=self.family_stub(calls)) as service:
            first = service.result(
                service.submit(tiny_system(), family="quad"), timeout=10)
            second = service.result(
                service.submit(tiny_system(), family="quad"), timeout=10)
        assert first.start_strategy == "total-degree"
        assert second.start_strategy == "generic-member"
        assert "start" not in calls[0]
        assert calls[1]["start"].member is first.system

    def test_distinct_families_do_not_share_members(self):
        calls = []
        with SolveService(solver=self.family_stub(calls)) as service:
            service.result(service.submit(tiny_system(), family="a"),
                           timeout=10)
            other = service.result(service.submit(tiny_system(), family="b"),
                                   timeout=10)
        assert other.start_strategy == "total-degree"
        assert service.family_stats("a") == \
            {"cold_solves": 1, "warm_serves": 0}

    def test_unnamed_jobs_bypass_families(self):
        calls = []
        with SolveService(solver=self.family_stub(calls)) as service:
            service.result(service.submit(tiny_system()), timeout=10)
            service.result(service.submit(tiny_system()), timeout=10)
        assert all("start" not in call for call in calls)

    def test_family_stats_survive_the_jobs(self):
        calls = []
        with SolveService(solver=self.family_stub(calls)) as service:
            for _ in range(3):
                service.result(service.submit(tiny_system(), family="quad"),
                               timeout=10)
            assert service.family_stats("quad") == \
                {"cold_solves": 1, "warm_serves": 2}
            with pytest.raises(JobNotFoundError):
                service.family_stats("never-submitted")

    def test_family_solves_merge_service_defaults(self):
        calls = []
        with SolveService(solver=self.family_stub(calls),
                          shards=3) as service:
            service.result(service.submit(tiny_system(), family="quad"),
                           timeout=10)
            service.result(service.submit(tiny_system(), family="quad",
                                          shards=1), timeout=10)
        assert calls[0]["shards"] == 3
        assert calls[1]["shards"] == 1


class TestIntegration:
    def test_real_sharded_solve_through_the_queue(self):
        """submit -> poll -> result against the actual process-pool solver."""
        from repro.tracking import solve_system

        system = tiny_system()
        reference = solve_system(system)
        with SolveService(capacity=2, shards=2) as service:
            job = service.submit(system)
            report = service.result(job, timeout=120)
        assert [tuple(s.point) for s in report.solutions] == \
            [tuple(s.point) for s in reference.solutions]
        assert report.shards == 2
        assert service.poll(job).state == "done"
