"""Tests for the sharded, crash-tolerant solve coordinator.

The tier-1 tests exercise the real process-pool path at 2 workers on small
systems (a pool fork is ~0.1 s); the full crash-recovery drills on the
escalation workload are marked ``slow``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.batch_tracking import cyclic_quadratic_system
from repro.errors import ConfigurationError, ShardFailedError
from repro.multiprec import DOUBLE, DOUBLE_DOUBLE
from repro.polynomials import Monomial, Polynomial, PolynomialSystem
from repro.service import (
    BackoffPolicy,
    FaultInjection,
    FileCheckpointStore,
    InMemoryCheckpointStore,
    solve_system_sharded,
)
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system

_NO_BACKOFF = BackoffPolicy(base=0.0)


def decoupled_quadratics(values=(2.0, 3.0)):
    polys = []
    for i, a in enumerate(values):
        polys.append(Polynomial([
            (1 + 0j, Monomial((i,), (2,))),
            (-a + 0j, Monomial((), ())),
        ]))
    return PolynomialSystem(polys)


def solution_key(report):
    """The bit-for-bit identity key of a report's distinct solutions."""
    return [(tuple(s.point), s.residual, s.multiplicity)
            for s in report.solutions]


ESCALATION_OPTS = TrackerOptions(end_tolerance=5e-17, end_iterations=12)
ESCALATION_POLICY = EscalationPolicy(ladder=(DOUBLE, DOUBLE_DOUBLE))


@pytest.fixture(scope="module")
def escalation_reference():
    """Single-process reference of the 16-path escalation workload."""
    return solve_system(cyclic_quadratic_system(4), options=ESCALATION_OPTS,
                        escalation=ESCALATION_POLICY)


class TestShardedSmoke:
    """Tier-1: the process-pool path at 2 workers, end to end."""

    def test_two_worker_solve_matches_single_process_bit_for_bit(self):
        system = decoupled_quadratics()
        reference = solve_system(system)
        report = solve_system_sharded(system, shards=2)
        assert solution_key(report) == solution_key(reference)
        assert report.shards == 2
        assert report.worker_retries == 0
        assert report.resumed_after_crash == 0
        assert report.paths_tracked == reference.paths_tracked
        assert report.paths_by_context == reference.paths_by_context
        assert report.converged_by_context == reference.converged_by_context

    def test_escalated_solve_matches_including_accounting(
            self, escalation_reference):
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY)
        assert solution_key(report) == solution_key(escalation_reference)
        assert report.paths_by_context == \
            escalation_reference.paths_by_context
        assert report.converged_by_context == \
            escalation_reference.converged_by_context
        assert report.resumed_by_context == \
            escalation_reference.resumed_by_context
        assert report.resume_t_by_context == \
            escalation_reference.resume_t_by_context
        assert report.recovered_by_escalation == \
            escalation_reference.recovered_by_escalation

    def test_more_shards_than_paths(self):
        system = decoupled_quadratics(values=(2.0,))  # 2 paths
        report = solve_system_sharded(system, shards=5)
        assert report.shards == 2  # empty shards are dropped
        assert solution_key(report) == solution_key(solve_system(system))

    def test_sharded_diagonal_start_matches_single_process(self):
        """``start=`` flows through the shard fan-out: a diagonal start
        tracks the reduced path count and lands on the same roots."""
        from repro.polynomials import triangular_sparse_system
        from repro.tracking import DiagonalStart

        system = triangular_sparse_system(3)
        reference = solve_system(system, start=DiagonalStart())
        report = solve_system_sharded(system, shards=2,
                                      start=DiagonalStart())
        assert report.start_strategy == "diagonal"
        assert report.paths_tracked == reference.paths_tracked == 4
        assert report.bezout_number == 12
        assert solution_key(report) == solution_key(reference)


class TestValidation:
    def test_backendless_rung_is_refused(self):
        orphan = dataclasses.replace(DOUBLE_DOUBLE, name="dd-no-backend")
        with pytest.raises(ConfigurationError, match="batch backend"):
            solve_system_sharded(
                decoupled_quadratics(),
                escalation=EscalationPolicy(ladder=(DOUBLE, orphan)))

    def test_unresolvable_context_name_is_refused(self):
        # Same name as a registered context but a different object: the
        # worker would silently resolve the wrong arithmetic.
        impostor = dataclasses.replace(DOUBLE_DOUBLE, mul_cost_factor=9.0)
        with pytest.raises(ConfigurationError, match="resolvable by name"):
            solve_system_sharded(decoupled_quadratics(), context=impostor)


class TestCrashRecovery:
    def test_retries_exhausted_raises_shard_failed(self):
        """A shard that keeps crashing must surface ShardFailedError, not
        hang or return a partial report."""
        with pytest.raises(ShardFailedError, match="retries"):
            solve_system_sharded(
                decoupled_quadratics(), shards=2, max_retries=0,
                backoff=_NO_BACKOFF,
                fault_injection=FaultInjection(shard=0, level=0,
                                               kill_after_rounds=0))

    @pytest.mark.slow
    def test_killed_worker_resumes_from_persisted_checkpoints(
            self, escalation_reference):
        """The acceptance drill: 2 workers, one hard-killed mid-dd-rung;
        the reschedule resumes warm from the store and the distinct
        solutions stay bit-for-bit identical to single-process."""
        store = InMemoryCheckpointStore()
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY, store=store, backoff=_NO_BACKOFF,
            fault_injection=FaultInjection(shard=0, level=1,
                                           kill_after_rounds=0))
        assert report.worker_retries >= 1
        assert report.resumed_after_crash >= 1
        assert solution_key(report) == solution_key(escalation_reference)
        assert report.paths_converged == 16
        assert not report.failures

    @pytest.mark.slow
    def test_crash_recovery_through_the_file_store(self, tmp_path,
                                                   escalation_reference):
        """Same drill, persisting through the on-disk JSON store; the
        records stay on disk with cleanup=False."""
        store = FileCheckpointStore(tmp_path)
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY, store=store, job_id="drill",
            cleanup=False, backoff=_NO_BACKOFF,
            fault_injection=FaultInjection(shard=0, level=1,
                                           kill_after_rounds=0))
        assert report.worker_retries >= 1
        assert report.resumed_after_crash >= 1
        assert solution_key(report) == solution_key(escalation_reference)
        # The per-shard records survived the solve.
        assert store.shards("drill") == [0, 1]
        record = store.get("drill", 0)
        assert record["level"] == 1  # last persisted rung
        assert record["pending"] == []  # everything converged

    @pytest.mark.slow
    def test_repeated_crashes_within_the_retry_budget(self,
                                                      escalation_reference):
        """Two consecutive kills of the same shard-rung still recover."""
        report = solve_system_sharded(
            cyclic_quadratic_system(4), shards=2, options=ESCALATION_OPTS,
            escalation=ESCALATION_POLICY, max_retries=3, backoff=_NO_BACKOFF,
            fault_injection=FaultInjection(shard=0, level=1,
                                           kill_after_rounds=0, times=2))
        assert report.worker_retries >= 2
        assert solution_key(report) == solution_key(escalation_reference)


class TestStoreLifecycle:
    def test_cleanup_removes_the_job_records(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        solve_system_sharded(decoupled_quadratics(), shards=2, store=store,
                             job_id="gone")
        assert store.shards("gone") == []
        assert not (tmp_path / "gone").exists()

    def test_cleanup_false_keeps_per_rung_state(self):
        store = InMemoryCheckpointStore()
        report = solve_system_sharded(decoupled_quadratics(), shards=2,
                                      store=store, job_id="kept",
                                      cleanup=False)
        assert store.shards("kept") == [0, 1]
        for shard in (0, 1):
            record = store.get("kept", shard)
            assert record["context"] == "d"
            assert set(record["checkpoints"]) == \
                {str(i) for i in record["lanes"]}
        assert report.shards == 2
