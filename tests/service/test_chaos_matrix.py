"""Chaos drills: every fault mode ends in exact recovery or a recorded
degradation.

Tier-1 covers each failure-taxonomy row once through the in-memory store
on the 16-path escalation workload (hang, slow, corrupt checkpoint, store
I/O error) plus the poison-shard quarantine drill; the full matrix --
every mode crossed with every store backend (memory, file-json, file-npz)
-- is marked ``chaos`` (and ``slow``) and runs under ``make chaos``.

The contract asserted throughout: either the distinct solutions are
bit-for-bit identical to the single-process reference, or the report says
explicitly, in ``degradations`` and the dedicated counters, what was lost
and why.
"""

from __future__ import annotations

import pytest

from repro.bench.batch_tracking import cyclic_quadratic_system
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

#: Canonical drill per mode: fault at the dd rung (level 1) so recovery
#: resumes (or cold-restarts) mid-ladder, the hardest case.
_DRILLS = {
    "kill": FaultInjection(shard=0, level=1, kill_after_rounds=0,
                           mode="kill"),
    "hang": FaultInjection(shard=0, level=1, kill_after_rounds=0,
                           mode="hang", delay_seconds=3.0),
    "slow": FaultInjection(shard=0, level=1, kill_after_rounds=0,
                           mode="slow", delay_seconds=0.05),
    "corrupt-checkpoint": FaultInjection(shard=0, level=1,
                                         kill_after_rounds=0,
                                         mode="corrupt-checkpoint"),
    "store-io-error": FaultInjection(shard=0, level=1, kill_after_rounds=0,
                                     mode="store-io-error"),
}


@pytest.fixture(scope="module")
def reference():
    """Single-process reference of the 16-path escalation workload."""
    return solve_system(cyclic_quadratic_system(4), options=ESCALATION_OPTS,
                        escalation=ESCALATION_POLICY)


def _drill(mode, store, **overrides):
    kwargs = dict(shards=2, options=ESCALATION_OPTS,
                  escalation=ESCALATION_POLICY, store=store,
                  backoff=_NO_BACKOFF, heartbeat_timeout=0.3,
                  fault_injection=_DRILLS[mode])
    kwargs.update(overrides)
    return solve_system_sharded(cyclic_quadratic_system(4), **kwargs)


def _assert_recovered(report, reference, mode):
    """The chaos contract, per mode: exact or explicitly degraded."""
    if mode in ("corrupt-checkpoint", "store-io-error"):
        # The poisoned record forces a cold restart of only that shard:
        # every path still converges, and the report names what happened.
        assert report.cold_restarts_after_corruption >= 1
        assert any("checkpoint reload failed" in d
                   for d in report.degradations)
        assert any("cold restart" in d for d in report.degradations)
        assert report.paths_converged == reference.paths_converged == 16
        assert not report.failures
        assert len(report.solutions) == len(reference.solutions)
    else:
        # kill/hang recover warm from the store, slow needs no recovery:
        # all three must be bit-for-bit.
        assert solution_key(report) == solution_key(reference)
        assert not report.degradations


class TestTaxonomyRows:
    """Tier-1: one drill per failure-taxonomy row, in-memory store."""

    def test_hung_worker_is_killed_and_retried_bit_for_bit(self, reference):
        """No heartbeats for heartbeat_timeout -> SIGKILL -> warm resume;
        the 3 s dead sleep never runs to completion."""
        report = _drill("hang", InMemoryCheckpointStore())
        assert report.hangs_detected >= 1
        assert report.worker_retries >= 1
        assert report.resumed_after_crash >= 1
        _assert_recovered(report, reference, "hang")

    def test_slow_worker_is_waited_out_not_killed(self, reference):
        """Beats keep coming through the slowdown: the supervisor must
        not intervene at all, even with a tight heartbeat timeout."""
        report = _drill("slow", InMemoryCheckpointStore(),
                        heartbeat_timeout=0.2)
        assert report.hangs_detected == 0
        assert report.worker_retries == 0
        _assert_recovered(report, reference, "slow")

    def test_corrupt_checkpoint_cold_restarts_only_that_shard(
            self, reference):
        report = _drill("corrupt-checkpoint", InMemoryCheckpointStore())
        assert report.worker_retries >= 1
        _assert_recovered(report, reference, "corrupt-checkpoint")

    def test_store_read_error_cold_restarts_only_that_shard(
            self, reference):
        report = _drill("store-io-error", InMemoryCheckpointStore())
        assert report.worker_retries >= 1
        _assert_recovered(report, reference, "store-io-error")


class TestQuarantine:
    def test_poison_shard_is_quarantined_other_shard_exact(self):
        """A shard that kills 3 consecutive workers is isolated: its
        lanes come back as explicitly failed paths, and the surviving
        shard's solutions are *exactly* the reference's (a bit-for-bit
        subset, not merely close)."""
        system = decoupled_quadratics()
        reference = solve_system(system)
        report = solve_system_sharded(
            system, shards=2, max_retries=5, backoff=_NO_BACKOFF,
            quarantine_after_kills=3,
            fault_injection=FaultInjection(shard=0, level=0,
                                           kill_after_rounds=0, times=3))
        assert report.quarantined_shards == [0]
        assert any("quarantined" in d for d in report.degradations)
        # The poisoned shard's 2 lanes fail with an explicit reason...
        assert len(report.failures) == 2
        assert all(f.failure_reason.startswith("quarantined")
                   for f in report.failures)
        # ...and the survivor's solutions are an exact subset.
        assert report.paths_converged == 2
        survivor = set(solution_key(report))
        assert survivor and survivor <= set(solution_key(reference))

    def test_quarantine_disabled_raises_instead(self):
        from repro.errors import ShardFailedError
        with pytest.raises(ShardFailedError, match="retries"):
            solve_system_sharded(
                decoupled_quadratics(), shards=2, max_retries=2,
                backoff=_NO_BACKOFF, quarantine_after_kills=None,
                fault_injection=FaultInjection(shard=0, level=0,
                                               kill_after_rounds=0,
                                               times=3))


def _stores(tmp_path):
    return {
        "memory": InMemoryCheckpointStore(),
        "file-json": FileCheckpointStore(tmp_path / "json", codec="json"),
        "file-npz": FileCheckpointStore(tmp_path / "npz", codec="npz"),
    }


@pytest.mark.chaos
@pytest.mark.slow
@pytest.mark.parametrize("backend", ["memory", "file-json", "file-npz"])
@pytest.mark.parametrize("mode", sorted(_DRILLS))
class TestFullMatrix:
    """Every fault mode crossed with every store backend (``make chaos``)."""

    def test_mode_on_backend(self, mode, backend, tmp_path, reference):
        store = _stores(tmp_path)[backend]
        report = _drill(mode, store, job_id=f"chaos-{mode}-{backend}")
        _assert_recovered(report, reference, mode)
