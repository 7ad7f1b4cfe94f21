"""Unit tests for the shared capped/jittered backoff policy.

All deterministic: delays are pure functions of (attempt, rng), and the
"fake clock" scheduling test drives ``not_before`` timestamps by hand --
the policy is never allowed to sleep anything itself.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.service import BackoffPolicy


class TestDelaySchedule:
    def test_unjittered_exponential_up_to_the_cap(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_zero_base_never_waits(self):
        policy = BackoffPolicy(base=0.0, cap=0.0, jitter=0.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(50, random.Random(7)) == 0.0

    def test_jitter_draws_stay_in_band_and_are_seeded(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=10.0, jitter=0.5)
        draws = [policy.delay(3, random.Random(seed)) for seed in range(50)]
        assert all(0.2 <= d <= 0.4 for d in draws)  # [(1-j)*d, d]
        assert len(set(draws)) > 1  # actually jittered
        assert policy.delay(3, random.Random(4)) == \
            policy.delay(3, random.Random(4))  # deterministic under a seed

    def test_without_rng_jitter_is_skipped(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=10.0, jitter=0.5)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_sharded_default_doubles_from_base_up_to_the_cap(self):
        import inspect

        from repro.service.sharded import (DEFAULT_RETRY_BACKOFF,
                                           solve_system_sharded)

        parameters = inspect.signature(solve_system_sharded).parameters
        policy = parameters["backoff"].default
        assert policy is DEFAULT_RETRY_BACKOFF
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(20) == pytest.approx(0.8)  # capped, not 2**19
        assert policy.delay(3, random.Random(1)) == policy.delay(3)  # no jitter


class TestFakeClockScheduling:
    """The coordinator pattern: delays become ``not_before`` timestamps
    compared against a clock the test owns -- no real sleeping anywhere."""

    def test_retry_schedule_against_a_fake_clock(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=4.0, jitter=0.0)
        now = 100.0
        fired = []
        not_before = now
        for attempt in (1, 2, 3, 4):
            not_before = now + policy.delay(attempt)
            # advance the fake clock straight to the deadline
            now = not_before
            fired.append(now)
        assert fired == [101.0, 103.0, 107.0, 111.0]

    def test_ready_check_is_a_pure_comparison(self):
        policy = BackoffPolicy(base=2.0, factor=2.0, cap=8.0, jitter=0.0)
        not_before = 50.0 + policy.delay(1)
        assert not 51.0 >= not_before  # too early: not dispatched
        assert 52.0 >= not_before      # due: dispatched


class TestValidation:
    def test_bad_parameters_are_refused(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=-0.1)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=1.0, cap=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(jitter=1.0)

    def test_attempts_are_one_based(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy().delay(0)
