"""Capped, jittered exponential backoff shared by the service layer.

Two consumers, one policy object:

* the sharded coordinator's retry path (a crashed/hung shard-rung is
  rescheduled after ``delay(attempt)`` seconds), and
* the worker pool's respawn path (a dead worker slot is respawned after
  ``delay(spawn_failures)`` seconds).

Neither consumer ever calls :func:`time.sleep` on the coordinator thread:
a delay is realised as a ``not_before`` timestamp that the supervisor's
dispatch loop compares against its clock, so one backing-off shard never
blocks dispatch, heartbeat monitoring, or work-stealing for the others.
That also makes the policy trivially testable with a fake clock -- the
tests drive ``delay`` plus an explicit ``now`` and never sleep.

The jitter is multiplicative and symmetric-below: with ``jitter=0.5`` the
delay is drawn uniformly from ``[0.5 * d, d]`` where ``d`` is the capped
exponential ``min(cap, base * factor**(attempt-1))``.  Jitter draws come
from a caller-supplied :class:`random.Random` so drills stay
deterministic under a seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from ..errors import ConfigurationError

__all__ = ["BackoffPolicy"]


@dataclasses.dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with bounded multiplicative jitter.

    ``delay(attempt)`` for attempts 1, 2, 3, ... grows as
    ``base * factor**(attempt-1)`` up to ``cap``, then a jitter fraction
    is subtracted uniformly at random: the returned delay lies in
    ``[(1-jitter) * d, d]``.  ``base=0`` disables waiting entirely
    (useful in tests)."""

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.base < 0.0:
            raise ConfigurationError(
                f"backoff base must be >= 0, got {self.base!r}")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.factor!r}")
        if self.cap < self.base:
            raise ConfigurationError(
                f"backoff cap {self.cap!r} is below the base {self.base!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"backoff jitter must lie in [0, 1), got {self.jitter!r}")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The wait before retry ``attempt`` (1-based); never negative."""
        if attempt < 1:
            raise ConfigurationError(
                f"backoff attempt numbers are 1-based, got {attempt!r}")
        if self.base == 0.0:
            return 0.0
        capped = min(self.cap, self.base * self.factor ** (attempt - 1))
        if self.jitter == 0.0 or rng is None:
            return capped
        floor = capped * (1.0 - self.jitter)
        return floor + (capped - floor) * rng.random()
