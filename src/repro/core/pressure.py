"""Pressure signals: how Quicksand notices resources running out.

§5 of the paper: "Queueing delay could be one such signal to detect idle
cores, but more techniques are needed for memory, storage, etc."  We use:

* CPU — *starvation*: a fluid work item whose assigned rate is zero is
  exactly a thread sitting in a runqueue accruing queueing delay;
* memory — high-watermark crossings on the DRAM ledger;
* queues — exponentially-weighted production/consumption rates, driving
  the compute autoscaler.
"""

from __future__ import annotations

import math
from typing import Optional


class RateEstimator:
    """EWMA event-rate estimator over virtual time.

    ``update(t, count)`` feeds *count* events observed since the last
    update; :meth:`rate` reads the smoothed events/second.
    """

    def __init__(self, time_constant: float, initial: float = 0.0):
        if time_constant <= 0:
            raise ValueError(f"time_constant must be positive: {time_constant}")
        self.time_constant = time_constant
        self._rate = initial
        self._last: Optional[float] = None

    def update(self, now: float, count: float) -> float:
        """Fold in *count* events since the previous update."""
        if self._last is None:
            self._last = now
            return self._rate
        dt = now - self._last
        self._last = now
        if dt <= 0:
            return self._rate
        instantaneous = count / dt
        alpha = 1.0 - math.exp(-dt / self.time_constant)
        self._rate += alpha * (instantaneous - self._rate)
        return self._rate

    @property
    def rate(self) -> float:
        return self._rate

    def reset(self, rate: float = 0.0) -> None:
        self._rate = rate
        self._last = None


class StarvationTracker:
    """Tracks how long each proclet has been CPU-starved.

    The local scheduler feeds it observations from the fluid scheduler's
    rate reassignments and asks "has this proclet been starved for longer
    than the patience threshold?"
    """

    def __init__(self, sim):
        self.sim = sim
        self._starved_since: dict = {}  # proclet_id -> time

    def observe(self, proclet_id: int, starved: bool) -> None:
        if starved:
            self._starved_since.setdefault(proclet_id, self.sim.now)
        else:
            self._starved_since.pop(proclet_id, None)

    def starved_for(self, proclet_id: int) -> float:
        since = self._starved_since.get(proclet_id)
        if since is None:
            return 0.0
        return self.sim.now - since

    def is_starved(self, proclet_id: int, patience: float) -> bool:
        # Small relative slack: the check timer fires at exactly
        # `patience` after the observation, and float addition can land
        # an ulp short.
        return self.starved_for(proclet_id) >= patience * (1.0 - 1e-9)

    def is_starving_now(self, proclet_id: int) -> bool:
        return proclet_id in self._starved_since

    @property
    def empty(self) -> bool:
        """True when no proclet's starvation clock is running."""
        return not self._starved_since

    def clear(self, proclet_id: int) -> None:
        self._starved_since.pop(proclet_id, None)
