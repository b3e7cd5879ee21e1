"""Adaptive proclet splitting and merging (§3.3).

Two controllers:

* :class:`ShardSizeController` keeps memory and storage shards granular:
  whenever a heap change of a registered shard leaves its size reading
  above its structure's ``max_shard_bytes`` it asks the structure to
  split it; shards that shrink below ``min_shard_bytes`` are merged into
  a neighbour.  Bounding shard size bounds migration latency — the
  paper's stated reason for the rule.

* :class:`ComputeAutoscaler` matches a compute pool's production rate to
  a downstream consumer (Fig. 3): it samples queue flow every
  ``autoscale_period``, estimates production/consumption rates with
  EWMAs, and splits or merges compute proclets to reach the implied
  proclet count.  With the default constants a 2x consumption step
  re-equilibrates in 10–15 ms, the number the paper reports.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, Optional, Set

from ..autoscale import policy
from ..runtime import ProcletStatus
from ..units import MS
from .config import QuicksandConfig
from .pressure import RateEstimator

#: EWMA time constant of the compute autoscaler's rate estimates.
_RATE_TIME_CONSTANT = 4 * MS
#: Queue length (in batches) the compute autoscaler tolerates.
_QUEUE_SETPOINT = 8.0
#: Minimum time between two compute scaling actions.
_SCALE_COOLDOWN = 2 * MS


class ShardSizeController:
    """Watches registered shards and keeps their sizes in band.

    The paper's heap-change *policy* (§3.3): it reacts to every heap
    change of a registered shard and runs the split or merge through
    the structure's two-phase protocol
    (:mod:`repro.autoscale.reshard`), the same one the autoscaler uses.

    .. deprecated::
        The :class:`repro.autoscale.ShardAutoscaler` loop supersedes
        this controller (cool-downs, a concurrency cap,
        detector-driven freezing).  It stays the default because the
        pinned ``paper`` benchmark digest and the Fig. 1-3 outputs come
        from its reaction timing (it reacts at the heap change, the
        autoscaler at its next sampling period); replacing it re-pins
        those.  Both share their size thresholds via
        :mod:`repro.autoscale.policy`, and
        ``Quicksand.enable_autoscaler()`` detaches it.
    """

    def __init__(self, qs):
        self.qs = qs
        self._owners: Dict[int, object] = {}  # proclet_id -> sharded DS
        self._busy: Set[int] = set()
        self._detached = False
        self.splits_requested = 0
        self.merges_requested = 0
        qs.runtime.on_heap_change(self._on_heap_change)

    def detach(self) -> None:
        """Permanently stop reacting to heap changes (the enable hook
        for the replacement autoscaler calls this; there is no way to
        remove the runtime's heap listener, so the hook stays registered
        as a no-op)."""
        self._detached = True
        self._owners.clear()
        self._busy.clear()

    def register(self, shard_ref, ds) -> None:
        """Track *shard_ref* on behalf of sharded structure *ds*.

        *ds* must provide ``reshard_split_by_id`` /
        ``reshard_merge_by_id`` / ``wants_merge`` (see
        :class:`repro.autoscale.reshard.ReshardHooks`).
        """
        self._owners[shard_ref.proclet_id] = ds
        # A shard created by a split may itself be born oversized (writes
        # kept landing while the parent was being divided): check now.
        self._on_heap_change(shard_ref.proclet)

    def unregister(self, shard_ref) -> None:
        self._owners.pop(shard_ref.proclet_id, None)
        self._busy.discard(shard_ref.proclet_id)

    def _on_heap_change(self, proclet) -> None:
        if self._detached:
            return
        ds = self._owners.get(proclet.id)
        if ds is None or proclet.id in self._busy:
            return
        if proclet.status is not ProcletStatus.RUNNING:
            # An op (split/merge/migration) already holds this proclet's
            # gate; retrying now would spin at the current timestamp.
            # Whoever holds the gate re-checks on completion.
            return
        recovery = self.qs.runtime.recovery
        if recovery is not None and recovery.restoring(proclet.id):
            # Mid-restore the shard looks transiently empty (a lineage
            # replay refills it write by write); merging it away now
            # would destroy the incarnation being recovered.  The
            # manager re-pokes this hook when the restore completes.
            return
        size = ds.shard_bytes(proclet)
        if policy.oversized(size, ds.max_shard_bytes):
            self._busy.add(proclet.id)
            self.splits_requested += 1
            self.qs.sim.call_in(0.0, self._run_split, proclet.id, ds)
        elif (policy.undersized(size, ds.min_shard_bytes)
              and ds.wants_merge(proclet.id)):
            self._busy.add(proclet.id)
            self.merges_requested += 1
            self.qs.sim.call_in(0.0, self._run_merge, proclet.id, ds)

    def _run_split(self, proclet_id: int, ds) -> None:
        ev = ds.reshard_split_by_id(proclet_id)
        if ev is None:
            self._busy.discard(proclet_id)
            return
        ev.subscribe(lambda e: self._done(proclet_id, e))

    def _run_merge(self, proclet_id: int, ds) -> None:
        ev = ds.reshard_merge_by_id(proclet_id)
        if ev is None:
            self._busy.discard(proclet_id)
            return
        ev.subscribe(lambda e: self._done(proclet_id, e))

    def _done(self, proclet_id: int, event) -> None:
        """A split/merge finished: re-check, since many writes may have
        landed while we were busy and the shard can still be oversized.

        Only re-check when the op actually did something — a declined op
        (value ``None``: shard unsplittable, nowhere to place, ...) would
        otherwise retrigger itself forever at the same timestamp.  The
        next real heap change re-evaluates declined shards naturally.
        """
        self._busy.discard(proclet_id)
        if not event.ok or event.value is None:
            return
        if event.value is not True:
            # A split: its child was registered at commit while still
            # gated, when the size check skips it.
            _split_key, child_ref = event.value
            self._recheck(child_ref.proclet_id)
        self._recheck(proclet_id)

    def _recheck(self, proclet_id: int) -> None:
        proclet = self.qs.runtime._proclets.get(proclet_id)
        if proclet is not None:
            self._on_heap_change(proclet)


class ComputeAutoscaler:
    """Matches compute-pool output to a downstream consumption rate.

    Parameters
    ----------
    pool:
        A :class:`repro.compute.ComputePool` to scale.
    queue:
        A :class:`repro.ds.ShardedQueue` sitting between the pool
        (producer) and the consumer; its push/pop counters provide the
        rate signals.
    nominal_task_rate:
        Expected tasks/second of one pool member at full speed; used to
        bootstrap before measurements accumulate.
    """

    def __init__(self, qs, pool, queue, nominal_task_rate: float,
                 min_members: int = 1, max_members: Optional[int] = None,
                 demand_fn=None, confirm_samples: int = 3):
        if nominal_task_rate <= 0:
            raise ValueError("nominal_task_rate must be positive")
        if confirm_samples < 1:
            raise ValueError("confirm_samples must be >= 1")
        self.qs = qs
        self.pool = pool
        self.queue = queue
        #: Optional declared-demand signal: a callable returning the
        #: consumer's current demand in tasks/second.  This models §4's
        #: "after learning of a change in GPU resources" — the trainer
        #: reports its achievable consumption rate, and the controller
        #: reacts once the change has been confirmed for a few samples.
        #: Without it the controller falls back to pure queue signals
        #: (waits + measured pops), which converge but dither by ±1.
        self.demand_fn = demand_fn
        self.confirm_samples = confirm_samples
        self._demand_history = []
        self.config: QuicksandConfig = qs.config
        self.nominal_task_rate = nominal_task_rate
        self.min_members = min_members
        self.max_members = max_members
        self.production = RateEstimator(_RATE_TIME_CONSTANT)
        self.consumption = RateEstimator(_RATE_TIME_CONSTANT)
        self._last_pushed = 0
        self._last_popped = 0
        self._last_waits = 0
        self._waits_delta = 0
        self._cooldown_until = 0.0
        self.scale_ups = 0
        self.scale_downs = 0
        self.decisions = []  # (time, desired, actual) trace for Fig. 3
        self._stopped = False
        self._process = qs.sim.spawn(self._loop(), name="autoscaler")

    def stop(self) -> None:
        self._stopped = True

    @property
    def members(self) -> int:
        """Producing members including splits already in flight."""
        return self.pool.effective_size

    def _loop(self) -> Generator:
        period = self.config.autoscale_period
        while not self._stopped:
            yield self.qs.sim.timeout(period)
            now = self.qs.sim.now
            pushed, popped = self.queue.pushed, self.queue.popped
            self.production.update(now, pushed - self._last_pushed)
            self.consumption.update(now, popped - self._last_popped)
            self._last_pushed, self._last_popped = pushed, popped
            waits = self.queue.waits
            self._waits_delta = waits - self._last_waits
            self._last_waits = waits
            self._decide(now)

    def _desired_members(self) -> int:
        """Members implied by the *measured* consumption rate.

        Only meaningful while the queue is non-empty (then pops reflect
        the consumer's true demand); when the consumer is starving the
        wait signal below takes over instead.  Capacity per member uses
        the *nominal* task rate: dividing a lagging production EWMA by a
        just-changed member count is exactly the noise source that sends
        feedback controllers into limit cycles.
        """
        cons = self.consumption.rate
        if cons <= 0:
            return self.members
        return max(self.min_members,
                   min(self.max_members or 10**9,
                       math.ceil(cons / self.nominal_task_rate - 0.05)))

    def _decide(self, now: float) -> None:
        if self.demand_fn is not None:
            self._decide_declared(now)
            return
        desired = self._desired_members()
        actual = self.members
        self.decisions.append((now, desired, actual))
        if now < self._cooldown_until:
            return
        backlog = self.queue.length

        # Consumer starving: it blocked on an empty queue since the last
        # sample.  Measured consumption == production in this regime, so
        # the true demand is unknown; step up multiplicatively until the
        # waits stop (reaches any demand in O(log) cooldown periods).
        starving = self._waits_delta > 0 and backlog < _QUEUE_SETPOINT
        if starving:
            step = max(1, math.ceil(actual / 2))
            if self.max_members is not None:
                step = min(step, self.max_members - actual)
            if step <= 0:
                return
            added = self.pool.grow(step)
            if added:
                self.scale_ups += added
                self._cooldown_until = now + _SCALE_COOLDOWN
            return

        # Producers outrunning the consumer: the backlog confirms it and
        # the measured consumption rate is trustworthy.  Merge toward the
        # implied count, at most two per cooldown: scaling down has no
        # deadline (only efficiency), and gentle steps avoid overshooting
        # into a starve-grow limit cycle.
        if backlog > 2 * _QUEUE_SETPOINT and desired < actual:
            removed = self.pool.shrink(min(actual - desired, 2))
            if removed:
                self.scale_downs += removed
                self._cooldown_until = now + _SCALE_COOLDOWN

    def _decide_declared(self, now: float) -> None:
        """Scaling against a declared consumer-demand rate (Fig. 3).

        The demand reading must hold steady for ``confirm_samples``
        periods before the controller acts — a real deployment cannot
        distinguish a step change from jitter on one sample.
        """
        demand = float(self.demand_fn())
        desired = max(self.min_members,
                      min(self.max_members or 10**9,
                          math.ceil(demand / self.nominal_task_rate
                                    - 0.05)))
        actual = self.members
        self.decisions.append((now, desired, actual))
        self._demand_history.append(desired)
        if len(self._demand_history) > self.confirm_samples:
            self._demand_history.pop(0)
        confirmed = (len(self._demand_history) == self.confirm_samples
                     and len(set(self._demand_history)) == 1)
        if not confirmed or now < self._cooldown_until:
            return
        if desired > actual:
            added = self.pool.grow(desired - actual)
            if added:
                self.scale_ups += added
                self._cooldown_until = now + _SCALE_COOLDOWN
                self.qs.runtime.decide(
                    "autoscale", f"grow +{added} (declared demand)",
                    desired=desired, actual=actual)
        elif desired < actual:
            removed = self.pool.shrink(actual - desired)
            if removed:
                self.scale_downs += removed
                self._cooldown_until = now + _SCALE_COOLDOWN
                self.qs.runtime.decide(
                    "autoscale", f"shrink -{removed} (declared demand)",
                    desired=desired, actual=actual)

    def member_count_series(self):
        """(time, members) trace — the Fig. 3 y-axis."""
        return [(t, actual) for t, _d, actual in self.decisions]
