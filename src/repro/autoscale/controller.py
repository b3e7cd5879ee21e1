"""The shard autoscaler control loop.

A single DES process samples every tracked range-sharded structure each
``period``: per-shard heap bytes, object counts, and an EWMA of the
routed-call rate are compared against the configured capacity limits,
and out-of-band shards are driven through the two-phase reshard
protocol (:mod:`repro.autoscale.reshard`).  Decisions obey hysteresis
(see :class:`AutoscaleConfig`), a per-shard cool-down, and a
per-structure concurrency cap, so the loop cannot oscillate or stampede.

Fault posture:

* **frozen** — while the failure detector suspects any machine, the
  controller keeps evaluating and *logging* decisions but makes no
  structural change (suspicion means placement information is stale;
  thrashing shards across a possibly-dying cluster helps nobody).
* **degraded** — after ``fault_shed_threshold`` consecutive operations
  fail or are declined (machine failures mid-protocol, no DRAM
  anywhere), the controller sheds to read-only decision logging for
  ``shed_backoff`` seconds, then resumes automatically.

Every decision, phase, and abort is visible: ``autoscale.*`` metric
counters, ``autoscale``/``reshard`` trace events, obs spans from the
protocol generators, and the in-memory ``decisions`` log.
"""

from __future__ import annotations

import functools
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..core.pressure import RateEstimator
from ..runtime.errors import (
    DeadProclet,
    InvalidPlacement,
    MachineFailed,
    MigrationFailed,
)
from ..runtime.proclet import ProcletStatus
from . import policy
from .config import AutoscaleConfig

#: Exceptions a reshard op may legitimately surface under faults; the
#: controller absorbs these (counting toward the shed threshold) and
#: re-raises anything else — an unexpected error is a bug, not weather.
_EXPECTED_ERRORS = (MachineFailed, MigrationFailed, DeadProclet,
                    InvalidPlacement)


class ShardAutoscaler:
    """Monitors shard load/size and drives split/merge decisions."""

    def __init__(self, qs, config: Optional[AutoscaleConfig] = None):
        self.qs = qs
        self.config = config or AutoscaleConfig()
        self.max_shard_bytes = (self.config.max_shard_bytes
                                if self.config.max_shard_bytes is not None
                                else qs.config.max_shard_bytes)
        self.min_shard_bytes = (self.config.min_shard_bytes
                                if self.config.min_shard_bytes is not None
                                else qs.config.min_shard_bytes)
        if self.max_shard_bytes <= self.min_shard_bytes:
            raise ValueError("max_shard_bytes must exceed min_shard_bytes")
        self._rates: Dict[int, RateEstimator] = {}
        self._last_counts: Dict[int, int] = {}
        self._cooldown_until: Dict[int, float] = {}
        self._busy: Set[int] = set()
        self._consecutive_failures = 0
        self._shed_until = -1.0
        self._stopped = False
        #: Decision log: (time, structure, proclet_id, action, reason,
        #: state) — "state" is the controller state when the decision
        #: was evaluated; only "active" decisions execute.
        self.decisions: List[Tuple[float, str, int, str, str, str]] = []
        self.splits_issued = 0
        self.merges_issued = 0
        self.frozen_skips = 0
        self.shed_skips = 0
        self.sheds = 0
        self.op_failures = 0
        self._process = qs.sim.process(self._loop(),
                                       name="shard-autoscaler")

    def stop(self) -> None:
        self._stopped = True

    # -- state machine -------------------------------------------------------
    @property
    def state(self) -> str:
        """``"active"``, ``"frozen"`` (detector suspects a machine), or
        ``"degraded"`` (shed after sustained faults)."""
        if self.qs.sim.now < self._shed_until:
            return "degraded"
        if self._frozen():
            return "frozen"
        return "active"

    def _frozen(self) -> bool:
        if not self.config.freeze_on_suspect:
            return False
        recovery = self.qs.recovery
        return (recovery is not None
                and recovery.detector.any_suspected())

    # -- the loop ------------------------------------------------------------
    def _loop(self) -> Generator:
        period = self.config.period
        while not self._stopped:
            yield self.qs.sim.timeout(period)
            self._tick(self.qs.sim.now)

    def _tick(self, now: float) -> None:
        state = self.state
        ledger = self.qs.runtime.reshard_ledger
        for ds in ledger.structures():
            self._scan(ds, now, state, ledger)

    def _scan(self, ds, now: float, state: str, ledger) -> None:
        runtime = self.qs.runtime
        recovery = runtime.recovery
        inflight = len(ledger.active_for_structure(ds))
        m = self.qs.metrics
        route_counts = getattr(ds, "route_counts", None)
        for shard in list(ds.shards):
            pid = ds._shard_ref(shard).proclet_id
            rate = self._update_rate(pid, now, route_counts)
            proclet = runtime._proclets.get(pid)
            if proclet is None:
                continue  # lost to a machine failure; recovery's problem
            if proclet.status is not ProcletStatus.RUNNING:
                continue  # already gated by some op
            if pid in self._busy or now < self._cooldown_until.get(pid, 0.0):
                continue
            if recovery is not None and recovery.restoring(pid):
                continue  # mid-restore shards look transiently empty
            action, reason = self._decide(ds, pid, proclet, rate)
            if action is None:
                continue
            self.decisions.append((now, ds.name, pid, action, reason,
                                   state))
            if m is not None:
                m.count(f"autoscale.decision.{action}")
            runtime.tracer.emit(
                "autoscale", f"{action} {proclet.name}: {reason}",
                structure=ds.name, state=state)
            if state != "active":
                if state == "frozen":
                    self.frozen_skips += 1
                else:
                    self.shed_skips += 1
                if m is not None:
                    m.count(f"autoscale.skipped.{state}")
                continue
            if inflight >= self.config.max_concurrent:
                continue  # re-evaluated next period
            ev = (ds.reshard_split_by_id(pid) if action == "split"
                  else ds.reshard_merge_by_id(pid))
            if ev is None:
                continue
            if action == "split":
                self.splits_issued += 1
            else:
                self.merges_issued += 1
            inflight += 1
            self._busy.add(pid)
            self._cooldown_until[pid] = now + self.config.cooldown
            ev.subscribe(functools.partial(self._op_done, pid))

    def _update_rate(self, pid: int, now: float,
                     route_counts) -> float:
        if route_counts is None:
            return 0.0
        est = self._rates.get(pid)
        if est is None:
            est = self._rates[pid] = RateEstimator(
                self.config.rate_time_constant)
        count = route_counts.get(pid, 0)
        est.update(now, count - self._last_counts.get(pid, 0))
        self._last_counts[pid] = count
        return est.rate

    # -- decisions -----------------------------------------------------------
    def _decide(self, ds, pid: int, proclet,
                rate: float) -> Tuple[Optional[str], str]:
        cfg = self.config
        heap = proclet.heap_bytes
        if policy.oversized(heap, self.max_shard_bytes):
            return "split", (f"bytes {heap:.0f} > "
                             f"{self.max_shard_bytes:.0f}")
        objects = proclet.object_count
        if cfg.max_shard_objects is not None \
                and objects > cfg.max_shard_objects:
            return "split", (f"objects {objects} > "
                             f"{cfg.max_shard_objects}")
        if cfg.max_route_rate is not None and objects >= 2 \
                and rate > cfg.max_route_rate:
            return "split", (f"route rate {rate:.0f}/s > "
                             f"{cfg.max_route_rate:.0f}/s")
        if policy.undersized(heap, self.min_shard_bytes) \
                and self._merge_ok(ds, pid, rate):
            return "merge", (f"bytes {heap:.0f} < "
                             f"{self.min_shard_bytes:.0f}")
        return None, ""

    def _merge_ok(self, ds, pid: int, rate: float) -> bool:
        if not ds.wants_merge(pid):
            return False
        # Hysteresis on heat: never merge away a shard carrying more
        # than half the split-triggering route rate.
        cfg = self.config
        if cfg.max_route_rate is not None \
                and rate > 0.5 * cfg.max_route_rate:
            return False
        return True

    # -- op settlement -------------------------------------------------------
    def _op_done(self, pid: int, event) -> None:
        self._busy.discard(pid)
        succeeded = event.ok and event.value is not None
        if succeeded:
            self._consecutive_failures = 0
            return
        if not event.ok and not isinstance(event.value, _EXPECTED_ERRORS):
            raise event.value
        self.op_failures += 1
        m = self.qs.metrics
        if m is not None:
            m.count("autoscale.op_failures")
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.fault_shed_threshold:
            self._consecutive_failures = 0
            self._shed_until = self.qs.sim.now + self.config.shed_backoff
            self.sheds += 1
            if m is not None:
                m.count("autoscale.sheds")
            self.qs.runtime.tracer.emit(
                "autoscale", "shedding to read-only decision logging",
                until=round(self._shed_until, 6))

    def __repr__(self) -> str:
        return (f"<ShardAutoscaler state={self.state} "
                f"splits={self.splits_issued} merges={self.merges_issued} "
                f"sheds={self.sheds}>")
