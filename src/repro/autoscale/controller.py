"""The shard autoscaler control loop.

A single DES process samples every tracked range-sharded structure each
``period`` and compares each shard's size reading against its
structure's size band (heap bytes against ``QuicksandConfig``'s band
for the memory structures, stored bytes against the store's own; the
paper's §3.3 rule: the size cap bounds migration latency).
Out-of-band shards are driven through the two-phase reshard protocol
(:mod:`repro.autoscale.reshard`).  Decisions obey hysteresis (see
:mod:`repro.autoscale.policy`), a per-shard cool-down, and a
per-structure concurrency cap, so the loop cannot oscillate or
stampede.

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
counters, ``autoscale``/``reshard`` records in ``runtime.decisions``
(and their spans when traced), obs spans from the protocol generators,
and :meth:`ShardAutoscaler.stats`.
"""

from __future__ import annotations

import functools
from typing import Dict, Generator, Optional, Set, Tuple

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

#: The numeric ``state`` that :meth:`ShardAutoscaler.stats` reports.
_STATE_CODE = {"active": 0, "frozen": 1, "degraded": 2}


class ShardAutoscaler:
    """Monitors shard sizes and drives split/merge decisions."""

    def __init__(self, qs, config: Optional[AutoscaleConfig] = None):
        self.qs = qs
        self.config = config or AutoscaleConfig()
        self._cooldown_until: Dict[int, float] = {}
        self._busy: Set[int] = set()
        self._consecutive_failures = 0
        self._shed_until = -1.0
        self._stopped = False
        #: Split/merge decisions evaluated, in every state (only
        #: "active" decisions execute); each is one ``autoscale`` record
        #: in ``runtime.decisions`` with its ``structure`` and ``state``.
        self.decision_count = 0
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
        for shard in list(ds.shards):
            pid = ds._shard_ref(shard).proclet_id
            proclet = runtime._proclets.get(pid)
            if proclet is None:
                continue  # lost to a machine failure; recovery's problem
            if proclet.status is not ProcletStatus.RUNNING:
                continue  # already gated by some op
            if pid in self._busy or now < self._cooldown_until.get(pid, 0.0):
                continue
            if recovery is not None and recovery.restoring(pid):
                continue  # mid-restore shards look transiently empty
            action, reason = self._decide(ds, pid, proclet)
            if action is None:
                continue
            self.decision_count += 1
            if m is not None:
                m.count(f"autoscale.decision.{action}")
            runtime.decide(
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

    # -- decisions -----------------------------------------------------------
    def _decide(self, ds, pid: int, proclet) -> Tuple[Optional[str], str]:
        size = ds.shard_bytes(proclet)
        if policy.oversized(size, ds.max_shard_bytes):
            return "split", (f"bytes {size:.0f} > "
                             f"{ds.max_shard_bytes:.0f}")
        if policy.undersized(size, ds.min_shard_bytes) \
                and ds.wants_merge(pid):
            return "merge", (f"bytes {size:.0f} < "
                             f"{ds.min_shard_bytes:.0f}")
        return None, ""

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
            self.qs.runtime.decide(
                "autoscale", "shedding to read-only decision logging",
                until=round(self._shed_until, 6))

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Decisions evaluated, operations issued, freeze/shed skips,
        in-flight operations and reshard-ledger commit/abort totals, and
        ``state`` as a number: 0 active, 1 frozen, 2 degraded."""
        ledger = self.qs.runtime.reshard_ledger
        out = {
            "decisions": self.decision_count,
            "splits_issued": self.splits_issued,
            "merges_issued": self.merges_issued,
            "frozen_skips": self.frozen_skips,
            "shed_skips": self.shed_skips,
            "sheds": self.sheds,
            "op_failures": self.op_failures,
            "active_ops": ledger.active_count(),
        }
        out.update(ledger.counters)
        out["state"] = _STATE_CODE[self.state]
        return out

    def __repr__(self) -> str:
        return (f"<ShardAutoscaler state={self.state} "
                f"splits={self.splits_issued} merges={self.merges_issued} "
                f"sheds={self.sheds}>")
