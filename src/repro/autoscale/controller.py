"""The shard autoscaler control loop.

A single DES process wakes every ``period`` and compares the size
reading of each shard of a tracked sharded structure against its
structure's size band (heap bytes against ``QuicksandConfig``'s band
for the memory structures, stored bytes against the store's own; the
paper's §3.3 rule: the size cap bounds migration latency).  It is
event-fed: a tick evaluates only the shards whose decision inputs
changed since their last evaluation, as reported by hooks the runtime
already has, plus every decision that could not run on the last tick
(see :meth:`ShardAutoscaler._take_marks`), and so makes the decisions
a scan of every shard would.
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
from typing import Dict, Generator, List, Optional, Set, Tuple

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
        # pid -> end of its cool-down, for cool-downs not yet expired.
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
        # Marks, filled by the hooks and drained by each tick (the hooks
        # hold bound ``add`` methods, so the sets are cleared in place,
        # never rebound): proclets whose heap changed, pids whose
        # status, gate or restore flag changed, pids due on their own,
        # and structures whose table or reshard ops changed.  What each
        # reaches: _take_marks.
        self._heap_changed: Set = set()
        self._marked: Set[int] = set()
        self._due: Set[int] = set()
        self._stale: Set = set()
        # pid -> (structure, table index), and each structure's table
        # pids, rebuilt when the structure is stale.
        self._where: Dict[int, Tuple[object, int]] = {}
        self._listed: Dict[object, List[int]] = {}
        runtime = qs.runtime
        ledger = runtime.reshard_ledger
        self._hooks = [(runtime._heap_listeners, self._heap_changed.add),
                       (runtime._proclet_state_listeners, self._marked.add),
                       (ledger._listeners, self._on_reshard)]
        for listeners, fn in self._hooks:
            listeners.append(fn)
        self._stale.update(ledger._structures)
        self._process = qs.sim.spawn(self._loop(),
                                     name="shard-autoscaler")

    def stop(self) -> None:
        self._stopped = True

    def _on_reshard(self, structure, _pids) -> None:
        self._stale.add(structure)

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
        for listeners, fn in self._hooks:
            listeners.remove(fn)

    def _tick(self, now: float) -> None:
        """Evaluate every shard whose decision inputs changed since its
        last evaluation, in ledger and table order."""
        heap_changed = self._heap_changed
        if heap_changed:
            self._marked.update([proclet._id for proclet in heap_changed])
            heap_changed.clear()
        cooling = self._cooldown_until
        if cooling:
            for pid in [pid for pid, until in cooling.items()
                        if now >= until]:
                del cooling[pid]
                self._due.add(pid)
        if not (self._marked or self._due or self._stale):
            return
        ledger = self.qs.runtime.reshard_ledger
        todo = self._take_marks(ledger)
        if todo:
            state = self.state
            for ds in ledger.structures():
                shards = todo.get(ds)
                if shards:
                    self._scan(ds, shards, now, state, ledger)

    def _take_marks(self, ledger) -> Dict[object, List]:
        """Drain the marks into each structure's shards to evaluate, in
        table order.

        A decision reads the shard's size reading and status, the
        restore flag, the busy set and the cool-down; an undersized
        shard's merge check also reads the table and its partner's size
        reading (a table neighbour).  So a heap or state mark on a pid
        reaches the shard and both its neighbours; a pid due on its own
        (its decision did not run, its op settled, its cool-down
        expired) is evaluated alone; and a reshard-ledger notification
        (an op transition, a table write, track or untrack) re-lists
        its structure and reaches every undersized shard, or every
        shard of a structure the loop has not listed before."""
        where = self._where
        listed = self._listed
        live = self.qs.runtime._proclets.get
        picked: Dict[object, Set[int]] = {}
        for ds in self._stale:
            before = listed.pop(ds, None)
            for pid in before or ():
                del where[pid]
            if ds not in ledger._structures:
                continue
            ref = ds._shard_ref
            pids = listed[ds] = [ref(shard).proclet_id
                                 for shard in ds.shards]
            for i, pid in enumerate(pids):
                where[pid] = (ds, i)
            if before is None:
                picked[ds] = set(range(len(pids)))
                continue
            size_of, low = ds.shard_bytes, ds.min_shard_bytes
            picked[ds] = {i for i, pid in enumerate(pids)
                          if (proclet := live(pid)) is not None
                          and policy.undersized(size_of(proclet), low)}
        self._stale.clear()
        for pids, reach in ((self._marked, 1), (self._due, 0)):
            if pids:
                for pid in where.keys() & pids:
                    ds, i = where[pid]
                    picked.setdefault(ds, set()).update(
                        range(i - reach, i + reach + 1))
                pids.clear()
        todo: Dict[object, List] = {}
        for ds, indices in picked.items():
            shards = ds.shards
            n = len(shards)
            todo[ds] = [shards[i] for i in sorted(indices) if 0 <= i < n]
        return todo

    def _scan(self, ds, shards, now: float, state: str, ledger) -> None:
        runtime = self.qs.runtime
        recovery = runtime.recovery
        inflight = None  # counted at the structure's first action
        m = self.qs.metrics
        for shard in shards:
            pid = ds._shard_ref(shard).proclet_id
            proclet = runtime._proclets.get(pid)
            # A skipped shard is marked again when what skipped it ends:
            # a restore or ungate (the proclet-state hook), its op's
            # settlement (_op_done) or its cool-down's expiry (_tick).
            if proclet is None:
                continue  # lost to a machine failure; recovery's problem
            if proclet._status is not ProcletStatus.RUNNING:
                continue  # already gated by some op
            if pid in self._busy or now < self._cooldown_until.get(pid, 0.0):
                continue
            if recovery is not None and recovery.restoring(pid):
                continue  # mid-restore shards look transiently empty
            action, reason = self._decide(ds, pid, proclet)
            if action is None:
                continue
            if inflight is None:
                inflight = len(ledger.active_for_structure(ds))
            self.decision_count += 1
            m.count(f"autoscale.decision.{action}")
            runtime.decide(
                "autoscale", f"{action} {proclet.name}: {reason}",
                structure=ds.name, state=state)
            # A decision that does not run is carried forward: it is
            # evaluated, and logged, again on the next tick.
            if state != "active":
                if state == "frozen":
                    self.frozen_skips += 1
                else:
                    self.shed_skips += 1
                m.count(f"autoscale.skipped.{state}")
                self._due.add(pid)
                continue
            if inflight >= self.config.max_concurrent:
                self._due.add(pid)
                continue
            ev = (ds.reshard_split_by_id(pid) if action == "split"
                  else ds.reshard_merge_by_id(pid))
            if ev is None:
                self._due.add(pid)
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
        self._due.add(pid)
        succeeded = event.ok and event.value is not None
        if succeeded:
            self._consecutive_failures = 0
            return
        if not event.ok and not isinstance(event.value, _EXPECTED_ERRORS):
            raise event.value
        self.op_failures += 1
        m = self.qs.metrics
        m.count("autoscale.op_failures")
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.fault_shed_threshold:
            self._consecutive_failures = 0
            self._shed_until = self.qs.sim.now + self.config.shed_backoff
            self.sheds += 1
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
