"""Fast per-machine scheduling reactions (§5: "fast local decisions to
absorb usage spikes").

One :class:`LocalScheduler` watches each machine:

* **CPU starvation** — when a rate reassignment leaves NORMAL-priority
  proclet work with zero rate (a HIGH-priority antagonist grabbed the
  cores), the proclet is migrated to a machine with idle cores after a
  short patience window.  This is the Fig. 1 mechanism: the filler app's
  proclets hop machines in under a millisecond when the phased
  high-priority app bursts.
* **Memory pressure** — when DRAM use crosses the high watermark, the
  largest memory proclets are evicted to the machine with the most free
  DRAM.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Set

from ...cluster import Machine
from ...runtime import MigrationFailed, ProcletStatus
from ...units import MiB
from ..config import QuicksandConfig
from ..pressure import StarvationTracker
from ..resource import ResourceKind, ResourceProclet

#: Free-memory advantage the destination must have before an eviction.
_EVICT_HYSTERESIS_BYTES = 32 * MiB


class LocalScheduler:
    """Per-machine fast reaction loop (event-driven, no polling)."""

    def __init__(self, qs, machine: Machine, config: QuicksandConfig):
        self.qs = qs
        self.machine = machine
        self.config = config
        self.starvation = StarvationTracker(qs.sim)
        self._checks_pending: Set[int] = set()
        self._cooldown_until: dict = {}  # proclet_id -> time
        self.migrations_triggered = 0
        self.evictions_triggered = 0
        machine.cpu.add_observer(self._on_cpu_reassign)
        machine.memory.add_watermark(config.memory_watermark,
                                     self._on_memory_pressure)

    # -- CPU starvation path ------------------------------------------------
    def _on_cpu_reassign(self, sched) -> None:
        if sched.starved_count == 0 and self.starvation.empty:
            # No attached item is starved and no clock is running: the
            # scan below would observe "not starved" for every proclet
            # (popping nothing) and arm no check.  O(1) instead of
            # O(#items) on the common reassign.
            return
        now = self.qs.sim.now
        seen: Set[int] = set()
        for item in sched.items:
            owner = item.owner
            if not isinstance(owner, ResourceProclet):
                continue
            if owner.id is None or owner.machine is not self.machine:
                continue
            pid = owner.id
            if pid in seen:
                continue
            seen.add(pid)
            starved = all(
                it.starved for it in owner._active_cpu
            ) if owner._active_cpu else False
            self.starvation.observe(pid, starved and item.starved)
            if (starved and item.starved and pid not in self._checks_pending
                    and now >= self._cooldown_until.get(pid, 0.0)):
                self._checks_pending.add(pid)
                self.qs.sim.call_in(self.config.starvation_patience,
                                    self._check_starved, pid)

    def _check_starved(self, pid: int) -> None:
        self._checks_pending.discard(pid)
        proclet = self.qs.runtime._proclets.get(pid)
        if (proclet is None or proclet.status is not ProcletStatus.RUNNING
                or proclet.machine is not self.machine):
            # Destroyed, paused mid-migration or already moved: its CPU
            # work is not attached here, so no later reassign on this
            # machine would observe it and stop its clock.
            self.starvation.clear(pid)
            return
        if not self.starvation.is_starved(pid, self.config.starvation_patience):
            if self.starvation.is_starving_now(pid):
                # Starved, but not yet past the patience window (a
                # later observation reset the clock): check again.
                self._checks_pending.add(pid)
                self.qs.sim.call_in(self.config.starvation_patience,
                                    self._check_starved, pid)
            return
        dst = self.qs.placement.best_for_compute(exclude=(self.machine,))
        if dst is None:
            # Nowhere better; re-arm so we try again if starvation persists.
            self._checks_pending.add(pid)
            self.qs.sim.call_in(self.config.starvation_patience,
                                self._check_starved, pid)
            return
        self._start_migration(proclet, dst, reason="cpu-starvation")

    # -- memory pressure path -----------------------------------------------------
    def _on_memory_pressure(self, memory) -> None:
        # Runs synchronously inside an allocation; defer actual work.
        self.qs.sim.call_in(0.0, self._evict_for_memory)

    def _evict_for_memory(self) -> None:
        memory = self.machine.memory
        if memory.pressure < self.config.memory_watermark:
            return
        candidates = [
            p for p in self.qs.runtime.proclets_on(self.machine)
            if isinstance(p, ResourceProclet)
            and p.kind is ResourceKind.MEMORY
            and p.status is ProcletStatus.RUNNING
            and self.qs.sim.now >= self._cooldown_until.get(p.id, 0.0)
        ]
        if not candidates:
            return
        victim = max(candidates, key=lambda p: p.footprint)
        dst = self.qs.placement.best_for_memory(victim.footprint,
                                                exclude=(self.machine,))
        if dst is None:
            return
        # Only evict when the destination is meaningfully better off.
        advantage = dst.memory.free - victim.footprint - memory.free
        if advantage < _EVICT_HYSTERESIS_BYTES:
            return
        self.evictions_triggered += 1
        self._start_migration(victim, dst, reason="memory-pressure")

    # -- shared ----------------------------------------------------------------------
    def _start_migration(self, proclet, dst: Machine, reason: str) -> None:
        self.migrations_triggered += 1
        self._cooldown_until[proclet.id] = (
            self.qs.sim.now + self.config.migration_cooldown
        )
        self.starvation.clear(proclet.id)
        if self.qs.metrics is not None:
            self.qs.metrics.count(f"sched.local.migrations.{reason}")
        runtime = self.qs.runtime
        message = f"{reason}: {proclet.name} {self.machine.name}->{dst.name}"
        tr = self.qs.sim.tracer
        # region() so the migration span (whose parent is captured
        # synchronously inside migrate()) nests under this decision.
        with (tr.region("sched-local", message,
                        track=f"machine:{self.machine.name}", dst=dst.name)
              if tr is not None else nullcontext()) as span:
            runtime.decide("sched-local", message, span=span)
            ev = runtime.migrate(proclet, dst)
        ev.subscribe(self._on_migration_done)

    @staticmethod
    def _on_migration_done(event) -> None:
        if not event.ok and isinstance(event.value, MigrationFailed):
            # Destination filled up meanwhile; the proclet stays put and
            # a later pressure signal will retry.  Swallow the failure.
            return
        if not event.ok:
            raise event.value
