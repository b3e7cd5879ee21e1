"""Slow cluster-wide rebalancing (§5: "slow global decisions that
reflect long-term shifts in usage").

Every ``global_interval`` the global scheduler:

1. rebalances compute: moves compute proclets from machines whose
   NORMAL-priority CPU demand exceeds capacity toward machines with idle
   cores;
2. rebalances memory: moves shards from DRAM-pressured machines toward
   machines with headroom;
3. colocates chatty proclet pairs reported by the affinity tracker, when
   capacity permits.

All actions go through the same migration mechanism the local scheduler
uses; the two levels differ only in cadence and in the breadth of state
they consult.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ...runtime import MigrationFailed, ProcletStatus
from ..config import QuicksandConfig
from ..resource import ResourceKind, ResourceProclet

#: Planned-CPU-per-core gap between the most and least committed
#: machines that triggers a compute move.
_CPU_IMBALANCE = 0.25
#: Memory-pressure gap that triggers a shard move.
_MEMORY_IMBALANCE = 0.25


class GlobalScheduler:
    """Periodic cluster-wide placement refinement."""

    def __init__(self, qs, config: QuicksandConfig):
        self.qs = qs
        self.config = config
        self.rounds = 0
        self.moves = 0
        self._process = qs.sim.spawn(self._loop(), name="global-sched")

    def _loop(self) -> Generator:
        while True:
            yield self.qs.sim.timeout(self.config.global_interval)
            self.rounds += 1
            tr = self.qs.sim.tracer
            if tr is not None:
                # The round body is synchronous (migrations it starts are
                # spawned, not awaited), so a region cleanly scopes it:
                # every migration requested inside nests under the round.
                with tr.region("sched-global", f"round#{self.rounds}",
                               track="sched:global"):
                    self._round()
            else:
                self._round()

    def _round(self) -> None:
        self._rebalance_compute()
        self._rebalance_memory()
        self._colocate_by_affinity()

    # -- compute balance -----------------------------------------------------
    def _rebalance_compute(self) -> None:
        """Move one compute proclet from the most to the least planned-
        committed machine (planned CPU per core, off the machine index's
        exact cache — no per-round sweep over every machine's run
        queue).  Planned demand counts hosted compute proclets' worker
        threads whether or not they are mid-task at this instant, which
        is the signal placement already packs against."""
        index = self.qs.machine_index
        healthy = self.qs.placement._healthy
        low, low_ratio, high, high_ratio = index.cpu_ratio_extremes(healthy)
        if high is None or low is high:
            return
        if high_ratio - low_ratio < _CPU_IMBALANCE:
            return
        if low.cpu.free_cores() < 1.0:
            return
        victim = self._pick_compute_victim(high)
        if victim is not None:
            self._move(victim, low, reason="global-cpu")

    def _pick_compute_victim(self, machine) -> Optional[ResourceProclet]:
        candidates: List[ResourceProclet] = [
            p for p in self.qs.runtime.proclets_on(machine)
            if isinstance(p, ResourceProclet)
            and p.kind is ResourceKind.COMPUTE
            and p.status is ProcletStatus.RUNNING
        ]
        if not candidates:
            return None
        # Smallest heap first: cheapest to move.
        return min(candidates, key=lambda p: p.footprint)

    # -- memory balance --------------------------------------------------------
    def _rebalance_memory(self) -> None:
        index = self.qs.machine_index
        healthy = self.qs.placement._healthy
        low, low_p, high, high_p = index.pressure_extremes(healthy)
        if high is None or low is high:
            return
        if high_p - low_p < _MEMORY_IMBALANCE:
            return
        candidates = [
            p for p in self.qs.runtime.proclets_on(high)
            if isinstance(p, ResourceProclet)
            and p.kind is ResourceKind.MEMORY
            and p.status is ProcletStatus.RUNNING
            and low.memory.can_fit(p.footprint)
        ]
        if not candidates:
            return
        victim = max(candidates, key=lambda p: p.footprint)
        self._move(victim, low, reason="global-memory")

    # -- affinity colocation ------------------------------------------------------
    def _colocate_by_affinity(self) -> None:
        for caller_id, callee_id, weight in \
                self.qs.affinity.hottest_edges(top=5):
            if weight < self.config.affinity_threshold:
                break
            caller = self.qs.runtime._proclets.get(caller_id)
            callee = self.qs.runtime._proclets.get(callee_id)
            if caller is None or callee is None:
                continue
            if caller.machine is callee.machine:
                continue
            if (caller.status is not ProcletStatus.RUNNING
                    or callee.status is not ProcletStatus.RUNNING):
                continue
            # Move the smaller endpoint to the bigger one's machine if it
            # fits without creating memory pressure there.
            mover, target = sorted((caller, callee),
                                   key=lambda p: p.footprint)[0], None
            target = callee.machine if mover is caller else caller.machine
            mem = target.memory
            if (mem.used + mover.footprint) / mem.capacity \
                    >= self.config.memory_watermark:
                continue
            self._move(mover, target, reason="global-affinity")
            return  # at most one colocation per round

    # -- shared -------------------------------------------------------------------------
    def _move(self, proclet, dst, reason: str) -> None:
        self.moves += 1
        if self.qs.metrics is not None:
            self.qs.metrics.count(f"sched.{reason}.moves")
        self.qs.runtime.decide(
            "sched-global", f"{reason}: {proclet.name} -> {dst.name}")
        ev = self.qs.runtime.migrate(proclet, dst)
        ev.subscribe(self._swallow_migration_failure)

    @staticmethod
    def _swallow_migration_failure(event) -> None:
        if not event.ok and not isinstance(event.value, MigrationFailed):
            raise event.value
