"""Placement scoring: which machine should host a resource proclet?

Because resource proclets are specialized, placement reduces to scoring
machines on a *single* resource axis — precisely the simplification the
paper is after (§3.1): memory proclets go where DRAM is free, compute
proclets where cores are idle, with no need to co-satisfy both on one
machine.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from ...cluster import Cluster, Machine, Priority


class PlacementPolicy:
    """Greedy best-fit placement over live cluster state.

    The real system would consult a (slightly stale) controller view;
    our simulated control plane reads live state, which DESIGN.md lists
    as an approximation — the experiments' dynamics are dominated by
    migration and data-path costs, not by control-plane staleness.
    """

    def __init__(self, cluster: Cluster, index):
        self.cluster = cluster
        #: The :class:`MachineIndex`: the memory/compute argmax queries
        #: run over its log2 buckets, and planned compute demand comes
        #: from its exact cache.
        self.index = index
        #: Optional health gate (wired to the failure detector by
        #: ``Quicksand.enable_recovery``): machines it rejects — e.g.
        #: *suspected* but not yet confirmed dead — receive no new
        #: placements, even while ``machine.up`` still reads True to the
        #: data plane.
        self.health: Optional[Callable[[Machine], bool]] = None

    def _healthy(self, machine: Machine) -> bool:
        return machine.up and (self.health is None or self.health(machine))

    # -- memory --------------------------------------------------------------
    def best_for_memory(self, nbytes: float,
                        exclude: Iterable[Machine] = ()) -> Optional[Machine]:
        """Machine with the most free DRAM that fits *nbytes*."""
        return self.index.best_for_memory(nbytes, set(exclude),
                                          self._healthy)

    # -- compute --------------------------------------------------------------
    def best_for_compute(self, threads: float = 1.0,
                         priority: Priority = Priority.NORMAL,
                         exclude: Iterable[Machine] = ()) \
            -> Optional[Machine]:
        """Machine with the most idle cores at *priority*.

        Returns ``None`` when no machine has meaningful idle capacity —
        the §3.3 rule that compute proclets split "only if there are
        enough CPU resources in the cluster".
        """
        skip = set(exclude)
        # Reading free_cores flushes a dirty fluid scheduler, and a
        # flush schedules events (seq numbers!), so the dirty schedulers
        # are flushed first, in cluster order, before the bucket scan
        # does its pure reads.  The index finds them on the simulator's
        # pending-flush list — O(dirty), not O(fleet).
        for m in self.index.dirty_cpu_machines():
            if m in skip or not self._healthy(m):
                continue
            sched = m.cpu.sched
            if sched._dirty:
                sched._flush()
        # The index scores free cores net of *planned* demand: compute
        # proclets already hosted on a machine will use their worker
        # threads even if they are momentarily idle — without this, a
        # burst of spawns lands every member on the same machine.
        best, best_free = self.index.best_for_compute(
            priority, skip, self._healthy)
        # Require at least half a core of headroom to be worth it.
        if best is not None and best_free < min(0.5, threads * 0.5):
            return None
        return best

    def total_free_cores(self, priority: Priority = Priority.NORMAL) -> float:
        return sum(m.cpu.free_cores(priority)
                   for m in self.cluster.machines if m.up)

    # -- gpu ---------------------------------------------------------------------
    def best_for_gpu(self) -> Optional[Machine]:
        """Machine with the most idle GPUs."""
        best, best_free = None, -1.0
        for m in self.cluster.machines:
            if m.gpus is None or not self._healthy(m):
                continue
            free = m.gpus.sched.free_capacity()
            if free > best_free:
                best, best_free = m, free
        return best

    # -- storage -------------------------------------------------------------------
    def best_for_storage(self, nbytes: float) -> Optional[Machine]:
        """Machine whose storage device has the most free capacity."""
        best, best_free = None, -1.0
        for m in self.cluster.machines:
            if m.storage is None or not self._healthy(m):
                continue
            free = m.storage.free
            if free >= nbytes and free > best_free:
                best, best_free = m, free
        return best

    def storage_machines(self) -> Tuple[Machine, ...]:
        return tuple(m for m in self.cluster.machines
                     if m.storage is not None)
