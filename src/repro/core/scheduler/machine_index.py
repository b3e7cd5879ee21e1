"""Bucketed machine index: placement argmax without linear scans.

At thousand-machine scale the placement policy's "scan every machine"
loops dominate control-plane cost: every spawn walks the whole cluster
reading DRAM headroom or idle cores, and every global-scheduler round
re-derives the eligible-machine list and per-machine planned demand from
scratch.  This index maintains three event-driven views instead:

* **log2 buckets** over each machine's free DRAM and its planned-CPU
  bound (``cores - planned``).  A bucket ``e`` holds machines whose
  value lies in ``[2**(e-1), 2**e)`` — bucket ranges are disjoint, so
  scanning buckets in descending order and stopping at the first one
  that yields a qualified candidate (memory), or once a bucket's upper
  bound cannot beat the best score seen (compute), returns *exactly*
  the machine the linear scan would have: same maximum, same
  smallest-id tie-break (machine ids are cluster-list positions).
* a **planned-demand cache** per machine, updated from locator place /
  move / remove notifications — integer thread counts, so the cached
  sum is exact, never drifting from the per-proclet recount.
* a cached **eligible-machine list**, invalidated by machine failure /
  restore hooks and by failure-detector health transitions.

The index changes *cost*, never *choice*: every query reads live
machine state for the candidates it actually inspects, and the bucket
structure only prunes machines that provably cannot win.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ...cluster import Machine

#: Bucket for values <= 0 (a full machine, a failed machine's cores).
#: Strictly below every log2 bucket so descending scans see it last.
_ZERO_BUCKET = -(1 << 30)


def _bucket_key(value: float) -> int:
    """Log2 bucket index: ``value`` in ``[2**(e-1), 2**e)`` maps to ``e``."""
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.frexp(value)[1]


#: Load-ratio bucket width: ratios quantized to 1/32 steps.  Ratios are
#: bounded (pressure by 1.0, planned/cores by modest overcommit), so
#: uniform buckets beat log2 ones here — equal values always share a
#: bucket, which is what makes the extreme queries exact.
_RATIO_STEP = 32.0


def _ratio_key(ratio: float) -> int:
    """Uniform bucket index for a load ratio (pressure, planned/cores)."""
    if ratio <= 0.0:
        return 0
    return int(ratio * _RATIO_STEP)


class MachineIndex:
    """Event-driven machine buckets backing :class:`PlacementPolicy`
    and :meth:`Quicksand.eligible_machines`."""

    def __init__(self, cluster, runtime):
        self.cluster = cluster
        self.runtime = runtime
        machines = cluster.machines
        #: Exact planned CPU demand (sum of hosted proclets' integer
        #: ``parallelism``) per machine id.
        self._planned: Dict[int, float] = {m.id: 0.0 for m in machines}
        # Free-DRAM buckets.
        self._mem_key: Dict[int, int] = {}
        self._mem_buckets: Dict[int, set] = {}
        # Planned-bound (cores - planned) buckets.
        self._cpu_key: Dict[int, int] = {}
        self._cpu_buckets: Dict[int, set] = {}
        # Load-ratio buckets (global-scheduler extremes): DRAM pressure
        # and planned-CPU ratio (planned / cores), kept alongside the
        # argmax buckets from the same event hooks.
        self._pres_key: Dict[int, int] = {}
        self._pres_buckets: Dict[int, set] = {}
        self._ratio_key_of: Dict[int, int] = {}
        self._ratio_buckets: Dict[int, set] = {}
        for m in machines:
            self._bucket_insert(self._mem_buckets, self._mem_key, m,
                                _bucket_key(m.memory.free))
            self._bucket_insert(self._cpu_buckets, self._cpu_key, m,
                                _bucket_key(m.cpu.cores))
            self._bucket_insert(self._pres_buckets, self._pres_key, m,
                                _ratio_key(m.memory.pressure))
            self._bucket_insert(self._ratio_buckets, self._ratio_key_of, m,
                                _ratio_key(0.0))
            m.memory.add_listener(
                lambda _mem, machine=m: self._rebucket_mem(machine))
        # Cached (health_fn, machines) eligible list; None = stale.
        self._eligible: Optional[Tuple[Optional[Callable],
                                       Tuple[Machine, ...]]] = None
        #: The health callable whose transitions we observe (the
        #: recovery manager's ``eligible``); any other callable bypasses
        #: the cache because we cannot see its state changes.
        self._tracked_health: Optional[Callable[[Machine], bool]] = None
        #: CPU-scheduler identity -> machine (stable across fail/restore:
        #: a crash resizes the scheduler, never replaces it), for mapping
        #: the simulator's pending-flush list back to machines.
        self._machine_by_cpu_sched: Dict[int, Machine] = {
            id(m.cpu.sched): m for m in machines}

    # -- bucket plumbing -----------------------------------------------------
    @staticmethod
    def _bucket_insert(buckets: Dict[int, set], keys: Dict[int, int],
                       machine: Machine, key: int) -> None:
        keys[machine.id] = key
        members = buckets.get(key)
        if members is None:
            buckets[key] = {machine}
        else:
            members.add(machine)

    @staticmethod
    def _bucket_move(buckets: Dict[int, set], keys: Dict[int, int],
                     machine: Machine, key: int) -> None:
        old = keys[machine.id]
        if old == key:
            return
        members = buckets[old]
        members.discard(machine)
        if not members:
            del buckets[old]
        MachineIndex._bucket_insert(buckets, keys, machine, key)

    def _rebucket_mem(self, machine: Machine) -> None:
        self._bucket_move(self._mem_buckets, self._mem_key, machine,
                          _bucket_key(machine.memory.free))
        self._bucket_move(self._pres_buckets, self._pres_key, machine,
                          _ratio_key(machine.memory.pressure))

    def _rebucket_cpu(self, machine: Machine) -> None:
        bound = machine.cpu.cores - self._planned[machine.id]
        self._bucket_move(self._cpu_buckets, self._cpu_key, machine,
                          _bucket_key(bound))
        self._bucket_move(self._ratio_buckets, self._ratio_key_of, machine,
                          _ratio_key(self._cpu_ratio(machine)))

    def _cpu_ratio(self, machine: Machine) -> float:
        """Planned CPU commitment per core (a crashed machine's cores
        are 0; its ratio pins to 0 and health filtering excludes it)."""
        cores = machine.cpu.cores
        return self._planned[machine.id] / cores if cores > 0 else 0.0

    # -- event hooks ---------------------------------------------------------
    def on_location_change(self, proclet_id: int,
                           src: Optional[Machine],
                           dst: Optional[Machine]) -> None:
        """Locator listener: keep planned demand exact across spawn /
        migrate / destroy / crash."""
        proclet = self.runtime._proclets.get(proclet_id)
        if proclet is None:
            return
        par = getattr(proclet, "parallelism", 0) or 0
        if not par:
            return
        if src is not None:
            self._planned[src.id] -= par
            self._rebucket_cpu(src)
        if dst is not None:
            self._planned[dst.id] += par
            self._rebucket_cpu(dst)

    def on_machine_failure(self, machine: Machine, _lost=None) -> None:
        """Runtime failure listener: the machine's cores are gone (its
        DRAM wipe already rebucketed memory via the ledger listener)."""
        self._rebucket_cpu(machine)
        self._eligible = None

    def on_machine_restore(self, machine: Machine) -> None:
        self._rebucket_cpu(machine)
        self._eligible = None

    def track_health(self, health: Optional[Callable]) -> None:
        """Declare *health* observable: its transitions invalidate the
        eligible cache (wire the detector's suspect/confirm/alive
        listeners to :meth:`invalidate_eligible` alongside this)."""
        self._tracked_health = health
        self._eligible = None

    def invalidate_eligible(self, *_args, **_kwargs) -> None:
        self._eligible = None

    # -- queries -------------------------------------------------------------
    def planned(self, machine: Machine) -> float:
        """Cached planned CPU demand of *machine* (exact)."""
        return self._planned[machine.id]

    def dirty_cpu_machines(self) -> List[Machine]:
        """Machines whose CPU scheduler has a pending dirty flush, in
        cluster (machine-id) order.

        Every dirty scheduler sits on the simulator's pending-flush
        list (``_mark_dirty`` either flushes immediately or enqueues),
        so the placement pre-flush — which flushes them in cluster
        order before the bucketed argmax does its pure reads — costs
        O(dirty at this instant), not O(fleet).
        """
        by_sched = self._machine_by_cpu_sched
        dirty = []
        for sched in self.cluster.sim._pending_flushes:
            if sched._dirty:
                machine = by_sched.get(id(sched))
                if machine is not None:
                    dirty.append(machine)
        dirty.sort(key=lambda m: m.id)
        return dirty

    def eligible(self, health: Optional[Callable]) -> List[Machine]:
        """Machines that are up and pass *health*, cached between
        invalidating events.  An untracked health callable falls back to
        a fresh scan — correctness never depends on seeing its state."""
        if health is not None and health is not self._tracked_health:
            return [m for m in self.cluster.machines if m.up and health(m)]
        cached = self._eligible
        if cached is not None and cached[0] is health:
            return list(cached[1])
        machines = [m for m in self.cluster.machines
                    if m.up and (health is None or health(m))]
        self._eligible = (health, tuple(machines))
        return machines

    def best_for_memory(self, nbytes: float, skip: set,
                        healthy: Callable[[Machine], bool]) \
            -> Optional[Machine]:
        """Exact replacement for the linear most-free-DRAM scan.

        The first (descending) bucket containing a qualified candidate
        holds the global maximum: every lower bucket's values are
        strictly smaller.  Within the bucket, ties keep the smallest
        machine id — identical to first-wins in cluster-list order.
        """
        best, best_free = None, -1.0
        for key in sorted(self._mem_buckets, reverse=True):
            for m in self._mem_buckets[key]:
                if m in skip or not healthy(m):
                    continue
                free = m.memory.free
                if free < nbytes:
                    continue
                if free > best_free or (free == best_free
                                        and m.id < best.id):
                    best, best_free = m, free
            if best is not None:
                return best
        return None

    # -- load extremes (global-scheduler rounds) -----------------------------
    @staticmethod
    def _extreme(buckets: Dict[int, set], value_of, healthy,
                 lowest: bool) -> Tuple[Optional[Machine], float]:
        """Exact min/max of *value_of* over healthy machines.

        Equal values always share a bucket (uniform quantization), so
        the first bucket — scanning ascending for the minimum,
        descending for the maximum — that contains a healthy machine
        holds the global extreme.  Tie-breaks mirror the stable
        full-fleet sort this replaces: the minimum keeps the smallest
        machine id (first in cluster order), the maximum the largest
        (last in cluster order).
        """
        for key in sorted(buckets, reverse=not lowest):
            best, best_val = None, 0.0
            for m in buckets[key]:
                if not healthy(m):
                    continue
                val = value_of(m)
                if (best is None
                        or (val < best_val if lowest else val > best_val)
                        or (val == best_val
                            and (m.id < best.id if lowest
                                 else m.id > best.id))):
                    best, best_val = m, val
            if best is not None:
                return best, best_val
        return None, 0.0

    def pressure_extremes(self, healthy: Callable[[Machine], bool]) \
            -> Tuple[Optional[Machine], float, Optional[Machine], float]:
        """``(least, its pressure, most, its pressure)`` over healthy
        machines — the memory-rebalance round's endpoints, without the
        per-round full-fleet pressure sort."""
        low, low_p = self._extreme(self._pres_buckets,
                                   lambda m: m.memory.pressure, healthy,
                                   lowest=True)
        high, high_p = self._extreme(self._pres_buckets,
                                     lambda m: m.memory.pressure, healthy,
                                     lowest=False)
        return low, low_p, high, high_p

    def cpu_ratio_extremes(self, healthy: Callable[[Machine], bool]) \
            -> Tuple[Optional[Machine], float, Optional[Machine], float]:
        """``(least, its ratio, most, its ratio)`` of planned CPU per
        core over healthy machines — the compute-rebalance round's
        endpoints, off the exact planned-demand cache."""
        low, low_r = self._extreme(self._ratio_buckets, self._cpu_ratio,
                                   healthy, lowest=True)
        high, high_r = self._extreme(self._ratio_buckets, self._cpu_ratio,
                                     healthy, lowest=False)
        return low, low_r, high, high_r

    def best_for_compute(self, priority, skip: set,
                         healthy: Callable[[Machine], bool]) \
            -> Tuple[Optional[Machine], float]:
        """Exact replacement for the linear idle-cores scan.

        Buckets are keyed on the planned bound ``cores - planned``, an
        upper bound for the actual score ``min(free_cores, bound)``.
        Scanning buckets in descending order can stop once a bucket's
        upper edge cannot reach the best score seen — everything below
        is strictly worse, so no equal-score smaller-id candidate can
        hide there.  Within a bucket the same bound prunes per machine,
        *before* the (fluid-engine) ``free_cores`` query: a machine
        whose bound cannot beat the best score — strictly smaller, or
        equal with a larger id (score <= bound, so at best it ties and
        loses the tie-break) — is skipped on two dict reads.  In a
        homogeneous fleet, where one bucket holds every idle machine,
        that turns the expected expensive-query count from O(bucket)
        into O(log bucket) without changing any choice.  Returns
        ``(machine, score)`` with the caller applying the
        minimum-headroom threshold.
        """
        planned = self._planned
        best, best_free = None, 0.0
        for key in sorted(self._cpu_buckets, reverse=True):
            if key == _ZERO_BUCKET or math.ldexp(1.0, key) <= best_free:
                break
            for m in self._cpu_buckets[key]:
                bound = m.cpu.cores - planned[m.id]
                if bound < best_free or (bound == best_free
                                         and best is not None
                                         and m.id > best.id):
                    continue
                if m in skip or not healthy(m):
                    continue
                free = m.cpu.free_cores(priority)
                if bound < free:
                    free = bound
                if free > best_free or (best is not None
                                        and free == best_free
                                        and m.id < best.id):
                    best, best_free = m, free
        return best, best_free
