"""Numpy struct-of-arrays fluid engine (``REPRO_VECTOR_FLUID=1``).

:class:`VectorFluidScheduler` is the :class:`~repro.sim.fluid.FluidScheduler`
with its per-item hot state — remaining work, assigned rate, demand —
moved out of Python objects into flat numpy arrays indexed by *slots*.
A :class:`VecFluidItem` is a thin handle: its ``remaining``/``_rate``
attributes are properties reading and writing the arrays while the item
is attached (and a two-float list after detach, so handles stay readable
after migration or completion).  Slots are recycled through a free list
and the arrays double on demand.

What this buys:

* water-fills run as array kernels (stable argsort + sequential cumsum
  + elementwise compare) instead of per-item Python loops, with a
  per-class cache keyed by a membership version and memoized per
  entering capacity — an alternating-capacity workload (the timerstorm
  shape) replays whole fills from a dict hit;
* settle advances every ``remaining`` with two vector ops;
* completion scans (the ETA minimum and the finished filter) are masked
  reductions instead of candidate-list walks.

Bit-identity
------------

Trajectories must be bit-identical with the toggle on or off (the chaos
sha256 digest gate enforces it, exactly like the timer wheel's).  The
argument, per observable float:

* *fills*: both engines compute the prefix-sum formulation in
  ``docs/kernel.md`` with the same per-element operations.  numpy's
  ``cumsum`` accumulates sequentially (unlike ``sum``'s pairwise
  reduction), stable ``argsort`` reproduces Python's stable sort on the
  same bucket order, and scalar float64 math follows the same IEEE
  rules as Python floats.  Cache reuse only skips recomputation of a
  pure function of (sorted demands, entering capacity).
* *settle*: ``rem -= rate * elapsed`` then a zero clamp is per-element
  exactly ``max(0.0, r - rate*elapsed)``; unattached slots carry rate
  0.0 and ``x - 0.0 == x`` bitwise for the non-negative ``x`` stored
  here, so they pass through unchanged.
* *ETAs*: ``min`` over ``remaining/rate`` is an exact reduction over
  the same candidate set (rates only change inside a recompute, so the
  live mask equals the scalar engine's per-class candidate lists).
* *completion order*: finished slots are reordered by an insertion
  sequence number, reproducing the scalar engine's submission-order
  scan.

This module imports numpy at module scope; the core library only
imports it lazily (see ``fluid._vector_cls``), keeping the no-numpy
invariant when the toggle is off or numpy is absent.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .fluid import FluidItem, FluidScheduler, _DONE_TOL, _EPS, _by_demand

_INF = math.inf

#: Classes at or under this size water-fill through the plain-Python
#: path (same formulation, identical floats) — below it the numpy
#: kernel's fixed overhead outweighs the loop.  The threshold is pure
#: performance tuning: both paths produce the same bits at any size.
_SMALL_CLASS = 32

#: Item counts at or under this settle through the scalar per-item
#: advance instead of two whole-array ops.
_SMALL_SETTLE = 8

#: Item counts at or under this run the completion scans (ETA minimum,
#: finished filter) as plain loops — a cluster full of 2-item machine
#: schedulers must not pay a masked-reduction's fixed cost per flush.
_SMALL_SCAN = 24

#: Per-class fill memo entries kept before the dict is reset.
_MEMO_LIMIT = 16


class VecFluidItem(FluidItem):
    """Slot-backed handle onto the scheduler's struct-of-arrays state.

    While attached (``_slot >= 0``) the hot fields live in the
    scheduler's arrays; after detach they are materialized into
    ``_rem0``/``_rate0`` so the handle keeps answering
    ``remaining``/``rate`` reads, exactly like a plain
    :class:`FluidItem` would.
    """

    __slots__ = ("_slot", "_rem0", "_rate0")

    def __init__(self, sched, name, work, demand, priority, owner=None):
        # Set before super().__init__, whose remaining/_rate stores go
        # through the properties below.
        self._slot = -1
        self._rem0 = 0.0
        self._rate0 = 0.0
        super().__init__(sched, name, work, demand, priority, owner=owner)

    @property
    def remaining(self):
        slot = self._slot
        if slot < 0:
            return self._rem0
        v = self._sched._rem[slot]
        # Preserve the math.inf singleton: hold items are compared with
        # ``is math.inf`` in places, and a fresh float('inf') is not it.
        return _INF if v == _INF else float(v)

    @remaining.setter
    def remaining(self, value):
        slot = self._slot
        if slot < 0:
            self._rem0 = value
        else:
            self._sched._rem[slot] = value

    @property
    def _rate(self):
        slot = self._slot
        if slot < 0:
            return self._rate0
        return float(self._sched._ratev[slot])

    @_rate.setter
    def _rate(self, value):
        slot = self._slot
        if slot < 0:
            self._rate0 = value
        else:
            self._sched._ratev[slot] = value


class _ClassFill:
    """Cached sorted view of one priority class, valid for one
    membership/demand version, plus a fill memo keyed by entering
    capacity."""

    __slots__ = ("version", "n", "slots_sorted", "d_sorted", "csum_prev",
                 "coef", "total", "d_list", "sl_list", "memo")

    def __init__(self, version, n, slots_sorted, d_sorted, csum_prev,
                 coef, total, d_list, sl_list):
        self.version = version
        self.n = n
        self.slots_sorted = slots_sorted
        self.d_sorted = d_sorted
        self.csum_prev = csum_prev
        self.coef = coef
        self.total = total
        self.d_list = d_list
        self.sl_list = sl_list
        self.memo = {}


class VectorFluidScheduler(FluidScheduler):
    """Struct-of-arrays fluid engine; same API, bit-identical output."""

    vectorized = True
    _item_cls = VecFluidItem

    def __init__(self, sim, capacity, name="fluid",
                 vector: Optional[bool] = None):
        n = 64
        self._dem = np.zeros(n)
        # Free slots hold the inf sentinel: rate 0.0 keeps them out of
        # the settle/ETA math and remaining inf keeps them out of the
        # finished mask, so no occupancy array is needed.
        self._rem = np.full(n, _INF)
        self._ratev = np.zeros(n)
        self._seqv = np.zeros(n, dtype=np.int64)
        self._slot_items: List[Optional[VecFluidItem]] = [None] * n
        # Descending so pop() hands out low slots first (determinism is
        # not at stake — nothing observable depends on slot numbers —
        # but dense low slots keep the arrays cache-friendly).
        self._free: List[int] = list(range(n - 1, -1, -1))
        self._next_seq = 0
        self._fills = {}
        self._version = {}
        super().__init__(sim, capacity, name)

    # -- slot management ----------------------------------------------------
    def _grow(self) -> None:
        old = self._dem.shape[0]
        new = old * 2
        for attr, empty in (("_dem", 0.0), ("_rem", _INF), ("_ratev", 0.0)):
            arr = np.full(new, empty)
            arr[:old] = getattr(self, attr)
            setattr(self, attr, arr)
        seqv = np.zeros(new, dtype=np.int64)
        seqv[:old] = self._seqv
        self._seqv = seqv
        self._slot_items.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))

    def _alloc_slot(self, item: VecFluidItem) -> None:
        free = self._free
        if not free:
            self._grow()
        slot = free.pop()
        item._slot = slot
        self._dem[slot] = item.demand
        self._rem[slot] = item._rem0
        self._ratev[slot] = item._rate0
        self._seqv[slot] = self._next_seq
        self._next_seq += 1
        self._slot_items[slot] = item

    def _release_slot(self, item: VecFluidItem) -> None:
        slot = item._slot
        if slot < 0:
            return
        rem = self._rem[slot]
        item._rem0 = _INF if rem == _INF else float(rem)
        item._rate0 = float(self._ratev[slot])
        item._slot = -1
        self._slot_items[slot] = None
        # Back to the free-slot sentinel: rate 0.0 passes through the
        # settle/ETA math untouched, remaining inf never looks finished.
        self._ratev[slot] = 0.0
        self._rem[slot] = _INF
        self._free.append(slot)

    # -- engine hook overrides ----------------------------------------------
    def _insert(self, item: VecFluidItem) -> None:
        if item._slot < 0:
            self._alloc_slot(item)
        super()._insert(item)

    def _remove(self, item: VecFluidItem) -> None:
        super()._remove(item)
        self._release_slot(item)

    def _discard(self, item: VecFluidItem) -> None:
        self._release_slot(item)

    def _set_demand_hook(self, item: VecFluidItem) -> None:
        slot = item._slot
        if slot >= 0:
            self._dem[slot] = item.demand

    def fail_all(self, exc: BaseException) -> None:
        self._fills.clear()
        self._version.clear()
        super().fail_all(exc)

    # -- settle --------------------------------------------------------------
    def _advance_remaining(self, elapsed: float) -> None:
        if len(self._items) <= _SMALL_SETTLE:
            # Per-item advance straight on the arrays: the same
            # ``max(0.0, r - rate*elapsed)`` floats, no array
            # temporaries for a handful of items.
            finite = self._finite
            buckets = self._buckets
            rem = self._rem
            ratev = self._ratev
            for prio in self._prio_order:
                if finite.get(prio, 0):
                    for it in buckets[prio]:
                        s = it._slot
                        rate = ratev[s]
                        if rate > 0.0 and rem[s] != _INF:
                            nr = rem[s] - rate * elapsed
                            rem[s] = nr if nr > 0.0 else 0.0
            return
        # Per element this is exactly max(0.0, r - rate*elapsed); slots
        # with rate 0.0 (idle or freed) pass through bit-unchanged and
        # holds stay inf, so no mask is needed.
        rem = self._rem
        rem -= self._ratev * elapsed
        np.maximum(rem, 0.0, out=rem)

    # -- water-fill ----------------------------------------------------------
    def _class_fill(self, prio: int) -> _ClassFill:
        v = self._version.get(prio, 0)
        f = self._fills.get(prio)
        if f is not None and f.version == v:
            return f
        bucket = self._buckets[prio]
        n = len(bucket)
        if n <= _SMALL_CLASS:
            # Small class: build the sorted view without touching numpy
            # at all (timsort is stable on bucket order, like argsort).
            members = sorted(bucket, key=_by_demand)
            f = _ClassFill(v, n, None, None, None, None, 0.0,
                           [it.demand for it in members],
                           [it._slot for it in members])
            self._fills[prio] = f
            return f
        slots = np.fromiter((it._slot for it in bucket), dtype=np.intp,
                            count=n)
        d = self._dem[slots]
        # Stable argsort on bucket (= submission) order: identical tie
        # handling to the scalar engine's sorted(group, key=demand).
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        slots_sorted = slots[order]
        csum = np.cumsum(d_sorted)  # sequential: Python's running sum
        csum_prev = np.empty(n)
        csum_prev[0] = 0.0
        csum_prev[1:] = csum[:-1]
        coef = d_sorted * np.arange(n, 0, -1, dtype=np.float64)
        f = _ClassFill(v, n, slots_sorted, d_sorted, csum_prev, coef,
                       float(csum[-1]), d_sorted.tolist(),
                       slots_sorted.tolist())
        self._fills[prio] = f
        return f

    def _fill_class(self, prio: int, cap: float):
        """Water-fill one class at entering capacity *cap*.

        Returns ``(used, changed, starved)`` like the scalar
        ``_water_fill``.
        """
        f = self._class_fill(prio)
        n = f.n
        ratev = self._ratev
        if n <= _SMALL_CLASS:
            # Same prefix-sum formulation in plain Python — identical
            # floats, none of the numpy fixed costs.
            d_list = f.d_list
            sl = f.sl_list
            csum = 0.0
            k = n
            for i in range(n):
                d = d_list[i]
                if d * (n - i) > cap - csum:
                    k = i
                    break
                csum += d
            changed = False
            starved = 0
            if d_list[0] <= _EPS:
                while starved < k and d_list[starved] <= _EPS:
                    starved += 1
            if k < n:
                share = (cap - csum) / (n - k)
                used = csum + share * (n - k)
                if share <= _EPS:
                    starved += n - k
                for i in range(k):
                    s = sl[i]
                    d = d_list[i]
                    if ratev[s] != d:
                        ratev[s] = d
                        changed = True
                for i in range(k, n):
                    s = sl[i]
                    if ratev[s] != share:
                        ratev[s] = share
                        changed = True
            else:
                used = csum
                for i in range(n):
                    s = sl[i]
                    d = d_list[i]
                    if ratev[s] != d:
                        ratev[s] = d
                        changed = True
            return used, changed, starved

        memo = f.memo
        hit = memo.get(cap)
        if hit is None:
            # Constrained prefix: item i is capped at its demand iff
            # d[i]*(n-i) <= cap - csum_prev[i] — elementwise the same
            # compare the scalar loop makes before each break.
            bad = np.nonzero(f.coef > cap - f.csum_prev)[0]
            k = int(bad[0]) if bad.size else n
            # Constrained members at demand <= _EPS: a sorted prefix.
            starved = min(k, int(np.searchsorted(f.d_sorted, _EPS,
                                                 side="right")))
            if k < n:
                csum_k = float(f.csum_prev[k])
                share = (cap - csum_k) / (n - k)
                used = csum_k + share * (n - k)
                if share <= _EPS:
                    starved += n - k
                rates = f.d_sorted.copy()
                rates[k:] = share
            else:
                used = f.total
                rates = f.d_sorted
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[cap] = hit = (rates, used, starved)
        rates, used, starved = hit
        sl = f.slots_sorted
        if np.array_equal(ratev[sl], rates):
            return used, False, starved
        ratev[sl] = rates
        return used, True, starved

    # -- reassignment ---------------------------------------------------------
    def _reassign(self) -> None:
        """Vector twin of the scalar ``_reassign``: same per-class
        incremental skip logic and the same priority-order float
        accumulation, with fills running through the array kernel."""
        self._free_cache = None
        remaining_cap = self._capacity
        changed = self._structure_changed
        self._structure_changed = False
        dirty = self._dirty_classes
        if dirty:
            self._dirty_classes = set()
            version = self._version
            for prio in dirty:
                version[prio] = version.get(prio, 0) + 1
        load = 0.0
        rate_sum = self._rate_sum
        starved_by = self._starved
        cap_in = self._cap_in
        ratev = self._ratev
        recomputed: List[int] = []
        for prio in self._prio_order:
            if prio not in dirty and cap_in.get(prio) == remaining_cap:
                used = rate_sum[prio]
                load += used
                remaining_cap -= used
                continue
            cap_in[prio] = remaining_cap
            recomputed.append(prio)
            if remaining_cap <= _EPS:
                f = self._class_fill(prio)
                if f.slots_sorted is None:  # small class: no arrays
                    for s in f.sl_list:
                        if ratev[s] != 0.0:
                            ratev[s] = 0.0
                            changed = True
                else:
                    sl = f.slots_sorted
                    if ratev[sl].any():
                        ratev[sl] = 0.0
                        changed = True
                rate_sum[prio] = 0.0
                starved_by[prio] = f.n
                continue
            used, group_changed, nstarved = self._fill_class(
                prio, remaining_cap)
            changed |= group_changed
            rate_sum[prio] = used
            starved_by[prio] = nstarved
            load += used
            remaining_cap -= used
        self._load = load

        if not changed:
            return

        now = self.sim.now
        pending = self._pending_start
        if pending:
            for prio in recomputed:
                if prio in pending:
                    self._stamp_started(prio, now)

        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("waterfill", self.name,
                           track=f"sched:{self.name}",
                           items=len(self._items), load=round(load, 6))

        self._schedule_next_completion()
        for obs in self._observers:
            obs(self)

    # -- completion -----------------------------------------------------------
    def _schedule_next_completion(self) -> None:
        """Masked-reduction ETA: min over remaining/rate of every slot
        with service and finite work.  Rates only change inside a
        recompute, so this live mask equals the scalar engine's
        per-class candidate lists, and ``min`` over identical divisions
        is exact."""
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        if len(self._items) <= _SMALL_SCAN:
            # Plain loop over the handful of attached items — the same
            # divisions, min over the same set.
            rem = self._rem
            ratev = self._ratev
            eta = _INF
            for it in self._items:
                s = it._slot
                rate = ratev[s]
                if rate > _EPS and rem[s] != _INF:
                    e = rem[s] / rate
                    if e < eta:
                        eta = e
            if eta != _INF:
                self._arm_timer(float(eta))
            return
        mask = (self._ratev > _EPS) & (self._rem != np.inf)
        if not mask.any():
            return
        eta = float(np.min(self._rem[mask] / self._ratev[mask]))
        self._arm_timer(eta)

    def _find_finished(self) -> List[VecFluidItem]:
        if len(self._items) <= _SMALL_SCAN:
            rem = self._rem
            ratev = self._ratev
            out = []
            for it in self._items:  # submission order, like the scalar
                s = it._slot
                tol = ratev[s] * 1e-9
                if rem[s] <= (tol if tol > _DONE_TOL else _DONE_TOL):
                    out.append(it)
            return out
        # Free slots hold remaining=inf, so no occupancy mask is needed.
        mask = self._rem <= np.maximum(_DONE_TOL, self._ratev * 1e-9)
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return []
        items = self._slot_items
        if idx.size == 1:
            return [items[idx[0]]]
        # Submission order, like the scalar engine's _items scan.
        order = np.argsort(self._seqv[idx], kind="stable")
        return [items[i] for i in idx[order]]
