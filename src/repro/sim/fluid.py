"""Fluid-flow scheduler: the core trick enabling ms-granularity simulation.

Real Quicksand relies on Caladan-style core reallocation at microsecond
granularity.  Simulating every scheduling quantum would be prohibitively
slow in Python, so instead we model continuous *work* served at
*rates*: the scheduler assigns each active item a service rate (strict
priority across classes, max-min fair water-filling within a class, each
item capped by its ``demand``) and only emits events when the rate vector
changes or an item completes.  Preemption at any time granularity falls
out for free: when a high-priority item arrives, lower classes' rates drop
(possibly to zero) instantly.

The same abstraction serves three substrates:

* CPU: capacity = cores, demand = threads an item can use;
* NIC: capacity = bytes/s, items are transfers;
* storage: capacity = IOPS, items are I/O batches.

Incremental engine
------------------

Rate recomputation is *coalesced*: mutations (submit / detach / attach /
set_demand / set_capacity / …) only mark the scheduler dirty; one
water-fill runs per flush point instead of one per mutation.  A flush
happens

* from the simulator's pending-flush drain, which runs before virtual
  time next advances, so deferral is observationally invisible; and
* lazily, before any read of rates, aggregates or completion ETAs; and
* immediately, when mutating outside the event loop (keeps direct
  driving code and tests exactly as responsive as the eager engine).

Because no virtual time can pass between a mutation and its flush, the
deferred water-fill sees exactly the state an eager one would have, and
simulated timelines are unchanged.  The flush itself is *per-class
incremental*: mutations record which priority classes they touched, and
the reassignment recomputes only classes that are dirty or whose
entering capacity is not bit-identical to the cached value from their
last fill — an untouched class reuses its cached rates and per-class
sum outright, which is exact because a fill is a pure function of the
class's demand multiset and the entering capacity.  Aggregates
(``load``, per-priority rate sums, ``demand_total``, ``starved_count``)
are maintained as caches so placement policies and metrics observers
read them in O(#priorities) or O(1) rather than O(#items).  Superseded
completion timers are truly cancelled on the simulator queue (see
:meth:`Simulator.cancel`) instead of being left to fire as no-ops.

Single-pass flush
-----------------

A flush books the served integrals from the cached per-class rate sums
(O(#classes)), then walks each class's bucket once.  For every member
the walk applies the elapsed service at the old rate (the expression
:meth:`FluidScheduler._settle` uses), writes the new rate, stamps
``started_at`` on the first service above ``1e-12`` and folds
``remaining / rate`` into a running completion-ETA minimum.  A reused
class gets the same walk without the rate writes.  A completion timer
walks twice: settle plus the finished-item scan, then the reassignment
with no elapsed time.  See ``docs/kernel.md`` for the exactness
argument.

Water-fill formulation
----------------------

A class fill orders its members by demand (ascending, stable on bucket
order) and finds the split index ``k``: the first member whose demand
cannot be met if every later member received at least as much.  Members
before ``k`` are *constrained* (rate = demand); members from ``k`` on
split the leftover capacity evenly (rate = one identical ``share``
float).  The test is a prefix-sum: member ``i`` is constrained iff
``d[i] * (n - i) <= capacity - csum[i]`` where ``csum[i]`` is the sum of
demands before ``i``.  This closed form is chosen over the classic
sequential ``cap -= rate`` loop because it is a fixed sequence of float
operations (running sum, one multiply and compare per member, one
division) that the brute-force oracle in the property suite repeats
operation for operation.

The engine never sorts items: each class keeps a demand histogram
(``{demand: count}``), and :func:`_fill` walks its sorted distinct
demands one member at a time with exactly those float operations.  The
split is reported as a demand ``dk`` and a tie count: the constrained
members are those with demand below ``dk`` plus the first ``ties``
members, in bucket order, whose demand equals ``dk`` — which is the
stable sort's order among equal demands.  Cached and recomputed fills
are therefore bit-identical to the oracle, not merely close, and the
tests compare rates with ``==``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional

from .errors import UnboundResource
from .events import PENDING, Event, Timeout
from .simulator import Simulator

_EPS = 1e-12
#: Work remaining below this is considered complete (guards float drift).
_DONE_TOL = 1e-9


def _fill(hist: Dict[float, int], n: int, capacity: float):
    """Max-min fair split of *capacity* over a class of *n* members whose
    demands are counted in *hist* (``{demand: count}``).

    Walks the sorted distinct demands one member at a time with the
    float operations of the stable-sorted prefix-sum closed form (see
    the module docstring).  Returns ``(k, dk, ties, share, used,
    starved)``: ``k`` constrained members — those with demand below
    ``dk`` plus the first ``ties`` in bucket order with demand ``dk`` —
    rate ``share`` for the rest, the capacity ``used`` and how many
    members end at ``rate <= _EPS``.  With no split, ``k == n`` and
    ``dk`` is infinite.
    """
    csum = 0.0
    i = 0
    starved = 0
    for d in sorted(hist):
        count = hist[d]
        for j in range(count):
            if d * (n - i) > capacity - csum:
                share = (capacity - csum) / (n - i)
                used = csum + share * (n - i)
                if d <= _EPS:
                    starved += j
                if share <= _EPS:
                    starved += n - i
                return i, d, j, share, used, starved
            csum += d
            i += 1
        if d <= _EPS:
            starved += count
    return n, math.inf, 0, 0.0, csum, starved


@functools.lru_cache(maxsize=1024)
def _fill_uniform(demand: float, n: int, capacity: float):
    """:func:`_fill` of a class whose *n* members all demand *demand*
    (memoized: classes of one distinct demand are the common case)."""
    return _fill({demand: n}, n, capacity)


def _hist_add(hist: Dict[float, int], demand: float) -> None:
    hist[demand] = hist.get(demand, 0) + 1


def _hist_drop(hist: Dict[float, int], demand: float) -> None:
    count = hist[demand]
    if count == 1:
        del hist[demand]
    else:
        hist[demand] = count - 1


class FluidItem(Event):
    """One unit of continuous work being served by a :class:`FluidScheduler`.

    The item is its own completion event: it succeeds, with value
    ``None``, when its work reaches zero, and fails if its scheduler
    fails it (:meth:`FluidScheduler.fail_all`).  Yield it from a
    process, or subscribe to it: either way the event handed over is
    the item itself.  A detached item stays untriggered so it can be
    attached elsewhere; a hold never succeeds.

    While pending, an item is referenced by its scheduler's buckets and
    by whoever waits on it; once finished it holds no reference back to
    itself (its value is ``None`` and its scheduler is cleared), so it
    is freed by reference count as soon as its last waiter lets go.

    Attributes
    ----------
    remaining:
        Work left, in capacity-seconds (e.g. core-seconds, bytes).
        ``math.inf`` denotes a *hold* that only ends when cancelled.
    demand:
        Maximum rate this item can absorb (e.g. number of runnable
        threads for CPU, link rate for NIC).
    priority:
        Lower value = served first.  Strict across classes.
    rate:
        Current assigned service rate (managed by the scheduler; reading
        it flushes any pending reassignment first).
    """

    __slots__ = ("name", "demand", "priority", "remaining", "_rate",
                 "submitted_at", "started_at", "finished_at", "_sched",
                 "owner")

    def __init__(self, sched: "FluidScheduler", name: str, work: float,
                 demand: float, priority: int, owner=None):
        # Event.__init__ inlined: one item per ``ctx.cpu`` call.
        sim = sched.sim
        self.sim = sim
        self.callbacks = None
        self._value = PENDING
        self._ok = True
        self._processed = False
        self._cancelled = False
        self.name = name
        self.demand = float(demand)
        self.priority = int(priority)
        self.remaining = float(work)
        self._rate = 0.0
        self.submitted_at = sim._now
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._sched: Optional[FluidScheduler] = sched
        self.owner = owner

    @property
    def rate(self) -> float:
        """Current assigned service rate (flushes pending reassignment)."""
        sched = self._sched
        if sched is not None and sched._dirty:
            sched._flush()
        return self._rate

    @property
    def active(self) -> bool:
        """True while the item is attached to a scheduler."""
        return self._sched is not None

    @property
    def starved(self) -> bool:
        """True if attached but currently receiving no service."""
        return self._sched is not None and self.rate <= _EPS

    def queueing_delay(self, now: float) -> float:
        """Time since submission without any service (the §5 signal).

        ``detach`` resets service-start tracking and ``attach`` restarts
        the submission clock, so after a migration this measures
        post-migration queueing rather than sticking at zero.
        """
        sched = self._sched
        if sched is not None and sched._dirty:
            sched._flush()
        if self.started_at is not None:
            return 0.0
        return now - self.submitted_at

    def __repr__(self) -> str:
        return (f"<FluidItem {self.name!r} prio={self.priority} "
                f"rate={self._rate:.3g} remaining={self.remaining:.3g}>")


class FluidScheduler:
    """Strict-priority, max-min-fair rate scheduler over one capacity."""

    def __init__(self, sim: Simulator, capacity: float, name: str = "fluid"):
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        self.sim = sim
        self.name = name
        self._capacity = float(capacity)
        # Insertion-ordered dicts used as ordered sets: iteration is
        # submission order (what the fairness and settle accounting
        # depend on) while detach of an arbitrary item — the proclet
        # churn hot path — is O(1) instead of a list scan.
        self._items: Dict[FluidItem, None] = {}
        # Persistent priority buckets; each bucket preserves _items order.
        self._buckets: Dict[int, Dict[FluidItem, None]] = {}
        self._prio_order: List[int] = []
        self._last_update = sim.now
        # Cached aggregates, valid whenever the scheduler is clean.
        self._load = 0.0
        self._demand_total = 0.0
        self._rate_sum: Dict[int, float] = {}
        # Per-class count of members with ``rate <= _EPS`` (the
        # ``FluidItem.starved`` predicate), kept beside _rate_sum.
        self._starved: Dict[int, int] = {}
        # Incremental water-fill state: classes whose demand/membership
        # changed since the last flush, the capacity that entered each
        # class at its last recompute, and each class's demand histogram
        # ({demand: count}, the input of _fill).  A class whose inputs
        # are bit-identical to its cached fill keeps its rates.
        self._dirty_classes: set = set()
        self._cap_in: Dict[int, float] = {}
        self._demands: Dict[int, Dict[float, int]] = {}
        # Per-class count of finite-work items: a holds-only class (all
        # ``math.inf``) has nothing to settle, finish or time.
        self._finite: Dict[int, int] = {}
        # free_capacity(priority) memo, invalidated by every reassign.
        self._free_cache: Optional[Dict[int, float]] = None
        # Coalesced-reassignment state.
        self._dirty = False
        self._structure_changed = False
        self._flush_scheduled = False
        self._in_flush = False
        self._timer: Optional[Event] = None
        self._on_timer_cb = self._on_timer
        # Integral of served rate over time, total and per priority class.
        self.served_integral = 0.0
        self.served_by_priority: Dict[int, float] = {}
        self._observers: List[Callable[["FluidScheduler"], None]] = []

    # -- configuration ------------------------------------------------------
    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change total capacity (e.g. cores taken offline)."""
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        self._capacity = float(capacity)
        self._mark_dirty()

    def add_observer(self, fn: Callable[["FluidScheduler"], None]) -> None:
        """Call *fn(self)* after every rate reassignment that changed
        something (rates or the attached-item set)."""
        self._observers.append(fn)

    # -- submission ----------------------------------------------------------
    def submit(self, work: float, demand: float = 1.0, priority: int = 1,
               name: str = "", owner=None) -> FluidItem:
        """Submit *work* capacity-seconds; returns the tracking item."""
        if work < 0:
            raise ValueError(f"negative work: {work}")
        if demand <= 0:
            raise ValueError(f"demand must be positive: {demand}")
        item = FluidItem(self, name or f"{self.name}-item", work, demand,
                         priority, owner)
        if work <= _DONE_TOL:
            item._sched = None
            item.remaining = 0.0
            item.finished_at = self.sim._now
            item.succeed()
            return item
        self._insert(item)
        return item

    def hold(self, demand: float, priority: int = 1, name: str = "",
             owner=None) -> FluidItem:
        """Submit an unbounded item that runs until cancelled."""
        item = FluidItem(self, name or f"{self.name}-hold", math.inf,
                         demand, priority, owner=owner)
        self._insert(item)
        return item

    # -- removal --------------------------------------------------------------
    def cancel(self, item: FluidItem) -> float:
        """Remove *item* without completing it; returns remaining work."""
        return self.detach(item)

    def detach(self, item: FluidItem) -> float:
        """Remove *item* preserving its remaining work (for migration).

        The item is left untriggered so it can be re-submitted
        elsewhere via :meth:`attach`.  Service-start tracking is reset
        so queueing delay is measured afresh wherever the item lands
        next.
        """
        if item._sched is not self:
            raise UnboundResource(f"{item!r} is not attached to {self.name}")
        self._settle()
        self._remove(item)
        item._sched = None
        item._rate = 0.0
        item.started_at = None
        self._mark_dirty()
        return item.remaining

    def attach(self, item: FluidItem) -> None:
        """Re-attach a detached item (its remaining work resumes here).

        The submission clock restarts so ``queueing_delay`` measures
        time queued *here*, not time since the original submission.
        """
        if item._sched is not None:
            raise UnboundResource(f"{item!r} is already attached")
        if item._value is not PENDING:
            raise UnboundResource(f"{item!r} already completed")
        item._sched = self
        item.submitted_at = self.sim.now
        self._insert(item)

    def fail_all(self, exc: BaseException) -> None:
        """Fail every attached item with *exc* (machine failure).

        Each item fails, so processes blocked on the work observe the
        failure immediately.  A no-op when nothing is attached (no
        spurious reassignment or observer churn).
        """
        if not self._items:
            return
        self._settle()
        items, self._items = list(self._items), {}
        self._buckets.clear()
        self._prio_order = []
        self._demand_total = 0.0
        self._dirty_classes.clear()
        self._cap_in.clear()
        self._rate_sum.clear()
        self._starved.clear()
        self._demands.clear()
        self._finite.clear()
        self._structure_changed = True
        for item in items:
            item._sched = None
            item._rate = 0.0
            item.fail(exc)
        self._mark_dirty()

    # -- tuning ---------------------------------------------------------------
    def set_demand(self, item: FluidItem, demand: float) -> None:
        if item._sched is not self:
            raise UnboundResource(f"{item!r} is not attached to {self.name}")
        if demand <= 0:
            raise ValueError(f"demand must be positive: {demand}")
        demand = float(demand)
        hist = self._demands[item.priority]
        _hist_drop(hist, item.demand)
        _hist_add(hist, demand)
        self._demand_total += demand - item.demand
        item.demand = demand
        self._dirty_classes.add(item.priority)
        self._mark_dirty()

    def set_priority(self, item: FluidItem, priority: int) -> None:
        if item._sched is not self:
            raise UnboundResource(f"{item!r} is not attached to {self.name}")
        # Served work so far must be booked under the old class.
        self._settle()
        old = item.priority
        item.priority = int(priority)
        if item.priority != old:
            new = item.priority
            finite = item.remaining != math.inf
            del self._buckets[old][item]
            if not self._buckets[old]:
                del self._buckets[old]
                self._rate_sum.pop(old, None)
                self._starved.pop(old, None)
                self._cap_in.pop(old, None)
                self._demands.pop(old, None)
                self._finite.pop(old, None)
            else:
                self._dirty_classes.add(old)
                _hist_drop(self._demands[old], item.demand)
                if finite:
                    self._finite[old] -= 1
            # Rebuild the destination bucket from _items so the bucket
            # keeps submission order (identical to the eager engine's
            # rebuild-from-scratch behaviour).
            self._buckets[new] = {
                it: None for it in self._items
                if it.priority == new
            }
            self._prio_order = sorted(self._buckets)
            self._dirty_classes.add(new)
            _hist_add(self._demands.setdefault(new, {}), item.demand)
            if finite:
                self._finite[new] = self._finite.get(new, 0) + 1
            self._structure_changed = True
        self._mark_dirty()

    # -- inspection -------------------------------------------------------------
    @property
    def items(self) -> List[FluidItem]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def load(self) -> float:
        """Sum of current service rates (<= capacity).  Cached: O(1)."""
        if self._dirty:
            self._flush()
        return self._load

    @property
    def starved_count(self) -> int:
        """Number of attached items receiving no service (``rate <=
        1e-12``, the :attr:`FluidItem.starved` predicate).  Summed from
        the per-class counts each fill caches: O(#priority classes)."""
        if self._dirty:
            self._flush()
        return sum(self._starved.values())

    @property
    def demand_total(self) -> float:
        """Sum of attached demands.  Cached: O(1)."""
        return self._demand_total

    def free_capacity(self, priority: int = 10**9) -> float:
        """Capacity a new item at *priority* could obtain without
        squeezing anyone: total capacity minus the rates of items at this
        priority or more urgent.  This is the signal placement policies
        use ("how many idle cores does this machine have for me?").
        O(#priority classes) thanks to cached per-class rate sums, and
        memoized per priority between reassignments — pollers that probe
        the same class every tick pay a dict hit."""
        if self._dirty:
            self._flush()
        cache = self._free_cache
        if cache is None:
            cache = self._free_cache = {}
        else:
            hit = cache.get(priority)
            if hit is not None:
                return hit
        used = 0.0
        rate_sum = self._rate_sum
        for prio in self._prio_order:
            if prio <= priority:
                used += rate_sum[prio]
        free = max(0.0, self._capacity - used)
        cache[priority] = free
        return free

    def utilization_since(self, t0: float, integral0: float) -> float:
        """Mean utilization in [t0, now] given a prior integral snapshot."""
        self.sync()
        dt = self.sim.now - t0
        if dt <= 0 or self._capacity <= 0:
            return 0.0
        return (self.served_integral - integral0) / (dt * self._capacity)

    def sync(self) -> None:
        """Bring rates and served-work accounting up to the current
        instant (flushing any pending reassignment first)."""
        if self._dirty:
            self._flush()
        else:
            self._settle()

    # -- engine ------------------------------------------------------------------
    def _insert(self, item: FluidItem) -> None:
        # One call per submit: _hist_add and _mark_dirty are inlined.
        prio = item.priority
        demand = item.demand
        self._items[item] = None
        bucket = self._buckets.get(prio)
        if bucket is None:
            self._buckets[prio] = {item: None}
            self._demands[prio] = {demand: 1}
            self._prio_order = sorted(self._buckets)
        else:
            bucket[item] = None
            hist = self._demands[prio]
            hist[demand] = hist.get(demand, 0) + 1
        self._demand_total += demand
        self._dirty_classes.add(prio)
        if item.remaining != math.inf:
            self._finite[prio] = self._finite.get(prio, 0) + 1
        self._structure_changed = True
        self._dirty = True
        sim = self.sim
        if not sim._running and not self._in_flush:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            sim._pending_flushes.append(self)

    def _remove(self, item: FluidItem) -> None:
        prio = item.priority
        del self._items[item]
        bucket = self._buckets[prio]
        del bucket[item]
        if not bucket:
            del self._buckets[prio]
            self._prio_order = sorted(self._buckets)
            self._rate_sum.pop(prio, None)
            self._starved.pop(prio, None)
            self._cap_in.pop(prio, None)
            del self._demands[prio]
            self._finite.pop(prio, None)
        else:
            self._dirty_classes.add(prio)
            _hist_drop(self._demands[prio], item.demand)
            if item.remaining != math.inf:
                self._finite[prio] -= 1
        self._demand_total -= item.demand
        if not self._items:
            self._demand_total = 0.0  # clamp accumulated float drift
        self._structure_changed = True

    def _mark_dirty(self) -> None:
        """Note a pending reassignment and arrange for it to flush.

        Inside the event loop the scheduler joins the simulator's
        pending-flush list, drained before virtual time next advances
        (so a burst of k mutations at one instant costs one water-fill);
        outside the loop it flushes immediately, preserving the eager
        engine's read-after-write behaviour for driver code and tests.
        """
        self._dirty = True
        sim = self.sim
        if not sim._running and not self._in_flush:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            sim._pending_flushes.append(self)

    def _run_pending_flush(self) -> None:
        self._flush_scheduled = False
        if self._dirty:
            self._flush()

    def _flush(self) -> None:
        """Book served work, then run the coalesced reassignment walk
        (which also settles each item's remaining work)."""
        if not self._dirty or self._in_flush:
            return
        self._in_flush = True
        try:
            elapsed = self._advance()
            self._dirty = False
            self._reassign(elapsed)
        finally:
            self._in_flush = False

    def _advance(self) -> float:
        """Book the served integrals up to now; return the elapsed time
        the items' remaining work must still be advanced by (``0.0``
        when no service can have happened since the last update).

        O(#priority classes): the per-class rate sums are exact caches,
        so the integrals come from them rather than an item scan.
        """
        # The clock slot, not the ``now`` property: the engine reads it
        # on every flush, item and completion.
        now = self.sim._now
        elapsed = now - self._last_update
        if elapsed <= 0:
            return 0.0
        self._last_update = now
        if self._load == 0.0 or not self._items:
            return 0.0  # provably no service since the last update
        served = self.served_by_priority
        rate_sum = self._rate_sum
        total = 0.0
        for prio in self._prio_order:
            rs = rate_sum.get(prio, 0.0)
            if rs > 0.0:
                served[prio] = served.get(prio, 0.0) + rs * elapsed
                total += rs
        self.served_integral += total * elapsed
        return elapsed

    def _settle(self) -> None:
        """Advance served-work accounting and remaining work to now, for
        the mutations that must book service before they change an item
        (``detach``, ``set_priority``, ``fail_all``) and for ``sync``."""
        elapsed = self._advance()
        if not elapsed:
            return
        # Served items lose ``rate * elapsed`` of work, clamped at zero
        # (``r if r > 0.0 else 0.0`` is ``max(0.0, r)`` without the
        # builtin call); holds stay infinite.
        inf = math.inf
        finite = self._finite
        buckets = self._buckets
        for prio in self._prio_order:
            if finite.get(prio, 0):
                for it in buckets[prio]:
                    rate = it._rate
                    if rate > 0.0:
                        left = it.remaining
                        if left != inf:
                            left -= rate * elapsed
                            it.remaining = left if left > 0.0 else 0.0

    def _reassign(self, elapsed: float) -> None:
        """Walk every class once: settle *elapsed* of service at the old
        rates, refill, stamp first service and take the completion ETA;
        re-arm the timer and notify observers only when something
        actually changed.

        Incremental per-class water-filling: a class is refilled only
        when it is in the dirty set (membership or demand changed) or
        when the capacity entering it is not bit-identical to the value
        cached at its last fill.  Because a fill is a pure function of
        the class's demand histogram and the entering capacity, a reused
        class's rates are exactly what a refill would write — it is
        walked only to settle and time its items, and not at all when
        it holds only holds or entered with no capacity.  Aggregates are
        re-accumulated in priority order from the per-class sums, so
        ``load`` and ``free_capacity`` are bit-identical to the eager
        engine's.  The ETA is the minimum of ``remaining / rate`` over
        the served finite items, whatever order they are visited in; a
        reused class left unwalked (no elapsed time) is timed after the
        loop, and only if the timer must be re-armed.
        """
        self._free_cache = None
        remaining_cap = self._capacity
        changed = self._structure_changed
        self._structure_changed = False
        dirty = self._dirty_classes
        if dirty:
            self._dirty_classes = set()
        now = self.sim._now
        inf = eta = math.inf
        load = 0.0
        rate_sum = self._rate_sum
        starved_by = self._starved
        cap_in = self._cap_in
        finite = self._finite
        buckets = self._buckets
        demands = self._demands
        untimed: List[Dict[FluidItem, None]] = []
        for prio in self._prio_order:
            bucket = buckets[prio]
            if prio not in dirty and cap_in.get(prio) == remaining_cap:
                used = rate_sum[prio]
                if not finite.get(prio, 0) or remaining_cap <= _EPS:
                    pass  # nothing to settle or time: holds, or all at 0
                elif not elapsed:
                    untimed.append(bucket)
                else:
                    for it in bucket:
                        rate = it._rate
                        if rate > 0.0:
                            left = it.remaining
                            if left != inf:
                                left -= rate * elapsed
                                left = it.remaining = (
                                    left if left > 0.0 else 0.0)
                                if rate > _EPS:
                                    left /= rate
                                    if left < eta:
                                        eta = left
                load += used
                remaining_cap -= used
                continue
            cap_in[prio] = remaining_cap
            if remaining_cap <= _EPS:
                for it in bucket:
                    rate = it._rate
                    if rate != 0.0:
                        if elapsed:
                            left = it.remaining
                            if rate > 0.0 and left != inf:
                                left -= rate * elapsed
                                it.remaining = left if left > 0.0 else 0.0
                        it._rate = 0.0
                        changed = True
                rate_sum[prio] = 0.0
                starved_by[prio] = len(bucket)
                continue
            hist = demands[prio]
            n = len(bucket)
            if len(hist) == 1:
                (d,) = hist
                fill = _fill_uniform(d, n, remaining_cap)
            else:
                fill = _fill(hist, n, remaining_cap)
            _, dk, ties, share, used, starved = fill
            for it in bucket:
                rate = it._rate
                left = it.remaining
                if elapsed and rate > 0.0 and left != inf:
                    left -= rate * elapsed
                    left = it.remaining = left if left > 0.0 else 0.0
                new = it.demand
                if new >= dk:
                    if ties and new == dk:
                        ties -= 1  # constrained: bucket order breaks ties
                    else:
                        new = share
                if new != rate:
                    it._rate = new
                    changed = True
                if new > _EPS:
                    if it.started_at is None:
                        it.started_at = now
                    if left != inf:
                        left /= new
                        if left < eta:
                            eta = left
            rate_sum[prio] = used
            starved_by[prio] = starved
            load += used
            remaining_cap -= used
        self._load = load

        if not changed:
            # Rates are bit-identical and the item set is unchanged: the
            # pending completion timer still targets the right instant
            # and observers would see nothing new.
            return

        for bucket in untimed:
            for it in bucket:
                rate = it._rate
                if rate > _EPS:
                    left = it.remaining
                    if left != inf:
                        left /= rate
                        if left < eta:
                            eta = left

        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("waterfill", self.name,
                           track=f"sched:{self.name}",
                           items=len(self._items), load=round(load, 6))

        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        if eta != inf:
            self._arm_timer(eta)
        for obs in self._observers:
            obs(self)

    def _arm_timer(self, eta: float) -> None:
        """Arm the completion timer ``eta`` seconds out.

        Builds the Timeout and attaches the (cached) bound callback
        directly — the ``call_in`` convenience path would add a lambda
        allocation and a subscribe call per re-arm, and re-arms happen
        on every flush that changed anything.
        """
        ev = Timeout(self.sim, eta if eta > 0.0 else 0.0)
        ev.callbacks = [self._on_timer_cb]
        self._timer = ev

    def _on_timer(self, _ev: Optional[Event] = None) -> None:
        self._timer = None
        elapsed = self._advance()
        # One walk settles each finite class and collects its finished
        # items: under a nanosecond of service remains.  The absolute
        # tolerance alone is not enough because work values can be huge
        # (bytes), making float error exceed any fixed epsilon.
        inf = math.inf
        finite = self._finite
        buckets = self._buckets
        finished: List[FluidItem] = []
        classes = 0
        for prio in self._prio_order:
            if not finite.get(prio, 0):
                continue
            before = len(finished)
            for it in buckets[prio]:
                rate = it._rate
                left = it.remaining
                if elapsed and rate > 0.0 and left != inf:
                    left -= rate * elapsed
                    left = it.remaining = left if left > 0.0 else 0.0
                if left <= _DONE_TOL or left <= rate * 1e-9:
                    finished.append(it)
            if len(finished) != before:
                classes += 1
        if classes > 1:
            # They complete in submission order, across classes too.
            done = set(finished)
            finished = [it for it in self._items if it in done]
        now = self.sim._now
        for it in finished:
            self._remove(it)
            it._sched = None
            it._rate = 0.0
            it.remaining = 0.0
            it.finished_at = now
        # Even when floating-point guards left nothing finished, the
        # timer must be re-armed from the settled state.
        self._dirty = False
        self._structure_changed = True
        self._reassign(0.0)
        # Event.succeed() inlined: every finished item is pending and
        # _ok (a failed item has left the scheduler).
        ready = self.sim._ready
        for it in finished:
            it._value = None
            ready.append(it)

    def __repr__(self) -> str:
        return (f"<FluidScheduler {self.name!r} cap={self._capacity:g} "
                f"items={len(self._items)} load={self._load:g}"
                f"{' dirty' if self._dirty else ''}>")

