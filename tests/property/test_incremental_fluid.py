"""Property tests for the incremental per-class water-filling engine.

The fluid scheduler caches each priority class's fill and skips
recomputation when neither the class nor the capacity entering it has
changed.  The cache must be invisible: after any interleaving of
``set_demand`` / ``set_capacity`` / add / remove / detach / attach /
``set_priority`` / flush, every item's rate must be *bit-identical*
(``==``, not approx) to a brute-force water-fill over the same
membership — reuse may only skip work, never change an allocation.
The cached ``starved_count`` must equal a scan of ``item.starved``
after every operation, ``fail_all`` included.

The engine reads each fill from a per-class demand histogram
(``_fill``); the oracle here is the item-sorted closed form it
replaced.  Every property also runs over demands drawn from a few
values, which produce ties and single-demand classes — the shape of
every fill in the benchmark workloads.  Service-start stamps and the
armed completion timer are checked against the oracle after every
operation.
"""

import math
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import FluidScheduler, Simulator
from repro.sim.fluid import _EPS, _fill, _fill_uniform


def water_fill(demands, capacity):
    """Item-sorted prefix-sum fill of one class, members in bucket
    order: stable-sort by demand, ``k`` = first index whose demand
    exceeds an equal split of what would remain, everyone from ``k`` on
    gets one identical ``share``.  Returns ``(rates, used, k)`` with
    ``rates`` in bucket order."""
    order = sorted(range(len(demands)), key=demands.__getitem__)
    n = len(order)
    csum = 0.0
    k = n
    for i, j in enumerate(order):
        d = demands[j]
        if d * (n - i) > capacity - csum:
            k = i
            break
        csum += d
    rates = list(demands)
    if k < n:
        share = (capacity - csum) / (n - k)
        used = csum + share * (n - k)
        for j in order[k:]:
            rates[j] = share
    else:
        used = csum
    return rates, used, k


def brute_force_rates(sched):
    """Eager oracle: recompute every class from scratch with the same
    grouping and float-operation order as the engine, through the
    item-sorted :func:`water_fill` — but none of its caches."""
    by_prio = {}
    for it in sched.items:  # insertion order, same as the buckets
        by_prio.setdefault(it.priority, []).append(it)
    rates = {}
    load = 0.0
    remaining_cap = sched.capacity
    for prio in sorted(by_prio):
        group = by_prio[prio]
        if remaining_cap <= _EPS:
            for it in group:
                rates[it] = 0.0
            continue
        fill, used, _ = water_fill([it.demand for it in group],
                                   remaining_cap)
        rates.update(zip(group, fill))
        load += used
        remaining_cap -= used
    return rates, load


def brute_force_starved(sched):
    """The oracle's count of attached items at ``rate <= _EPS``."""
    expected, _ = brute_force_rates(sched)
    return sum(rate <= _EPS for rate in expected.values())


def _op_lists(demand, capacity, *extra):
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), demand,
                      st.integers(0, 3)),      # priority
            st.tuples(st.just("remove"), st.integers(0, 1 << 20)),
            st.tuples(st.just("detach"), st.integers(0, 1 << 20)),
            st.tuples(st.just("attach"), st.integers(0, 1 << 20)),
            st.tuples(st.just("set_demand"),
                      st.integers(0, 1 << 20), demand),
            st.tuples(st.just("set_capacity"), capacity),
            st.tuples(st.just("set_priority"),
                      st.integers(0, 1 << 20), st.integers(0, 3)),
            st.tuples(st.just("flush"),),
            *extra,
        ),
        min_size=1, max_size=50,
    )


#: Ordinary values only: the rate tests draw from these, so that their
#: fills are mostly partial (a constrained prefix and a shared tail)
#: rather than empty or starved classes.
_ops = _op_lists(st.floats(0.1, 4.0), st.floats(0.5, 8.0))

#: Demands, about half at or below ``_EPS``: such members are
#: constrained at a rate that still counts as starved.
demands = st.one_of(st.floats(0.1, 4.0),
                    st.sampled_from([1e-13, 5e-13, _EPS]))
#: Capacities, about half none at all or a sliver whose equal share
#: falls under ``_EPS`` while the class itself is still filled.
capacities = st.one_of(st.floats(0.5, 8.0),
                       st.sampled_from([0.0, 1e-13, 2e-12]))
#: The ``starved_count`` tests add those degenerate values and
#: ``fail_all``, which empties the scheduler.
_starved_ops = _op_lists(demands, capacities, st.tuples(st.just("fail_all"),))

#: Demands from a few values: classes of one distinct demand and runs
#: of equal demands, the shape of every fill in the benchmark
#: workloads, which the float ranges above almost never produce.
tied_demands = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                         st.sampled_from([1e-13, 5e-13, _EPS]))
#: Capacities that are often exact sums of those demands, so splits
#: land on (and float rounding inside) runs of equal demands.
tied_capacities = st.one_of(st.floats(0.5, 8.0),
                            st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]))
_tied_ops = _op_lists(tied_demands, tied_capacities)
_tied_starved_ops = _op_lists(
    tied_demands, st.one_of(tied_capacities, capacities),
    st.tuples(st.just("fail_all"),))


def _apply(sched, held, parked, op):
    kind = op[0]
    if kind == "add":
        held.append(sched.hold(demand=op[1], priority=op[2]))
    elif kind == "submit":
        held.append(sched.submit(work=op[1], demand=op[2],
                                 priority=op[3]))
    elif kind == "advance":
        sched.sim.run(until=sched.sim.now + op[1])
        held[:] = [it for it in held if it.active]
    elif kind == "remove":
        if held:
            sched.cancel(held.pop(op[1] % len(held)))
    elif kind == "detach":
        if held:
            it = held.pop(op[1] % len(held))
            sched.detach(it)
            parked.append(it)
    elif kind == "attach":
        if parked:
            it = parked.pop(op[1] % len(parked))
            sched.attach(it)
            held.append(it)
    elif kind == "fail_all":
        sched.fail_all(RuntimeError("machine failed"))
        held.clear()
    elif kind == "set_demand":
        if held:
            sched.set_demand(held[op[1] % len(held)], op[2])
    elif kind == "set_capacity":
        sched.set_capacity(op[1])
    elif kind == "set_priority":
        if held:
            sched.set_priority(held[op[1] % len(held)], op[2])
    elif kind == "flush":
        sched.sync()


def _check_rates(ops):
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    held, parked = [], []
    for op in ops:
        _apply(sched, held, parked, op)
        if op[0] == "flush":
            # Mid-sequence flush: the coalesced recompute so far must
            # already agree with the oracle.
            expected, load = brute_force_rates(sched)
            for it in held:
                assert it.rate == expected[it]
            assert sched.load == load
    sched.sync()
    expected, load = brute_force_rates(sched)
    for it in held:
        assert it.rate == expected[it]
    assert sched.load == load


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_incremental_matches_brute_force_water_fill(ops):
    _check_rates(ops)


@settings(max_examples=200, deadline=None)
@given(ops=_tied_ops)
def test_incremental_matches_brute_force_on_tied_demands(ops):
    _check_rates(ops)


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_interleaving_is_deterministic(ops):
    """Replaying the same op sequence on a fresh scheduler reproduces
    every rate exactly — the dirty-set bookkeeping holds no hidden
    order-dependent state."""
    results = []
    for _ in range(2):
        sim = Simulator()
        sched = FluidScheduler(sim, 4.0, name="cpu")
        held, parked = [], []
        for op in ops:
            _apply(sched, held, parked, op)
        sched.sync()
        results.append([it.rate for it in held])
    assert results[0] == results[1]


def _check_starved(ops):
    """The per-class starved counts cached by the fill (all members of
    a class entering at no capacity, the equal-share tail when its share
    is at most ``_EPS``, the constrained members whose demand is) sum to
    exactly the number of attached items a scan calls starved."""
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    held, parked = [], []
    for op in ops:
        _apply(sched, held, parked, op)
        assert sched.starved_count == sum(it.starved for it in sched.items)
        assert sched.starved_count == brute_force_starved(sched)


@settings(max_examples=80, deadline=None)
@given(ops=_starved_ops)
# Pinned so every run reaches each branch: a filled class whose equal
# share is under _EPS, a near-zero constrained prefix, and a class that
# enters at no capacity.
@example(ops=[("set_capacity", 2e-12), ("add", 1.0, 0), ("add", 1.0, 0)])
@example(ops=[("add", 1e-13, 1), ("add", _EPS, 1), ("add", 1.0, 1)])
@example(ops=[("add", 4.0, 0), ("add", 1.0, 1), ("set_capacity", 0.0)])
def test_starved_count_matches_item_scan(ops):
    _check_starved(ops)


@settings(max_examples=80, deadline=None)
@given(ops=_tied_starved_ops)
def test_starved_count_on_tied_demands(ops):
    _check_starved(ops)


def _check_free_capacity(ops):
    """``free_capacity(p)`` is the capacity left after every class at or
    above priority ``p``: bit-identical to the oracle's load over just
    those classes, a memo hit included; ``demand_total`` tracks the
    attached demands."""
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    held, parked = [], []
    for op in ops:
        _apply(sched, held, parked, op)
    for prio in list(range(5)) * 2:
        _, used = brute_force_rates(SimpleNamespace(
            items=[it for it in sched.items if it.priority <= prio],
            capacity=sched.capacity))
        assert sched.free_capacity(priority=prio) == max(
            0.0, sched.capacity - used)
    assert sched.demand_total == pytest.approx(
        sum(it.demand for it in sched.items), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_free_capacity_matches_brute_force(ops):
    _check_free_capacity(ops)


@settings(max_examples=100, deadline=None)
@given(ops=_tied_ops)
def test_free_capacity_on_tied_demands(ops):
    _check_free_capacity(ops)


@settings(max_examples=40, deadline=None)
@given(dems=st.lists(demands, min_size=33, max_size=60),
       caps=st.lists(capacities, min_size=1, max_size=6))
def test_starved_count_on_wide_classes(dems, caps):
    """One wide class refilled at a series of capacities, each visited
    twice: the cached starved count matches the oracle every time."""
    sched = FluidScheduler(Simulator(), 4.0, name="cpu")
    for d in dems:
        sched.hold(demand=d, priority=1)
    for cap in caps + caps:
        sched.set_capacity(cap)
        assert sched.starved_count == brute_force_starved(sched)


def _histogram_rates(demands, capacity):
    """Rates in bucket order from the engine's histogram fill: demand
    for members below ``dk`` and the first ``ties`` at ``dk``, the
    share for the rest."""
    k, dk, ties, share, used, starved = _fill(
        dict(Counter(demands)), len(demands), capacity)
    rates = []
    for d in demands:
        if d < dk or (d == dk and ties):
            if d == dk:
                ties -= 1
            rates.append(d)
        else:
            rates.append(share)
    return rates, used, k, starved


@settings(max_examples=300, deadline=None)
@given(dems=st.lists(st.one_of(tied_demands, st.floats(0.1, 4.0)),
                     min_size=1, max_size=60),
       capacity=st.one_of(tied_capacities, capacities))
# A split inside a run of equal demands (float rounding constrains the
# first three of ten 0.1s at capacity 1.0), constrained members at
# demands <= _EPS, and capacities at or below _EPS.
@example(dems=[0.1] * 10, capacity=1.0)
@example(dems=[2.0, 0.1, 0.1, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
         capacity=1.5)
@example(dems=[1.0, 1e-13, _EPS, 1e-13], capacity=0.5)
@example(dems=[1.0, 1.0, 2.0], capacity=1e-13)
@example(dems=[1e-13, 1.0], capacity=0.0)
def test_histogram_fill_matches_item_sorted_fill(dems, capacity):
    """``_fill`` over the demand histogram gives every member the float
    the item-sorted closed form gives it, the same capacity used and
    the same split index, and counts the members at ``rate <= _EPS``;
    the memoized single-demand path returns the same tuple."""
    rates, used, k, starved = _histogram_rates(dems, capacity)
    expected, expected_used, expected_k = water_fill(dems, capacity)
    assert rates == expected
    assert used == expected_used
    assert k == expected_k
    assert starved == sum(r <= _EPS for r in expected)
    n = len(dems)
    assert _fill_uniform(dems[0], n, capacity) == _fill(
        {dems[0]: n}, n, capacity)


def test_split_inside_a_run_of_equal_demands():
    """Rounding can constrain only part of a run of equal demands; the
    tie count then picks the first members in bucket order, as the
    stable sort does."""
    k, dk, ties, share, _, _ = _fill({0.1: 10}, 10, 1.0)
    assert (k, dk, ties) == (3, 0.1, 3)
    assert share != 0.1
    sched = FluidScheduler(Simulator(), 1.0, name="cpu")
    items = [sched.hold(demand=0.1) for _ in range(10)]
    assert [it.rate for it in items] == [0.1] * 3 + [share] * 7


def _armed_deadline(sched):
    """When the scheduler's completion timer fires (None if unarmed).

    A timer due later sits on the heap; one due now sits in the
    simulator's ready FIFO."""
    timer = sched._timer
    if timer is None:
        return None
    sim = sched.sim
    (when,) = ([entry[0] for entry in sim._queue if entry[3] is timer]
               + [sim.now for ev in sim._ready if ev is timer])
    return when


def _oracle_deadline(sched, rates):
    """``now`` plus the least ``remaining / rate`` over the attached
    items the oracle serves above ``_EPS`` with finite work."""
    etas = [it.remaining / rates[it] for it in sched.items
            if rates[it] > _EPS and it.remaining != math.inf]
    return sched.sim.now + max(0.0, min(etas)) if etas else None


_timed_ops = _op_lists(
    tied_demands, st.one_of(tied_capacities, capacities),
    st.tuples(st.just("submit"), st.sampled_from([0.25, 0.5, 1.0]),
              st.one_of(tied_demands, st.floats(0.1, 4.0)),
              st.integers(0, 3)),
    st.tuples(st.just("advance"), st.sampled_from([0.1, 0.25, 0.5])),
    st.tuples(st.just("fail_all"),))


@settings(max_examples=150, deadline=None)
@given(ops=_timed_ops)
@example(ops=[("submit", 0.5, 1.0, 1), ("add", 2.0, 0),
              ("set_capacity", 4.0), ("advance", 0.25),
              ("set_capacity", 2e-12), ("set_capacity", 1.0)])
def test_service_start_and_timer_match_oracle(ops):
    """After every operation each attached item's ``started_at`` is the
    instant the oracle first served it above ``_EPS`` since it was
    attached (an instant within the run, for one that started while
    the clock advanced), and the armed timer fires when the oracle's
    first completion is due."""
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    held, parked = [], []
    expect = {}
    for op in ops:
        before = sim.now
        _apply(sched, held, parked, op)
        sched.sync()
        rates, _ = brute_force_rates(sched)
        for it in parked:
            expect.pop(it, None)  # detach resets the stamp
        for it in held:
            started = expect.get(it)
            if started is None and op[0] == "advance" and (
                    it.started_at is not None):
                assert before <= it.started_at <= sim.now
                started = it.started_at
            if started is None and rates[it] > _EPS:
                started = sim.now
            expect[it] = started
            assert it.started_at == started
        deadline = _oracle_deadline(sched, rates)
        if deadline is None:
            assert _armed_deadline(sched) is None
        else:
            assert _armed_deadline(sched) == pytest.approx(
                deadline, rel=1e-9, abs=1e-12)


_jobs = st.lists(
    st.tuples(
        st.floats(0.05, 2.0),    # work
        st.floats(0.1, 3.0),     # demand
        st.integers(0, 2),       # priority
        st.floats(0.0, 0.5),     # submit delay from previous job
    ),
    min_size=1, max_size=25,
)

#: Few works, demands and gaps: jobs that tie finish at one instant,
#: across classes too.
_tied_jobs = st.lists(
    st.tuples(
        st.sampled_from([0.25, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(0, 2),
        st.sampled_from([0.0, 0.0, 0.25, 0.5]),
    ),
    min_size=1, max_size=25,
)


def _engine_timeline(jobs, caps):
    """Submit the jobs from a process (every third one also resets the
    capacity) and record each job's completion instant."""
    sim = Simulator()
    sched = FluidScheduler(sim, 2.5, name="cpu")
    items = []

    def driver():
        for i, (work, demand, prio, gap) in enumerate(jobs):
            items.append(sched.submit(work=work, demand=demand,
                                      priority=prio))
            if caps and i % 3 == 2:
                sched.set_capacity(caps[i % len(caps)])
            yield sim.timeout(gap)

    sim.process(driver())
    sim.run()
    return [it.finished_at for it in items]


class _Job:
    """A bare oracle work item, hashed by identity like a FluidItem."""

    def __init__(self, work, demand, priority):
        self.remaining = work
        self.demand = demand
        self.priority = priority
        self.finished_at = None


def _oracle_timeline(jobs, caps):
    """The same schedule, stepped from event to event with every rate
    recomputed from scratch by the brute-force fill."""
    arrivals, at = [], 0.0
    for i, (work, demand, prio, gap) in enumerate(jobs):
        cap = caps[i % len(caps)] if caps and i % 3 == 2 else None
        arrivals.append((at, _Job(work, demand, prio), cap))
        at += gap
    order = [job for _, job, _ in arrivals]
    capacity, now, active = 2.5, 0.0, []
    while arrivals or active:
        while arrivals and arrivals[0][0] <= now:
            _, job, cap = arrivals.pop(0)
            active.append(job)
            if cap is not None:
                capacity = cap
        rates, _ = brute_force_rates(
            SimpleNamespace(items=active, capacity=capacity))
        step = min([j.remaining / rates[j] for j in active
                    if rates[j] > _EPS] + [math.inf])
        if arrivals:
            step = min(step, arrivals[0][0] - now)
        now += step
        for j in list(active):
            j.remaining -= rates[j] * step
            if j.remaining <= max(1e-9, rates[j] * 1e-9):
                active.remove(j)
                j.finished_at = now
    return [job.finished_at for job in order]


def _check_timeline(jobs, caps):
    """Staggered submissions across three priorities with capacity
    changes: every job completes when a from-scratch fluid simulation
    says it does."""
    assert _engine_timeline(jobs, caps) == pytest.approx(
        _oracle_timeline(jobs, caps), rel=1e-9, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(jobs=_jobs,
       caps=st.lists(st.floats(0.5, 6.0), min_size=0, max_size=4))
def test_completion_timeline_matches_oracle(jobs, caps):
    _check_timeline(jobs, caps)


@settings(max_examples=25, deadline=None)
@given(jobs=_tied_jobs,
       caps=st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                     min_size=0, max_size=4))
def test_completion_timeline_on_tied_demands(jobs, caps):
    _check_timeline(jobs, caps)


def test_simultaneous_finishes_complete_in_submission_order():
    """Items of two classes that finish at one instant succeed in
    submission order, not class order."""
    sim = Simulator()
    sched = FluidScheduler(sim, 2.0, name="cpu")
    low = sched.submit(work=1.0, demand=1.0, priority=2)
    high = sched.submit(work=1.0, demand=1.0, priority=0)
    order = []
    for it in (high, low):
        it.subscribe(order.append)
    sim.run()
    assert low.finished_at == high.finished_at == 1.0
    assert order == [low, high]
