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
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import FluidScheduler, Simulator
from repro.sim.fluid import _EPS


def brute_force_rates(sched):
    """Eager oracle: recompute every class from scratch with the same
    grouping, sort, and float-operation order as the engine's
    prefix-sum ``_water_fill`` — but none of its caches.  Constrained
    members (first ``k`` in demand order) get exactly their demand;
    everyone else gets one identical ``share`` float."""
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
        pending = sorted(group, key=lambda it: it.demand)
        n = len(pending)
        csum = 0.0
        k = n
        for i, it in enumerate(pending):
            d = it.demand
            if d * (n - i) > remaining_cap - csum:
                k = i
                break
            csum += d
        if k < n:
            share = (remaining_cap - csum) / (n - k)
            used = csum + share * (n - k)
            for it in pending[:k]:
                rates[it] = it.demand
            for it in pending[k:]:
                rates[it] = share
        else:
            used = csum
            for it in pending:
                rates[it] = it.demand
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


def _apply(sched, held, parked, op):
    kind = op[0]
    if kind == "add":
        held.append(sched.hold(demand=op[1], priority=op[2]))
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


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_incremental_matches_brute_force_water_fill(ops):
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


@settings(max_examples=80, deadline=None)
@given(ops=_starved_ops)
# Pinned so every run reaches each branch: a filled class whose equal
# share is under _EPS, a near-zero constrained prefix, and a class that
# enters at no capacity.
@example(ops=[("set_capacity", 2e-12), ("add", 1.0, 0), ("add", 1.0, 0)])
@example(ops=[("add", 1e-13, 1), ("add", _EPS, 1), ("add", 1.0, 1)])
@example(ops=[("add", 4.0, 0), ("add", 1.0, 1), ("set_capacity", 0.0)])
def test_starved_count_matches_item_scan(ops):
    """The per-class starved counts cached by the fill (all members of
    a class entering at no capacity, the equal-share tail when its share
    is at most ``_EPS``, the constrained prefix of near-zero demands)
    sum to exactly the number of attached items a scan calls starved."""
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    held, parked = [], []
    for op in ops:
        _apply(sched, held, parked, op)
        assert sched.starved_count == sum(it.starved for it in sched.items)
        assert sched.starved_count == brute_force_starved(sched)


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_free_capacity_matches_brute_force(ops):
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


_jobs = st.lists(
    st.tuples(
        st.floats(0.05, 2.0),    # work
        st.floats(0.1, 3.0),     # demand
        st.integers(0, 2),       # priority
        st.floats(0.0, 0.5),     # submit delay from previous job
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


@settings(max_examples=25, deadline=None)
@given(jobs=_jobs,
       caps=st.lists(st.floats(0.5, 6.0), min_size=0, max_size=4))
def test_completion_timeline_matches_oracle(jobs, caps):
    """Staggered submissions across three priorities with capacity
    changes: every job completes when a from-scratch fluid simulation
    says it does."""
    engine = _engine_timeline(jobs, caps)
    assert engine == pytest.approx(_oracle_timeline(jobs, caps),
                                   rel=1e-9, abs=1e-9)
