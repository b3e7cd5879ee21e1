"""Property-based tests for the fluid scheduler.

The fluid scheduler underpins every resource in the simulation (CPU,
NIC, IOPS, GPUs), so its invariants carry the whole reproduction:

* capacity is never oversubscribed;
* priority is strict: a lower class gets nothing while a higher one is
  unsatisfied;
* work is conserved: total served equals total submitted;
* completions happen exactly when the integrated rate covers the work.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidScheduler, Simulator

# Bounded, structured op sequences: (kind, params)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"),
                  st.floats(0.01, 5.0),       # work
                  st.floats(0.1, 4.0),        # demand
                  st.integers(0, 2)),         # priority
        st.tuples(st.just("advance"), st.floats(0.01, 2.0)),
        st.tuples(st.just("capacity"), st.floats(0.5, 8.0)),
        st.tuples(st.just("cancel_first"),),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_capacity_never_oversubscribed(ops):
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    items = []
    for op in ops:
        if op[0] == "submit":
            _k, work, demand, prio = op
            items.append(sched.submit(work=work, demand=demand,
                                      priority=prio))
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "capacity":
            sched.set_capacity(op[1])
        elif op[0] == "cancel_first":
            live = [it for it in items if it.active]
            if live:
                sched.cancel(live[0])
        assert sched.load <= sched.capacity + 1e-9
        for it in sched.items:
            assert 0.0 <= it.rate <= it.demand + 1e-9


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_strict_priority_invariant(ops):
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu")
    for op in ops:
        if op[0] == "submit":
            _k, work, demand, prio = op
            sched.submit(work=work, demand=demand, priority=prio)
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "capacity":
            sched.set_capacity(op[1])
        # If any item of class p is unsatisfied (rate < demand), then no
        # item of a strictly lower class may receive service.
        for hungry in sched.items:
            if hungry.rate < hungry.demand - 1e-9:
                for other in sched.items:
                    if other.priority > hungry.priority:
                        assert other.rate <= 1e-9, (
                            f"{other!r} served while {hungry!r} hungry"
                        )


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=20),
    demands=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=20),
    capacity=st.floats(0.5, 8.0),
)
def test_work_conservation(works, demands, capacity):
    sim = Simulator()
    sched = FluidScheduler(sim, capacity, name="cpu")
    total = 0.0
    for i, work in enumerate(works):
        demand = demands[i % len(demands)]
        sched.submit(work=work, demand=demand)
        total += work
    sim.run()
    sched._settle()
    assert sched.served_integral == (
        __import__("pytest").approx(total, rel=1e-6))
    assert not sched.items  # everything finished


@settings(max_examples=40, deadline=None)
@given(
    work=st.floats(0.01, 10.0),
    demand=st.floats(0.1, 8.0),
    capacity=st.floats(0.5, 8.0),
)
def test_single_item_completion_time_exact(work, demand, capacity):
    sim = Simulator()
    sched = FluidScheduler(sim, capacity, name="cpu")
    item = sched.submit(work=work, demand=demand)
    sim.run(until_event=item)
    rate = min(demand, capacity)
    assert math.isclose(sim.now, work / rate, rel_tol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    works=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=10),
    detach_at=st.floats(0.01, 0.5),
)
def test_detach_attach_preserves_total_service(works, detach_at):
    """Moving an item between schedulers must not create or lose work."""
    sim = Simulator()
    a = FluidScheduler(sim, 2.0, name="a")
    b = FluidScheduler(sim, 2.0, name="b")
    items = [a.submit(work=w, demand=1.0) for w in works]
    sim.run(until=detach_at)
    victim = next((it for it in items if it.active), None)
    if victim is not None:
        a.detach(victim)
        b.attach(victim)
    sim.run()
    a._settle()
    b._settle()
    total = sum(works)
    served = a.served_integral + b.served_integral
    assert served == __import__("pytest").approx(total, rel=1e-6)
    for it in items:
        assert it.triggered


@settings(max_examples=40, deadline=None)
@given(
    demands=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=10),
    data=st.data(),
)
def test_water_fill_order_independent(demands, data):
    """Submission order must not matter: the rate an item receives is a
    function of its demand and the competing demand set, so permuting
    the submission order changes nothing observable (beyond float ulps
    from the summation order)."""
    n = len(demands)
    perm = data.draw(st.permutations(list(range(n))))

    def run(order):
        sim = Simulator()
        sched = FluidScheduler(sim, 4.0, name="cpu")
        items = {}
        for idx in order:
            items[idx] = sched.submit(work=1.0 + idx * 0.1,
                                      demand=demands[idx])
        rates = {i: it.rate for i, it in items.items()}
        sim.run()
        sched.sync()
        finishes = {i: it.finished_at for i, it in items.items()}
        return rates, finishes, sched.served_integral

    rates_a, fins_a, served_a = run(list(range(n)))
    rates_b, fins_b, served_b = run(perm)

    approx = __import__("pytest").approx
    # The initial rate *vector* is order-independent (equal-demand items
    # may swap which of two ulp-adjacent shares they get).
    assert sorted(rates_a.values()) == approx(sorted(rates_b.values()),
                                              rel=1e-9, abs=1e-12)
    # Each item (works are distinct) finishes at the same virtual time.
    for i in range(n):
        assert fins_a[i] == approx(fins_b[i], rel=1e-9, abs=1e-9)
    assert served_a == approx(served_b, rel=1e-9)
