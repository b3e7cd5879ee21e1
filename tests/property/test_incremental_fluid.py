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
