"""Differential property tests for the vectorized fluid engine.

The vector core (``repro.sim.vecfluid``) must be *invisible*: under any
interleaving of submit / cancel / detach / attach / ``set_demand`` /
``set_capacity`` / ``set_priority`` / flush (the op sequences of
``test_incremental_fluid``), every rate it assigns must be
bit-identical (``==``, not approx) to both the brute-force water-fill
oracle and the pure-python scalar engine — and when virtual time runs,
completions must fire at the same instants in the same order.  Both
engines' cached ``starved_count`` must equal the oracle's count of
members at ``rate <= _EPS``, ``fail_all`` included.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidScheduler, Simulator
from repro.sim.fluid import vector_supported
from tests.property.test_incremental_fluid import (
    _apply, _ops, _starved_ops, brute_force_rates, brute_force_starved,
    capacities, demands)

pytestmark = pytest.mark.skipif(
    not vector_supported(), reason="numpy not installed: no vector engine")


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_vector_matches_brute_force_water_fill(ops):
    sim = Simulator()
    sched = FluidScheduler(sim, 4.0, name="cpu", vector=True)
    assert sched.vectorized
    held, parked = [], []
    for op in ops:
        _apply(sched, held, parked, op)
        assert sched.starved_count == brute_force_starved(sched)
        if op[0] == "flush":
            expected, load = brute_force_rates(sched)
            for it in held:
                assert it.rate == expected[it]
            assert sched.load == load
    sched.sync()
    expected, load = brute_force_rates(sched)
    for it in held:
        assert it.rate == expected[it]
    assert sched.load == load
    # Detached handles stay readable off-array.
    for it in parked:
        assert it.rate == 0.0
        assert it.remaining is math.inf


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_vector_matches_scalar_engine_exactly(ops):
    """Twin-run: the same op sequence on the scalar and vector engines
    yields bit-identical rates, aggregates and free-capacity curves."""
    state = []
    for vector in (False, True):
        sim = Simulator()
        sched = FluidScheduler(sim, 4.0, name="cpu", vector=vector)
        assert sched.vectorized is vector
        held, parked = [], []
        trace = []
        for op in ops:
            _apply(sched, held, parked, op)
            assert sched.starved_count == brute_force_starved(sched)
            trace.append(sched.starved_count)
            if op[0] == "flush":
                trace.append([it.rate for it in held])
        sched.sync()
        trace.append([it.rate for it in held])
        trace.append(sched.load)
        trace.append(sched.demand_total)
        trace.append([sched.free_capacity(priority=p) for p in range(5)])
        state.append(trace)
    assert state[0] == state[1]


@settings(max_examples=40, deadline=None)
@given(ops=_starved_ops)
def test_vector_starved_count_matches_oracle(ops):
    """With near-zero demands and capacities, and ``fail_all``
    emptying the scheduler mid-sequence, both engines' starved counts
    track the oracle op by op."""
    counts = []
    for vector in (False, True):
        sched = FluidScheduler(Simulator(), 4.0, name="cpu", vector=vector)
        held, parked = [], []
        seen = []
        for op in ops:
            _apply(sched, held, parked, op)
            assert sched.starved_count == brute_force_starved(sched)
            seen.append(sched.starved_count)
        counts.append(seen)
    assert counts[0] == counts[1]


@settings(max_examples=40, deadline=None)
@given(dems=st.lists(demands, min_size=33, max_size=60),
       caps=st.lists(capacities, min_size=1, max_size=6))
def test_starved_count_on_array_kernel_classes(dems, caps):
    """Classes above the small-class cutoff fill through the numpy
    kernel and its per-capacity memo; their starved counts (a
    ``searchsorted`` prefix plus the tail) must match the oracle and the
    scalar engine at every capacity, including repeated (memo-hit)
    ones."""
    counts = []
    for vector in (False, True):
        sched = FluidScheduler(Simulator(), 4.0, name="cpu", vector=vector)
        for d in dems:
            sched.hold(demand=d, priority=1)
        seen = []
        for cap in caps + caps:
            sched.set_capacity(cap)
            assert sched.starved_count == brute_force_starved(sched)
            seen.append(sched.starved_count)
        counts.append(seen)
    assert counts[0] == counts[1]


_jobs = st.lists(
    st.tuples(
        st.floats(0.05, 2.0),    # work
        st.floats(0.1, 3.0),     # demand
        st.integers(0, 2),       # priority
        st.floats(0.0, 0.5),     # submit delay from previous job
    ),
    min_size=1, max_size=25,
)


def _run_timeline(vector, jobs, caps):
    """Drive finite jobs to completion, recording every completion's
    (virtual time, name, priority) and each item's final state."""
    sim = Simulator()
    sched = FluidScheduler(sim, 2.5, name="cpu", vector=vector)
    finished = []

    def driver():
        items = []
        for i, (work, demand, prio, gap) in enumerate(jobs):
            it = sched.submit(work=work, demand=demand, priority=prio,
                              name=f"j{i}")
            it.done.subscribe(
                lambda ev, it=it: finished.append(
                    (sim.now, it.name, it.priority)))
            items.append(it)
            if caps and i % 3 == 2:
                sched.set_capacity(caps[i % len(caps)])
            yield sim.timeout(gap)

    sim.process(driver())
    sim.run(until=60.0)
    return finished, sim.now, sim.processed_events


@settings(max_examples=25, deadline=None)
@given(jobs=_jobs,
       caps=st.lists(st.floats(0.5, 6.0), min_size=0, max_size=4))
def test_vector_completion_timeline_is_bit_identical(jobs, caps):
    scalar = _run_timeline(False, jobs, caps)
    vector = _run_timeline(True, jobs, caps)
    assert scalar == vector
