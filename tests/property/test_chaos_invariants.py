"""Property-based chaos testing: random seeded fault plans against
random workload shapes, with the invariant checker attached.

Two properties carry the suite:

* **safety** — whatever the fault plan, every global invariant holds at
  every event (``run_chaos`` raises on the first violation, so simply
  completing is the assertion);
* **determinism** — replaying the same seed yields a bit-identical
  digest (trace, counters, task counts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, RandomFaultPlan, run_chaos
from repro.units import GiB

_configs = st.builds(
    ChaosConfig,
    seed=st.integers(0, 2**32 - 1),
    machines=st.integers(2, 4),
    duration=st.just(0.25),
    crash_probability=st.floats(0.2, 1.0),
    migration_flakiness=st.floats(0.0, 1.0),
)


@settings(max_examples=10, deadline=None)
@given(config=_configs)
def test_invariants_hold_under_random_fault_plans(config):
    result = run_chaos(config)  # raises InvariantViolation on any breach
    assert result.invariant_checks > 0
    assert result.machines_crashed >= 1  # ensure_crash guarantees one


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_replay_with_same_seed_is_bit_identical(seed):
    config = ChaosConfig(seed=seed, machines=3, duration=0.25)
    first = run_chaos(config)
    replay = run_chaos(config)
    assert first.digest() == replay.digest()
    assert first.decisions == replay.decisions


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_machines=st.integers(1, 6),
    duration=st.floats(0.1, 10.0),
    crash_probability=st.floats(0.0, 1.0),
)
def test_fault_plans_replay_and_respect_bounds(seed, n_machines, duration,
                                               crash_probability):
    """Plan expansion alone (no simulation) is pure and bounded."""
    machines = [f"m{i}" for i in range(n_machines)]
    plan = RandomFaultPlan(seed=seed, machines=machines, duration=duration,
                           crash_probability=crash_probability)
    schedule = plan.schedule(4 * GiB)
    assert schedule == plan.schedule(4 * GiB)
    for fault in schedule:
        assert 0.0 <= fault.at <= duration
    crashed = {f.machine for f in schedule
               if type(f).__name__ == "MachineCrash"}
    assert len(crashed) < max(1, len(machines)) or not crashed
