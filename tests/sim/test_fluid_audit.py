"""Exactness audit of the fluid engine on real traffic.

:func:`audit` runs an experiment with every :class:`FluidScheduler`
audited.  After each flush and each completion timer it refills the
scheduler from scratch with the brute-force oracle of
``tests/property/test_incremental_fluid.py`` and asserts that the
engine agrees on

* every attached item's rate, ``load`` and ``starved_count``, bit for
  bit;
* the armed completion timer: none exactly when no served item has
  finite work, and otherwise due at ``now`` plus the least
  ``remaining / rate`` — bit for bit when it was re-armed at this
  instant, within 1e-9 s when an earlier arming still stands.

A scheduler left dirty by its own observers is skipped: it is
mid-instant and its next flush is audited.  The audit is a test helper,
not an engine option.  Tier-1 runs Fig. 1 in both modes and a short
serving slice; CI runs the whole set::

    PYTHONPATH=src python -c "from tests.sim.test_fluid_audit import \\
        audit_all; audit_all()"
"""

import math
from unittest import mock

import pytest

from repro.apps.serving import ServingScenario, default_tenants
from repro.experiments import serving as serving_exp
from repro.experiments.fig1_filler import Fig1Config, run_fig1
from repro.experiments.fig2_imbalance import run_fig2
from repro.experiments.fig3_gpu_adapt import Fig3Config, run_fig3
from repro.sim import FluidScheduler
from repro.sim.fluid import _EPS
from tests.property.test_incremental_fluid import brute_force_rates


def _check(sched, old_timer, armed):
    """Assert the engine's state of *sched* against the oracle; see the
    module docstring.  *old_timer* is the timer armed before the call
    that just returned, *armed* maps each scheduler to its last
    ``(timer, armed at, delay)``."""
    where = f"{sched.name} at t={sched.sim.now!r}"
    rates, load = brute_force_rates(sched)
    for it in sched._items:
        assert it._rate == rates[it], f"{where}: rate of {it!r}"
    assert sched._load == load, f"{where}: load"
    starved = sum(rate <= _EPS for rate in rates.values())
    assert sum(sched._starved.values()) == starved, f"{where}: starved_count"
    etas = [it.remaining / rates[it] for it in sched._items
            if rates[it] > _EPS and it.remaining != math.inf]
    timer = sched._timer
    if not etas:
        assert timer is None, f"{where}: timer armed with nothing due"
        return
    assert timer is not None, f"{where}: no timer armed"
    armed_timer, armed_at, delay = armed[sched]
    assert armed_timer is timer
    due = max(0.0, min(etas))
    if timer is not old_timer:
        assert armed_at == sched.sim.now and delay == due, \
            f"{where}: deadline {delay!r} != {due!r}"
    else:
        assert armed_at + delay == pytest.approx(
            sched.sim.now + due, rel=0, abs=1e-9), \
            f"{where}: standing deadline"


def audit(run, *args):
    """Call ``run(*args)`` with every fluid scheduler audited (see the
    module docstring); raises AssertionError at the first disagreement.
    Returns the number of audited flushes and timers."""
    flush = FluidScheduler._flush
    on_timer = FluidScheduler._on_timer
    arm_timer = FluidScheduler._arm_timer
    armed = {}
    checks = 0

    def check(sched, old_timer):
        nonlocal checks
        if not sched._dirty:  # else mid-instant: its next flush is audited
            checks += 1
            _check(sched, old_timer, armed)

    def audited_flush(sched):
        ran = sched._dirty and not sched._in_flush
        timer = sched._timer
        flush(sched)
        if ran:
            check(sched, timer)

    def audited_on_timer(sched, ev=None):
        on_timer(sched, ev)
        check(sched, None)

    def audited_arm_timer(sched, eta):
        arm_timer(sched, eta)
        armed[sched] = (sched._timer, sched.sim.now, max(0.0, eta))

    with mock.patch.multiple(FluidScheduler, _flush=audited_flush,
                             _on_timer=audited_on_timer,
                             _arm_timer=audited_arm_timer):
        run(*args)
    return checks


def serving_slice(seed=0, mode="fungible", duration=0.4):
    """The benchmark's serving cell (default tenants, 24 machines) run
    to *duration* through its public entry point."""
    scenario = ServingScenario(
        default_tenants(serving_exp.DEFAULT_TENANTS),
        machines=serving_exp.DEFAULT_MACHINES,
        cores=serving_exp.DEFAULT_CORES, mode=mode, seed=seed,
        duration=duration, warmup=min(serving_exp.DEFAULT_WARMUP,
                                      duration / 2))
    scenario.run()
    return scenario


def audit_all():
    """Fig. 1 (both modes), Fig. 2 (every configuration), Fig. 3 and
    one full serving cell in both modes; prints the checks per run."""
    runs = [
        ("fig1 fungible", run_fig1, Fig1Config(fungible=True)),
        ("fig1 static", run_fig1, Fig1Config(fungible=False)),
        ("fig2", run_fig2),
        ("fig3", run_fig3, Fig3Config()),
    ] + [(f"serving {mode}", serving_slice, 0, mode,
          serving_exp.DEFAULT_DURATION) for mode in serving_exp.MODES]
    for name, run, *args in runs:
        print(f"fluid audit {name}: {audit(run, *args)} checks OK",
              flush=True)


@pytest.mark.parametrize("fungible", [True, False])
def test_fig1_fluid_matches_oracle(fungible):
    assert audit(run_fig1, Fig1Config(fungible=fungible)) > 1000


def test_serving_slice_fluid_matches_oracle():
    assert audit(serving_slice, 0, "fungible", 0.1) > 1000


def test_audit_fails_on_a_stale_timer():
    original = FluidScheduler._on_timer

    def on_timer(sched, ev=None):
        original(sched, ev)
        sched._timer = None  # forget to re-arm after a completion

    with mock.patch.object(FluidScheduler, "_on_timer", on_timer):
        with pytest.raises(AssertionError, match="no timer armed"):
            audit(serving_slice, 0, "fungible", 0.05)
