"""Dirty-tracking audit of the incremental invariant checker.

:func:`audit` runs the benchmark's chaos configuration with an audited
checker.  After every event it runs the checker's own pass (incremental,
or the periodic full one) and, on the side, the full pass of a second,
unattached checker, and asserts two things:

* both passes reach the same verdict;
* every machine, scheduler, proclet and routing table the incremental
  pass skipped still has the predicate inputs it had when it was last
  examined — so skipping it could not have hidden a violation;
* the reservation views the checker keeps between passes equal
  freshly computed ones.

The audit is a test helper, not a checker option.  Tier-1 runs seeds
0-4; CI runs ``[audit(s) for s in range(45)]`` directly.
"""

import math
from unittest import mock

import pytest

from repro.chaos import (ChaosConfig, InvariantChecker, InvariantViolation,
                         run_chaos)
from repro.chaos import scenario as _scenario
from repro.chaos.invariants import FULL_PASS_EVERY, _schedulers


def _verdict(fn, *args):
    try:
        fn(*args)
    except InvariantViolation as exc:
        return str(exc)
    return None


def reservations(runtime):
    """In-flight migration and checkpoint bytes per machine id, and the
    checkpoint bytes the live machines hold, computed afresh."""
    recovery = runtime.recovery
    reserved = recovery.reserved_by_machine() if recovery is not None else {}
    held = sum(reserved.get(m.id, 0.0) for m in runtime.cluster.machines
               if m.up)
    return runtime.migration.inflight_reserved(), reserved, held


def predicate_inputs(checker):
    """Every entity's predicate inputs, keyed ``(kind, entity)``."""
    runtime = checker.runtime
    live = runtime._proclets
    by_machine = runtime.locator._by_machine
    inflight, reserved, _held = reservations(runtime)
    inputs = {}
    for m in runtime.cluster.machines:
        memory = m.memory
        residents = frozenset(
            (pid, getattr(live.get(pid), "footprint", None))
            for pid in by_machine.get(m, ()))
        inputs["machine", m] = (memory.used, memory.ballast,
                                memory.capacity, m.up, residents,
                                inflight.get(m.id), reserved.get(m.id))
        for sched in _schedulers(m):
            if sched._dirty:
                continue  # mid-instant: both passes skip it
            inputs["sched", sched] = (
                tuple((it._rate, it.demand, it.priority)
                      for it in sched._items),
                sched._load, sched.capacity)
    for pid, proclet in live.items():
        gate = proclet._migration_gate
        inputs["proclet", pid] = (proclet._status, proclet._machine, gate,
                                  gate is not None and gate.triggered,
                                  runtime.gates.get(pid))
    for ds in runtime.reshard_ledger._structures:
        los = getattr(ds, "_los", None)
        pids = tuple(ds._shard_ref(s).proclet_id for s in ds.shards)
        inputs["table", id(ds)] = (
            None if los is None else tuple(s.lo for s in ds.shards),
            None if los is None else tuple(los), pids)
        if los is not None:
            for pid in pids:
                proclet = live.get(pid)
                if proclet is not None:
                    inputs["range", pid] = (proclet.range_lo,
                                            proclet.range_hi)
    return inputs


class AuditedChecker(InvariantChecker):
    """The checker under audit; see the module docstring."""

    def attach(self, sim=None):
        super().attach(sim)
        self.reference = InvariantChecker(self.runtime,
                                          gate_timeout=self.gate_timeout)
        self.last_examined = {}
        return self

    def _take_dirty(self):
        self.scope = super()._take_dirty()
        return self.scope

    def _on_event(self, sim):
        self.scope = None
        full = (self.events_seen + 1) % FULL_PASS_EVERY == 0
        mine = _verdict(super()._on_event, sim)
        reference = _verdict(self.reference.check)
        assert mine == reference, (
            f"event {self.events_seen}: the "
            f"{'full' if full else 'incremental'} pass says {mine!r}, "
            f"the full pass says {reference!r}")
        self._audit_skipped(full)
        self._audit_reservations()
        if mine is not None:
            raise InvariantViolation(mine)

    def _examined(self):
        """The keys the incremental pass just examined."""
        keys = set()
        if self.scope is None:
            return keys
        machines, scheds, pids, tables = self.scope
        keys.update(("machine", m) for m in machines)
        keys.update(("sched", s) for s in scheds)
        keys.update(("proclet", pid) for pid in pids)
        for ds in tables:
            keys.add(("table", id(ds)))
            keys.update(("range", pid) for pid
                        in self._table_pids.get(id(ds), ()))
        return keys

    def _audit_reservations(self):
        """The reservation views the checker keeps must be current."""
        kept = self._reserved
        if kept is None:
            return
        inflight, reserved, held = reservations(self.runtime)
        assert (kept[0], kept[1]) == (inflight, reserved) \
            and math.isclose(kept[2], held, rel_tol=1e-12, abs_tol=1e-6), (
                f"event {self.events_seen} (t={self.runtime.sim.now:.6f}s): "
                f"kept reservations {kept!r} != current "
                f"{(inflight, reserved, held)!r}")

    def _audit_skipped(self, full):
        now = predicate_inputs(self)
        examined = None if full else self._examined()
        last = self.last_examined
        for key, inputs in now.items():
            if examined is None or key in examined:
                last[key] = inputs
            elif last.get(key, "never examined") != inputs:
                kind, entity = key
                raise AssertionError(
                    f"event {self.events_seen} "
                    f"(t={self.runtime.sim.now:.6f}s): skipped {kind} "
                    f"{getattr(entity, 'name', entity)} changed since "
                    f"its last examination: "
                    f"{last.get(key, 'never examined')!r} -> {inputs!r}")
        for key in [k for k in last if k not in now]:
            del last[key]


def audit(seed, tamper=None):
    """Audit the incremental checker over one seeded chaos run (the
    benchmark's configuration); raises AssertionError at the first
    disagreement or unnoticed change.  *tamper*, if given, is called
    with the attached checker (to break its hooks in self-tests).
    Returns the number of events audited."""
    checkers = []

    class Audited(AuditedChecker):
        def attach(self, sim=None):
            super().attach(sim)
            if tamper is not None:
                tamper(self)
            checkers.append(self)
            return self

    with mock.patch.object(_scenario, "InvariantChecker", Audited):
        run_chaos(ChaosConfig(seed=seed, duration=0.5, autoscale=True,
                              recovery_policy="checkpoint"))
    (checker,) = checkers
    return checker.events_seen


@pytest.mark.parametrize("seed", range(5))
def test_incremental_pass_matches_full_pass(seed):
    assert audit(seed) > FULL_PASS_EVERY


def unsubscribe_memory(checker):
    """Drop the checker's Memory listener from every machine."""
    for listeners, fn in list(checker._hooks):
        if fn == checker._dirty_memories.add:
            listeners.remove(fn)
            checker._hooks.remove((listeners, fn))


def test_audit_fails_without_the_memory_listener():
    with pytest.raises(AssertionError, match="skipped machine"):
        for seed in range(5):
            audit(seed, tamper=unsubscribe_memory)


def unsubscribe_reservations(checker):
    """Drop the checker's reservation listener."""
    for listeners, fn in list(checker._hooks):
        if fn == checker._dirty_reserved.add:
            listeners.remove(fn)
            checker._hooks.remove((listeners, fn))


def test_audit_fails_without_the_reservation_listener():
    # A stale view fails the verdict check or the view check, whichever
    # sees it first.
    with pytest.raises(AssertionError,
                       match="kept reservations|the full pass says"):
        for seed in range(5):
            audit(seed, tamper=unsubscribe_reservations)
