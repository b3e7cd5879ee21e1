"""Executes a :class:`FaultSchedule` against a live runtime, in virtual
time, deterministically.

The injector is a thin dispatch layer: every fault becomes one simulator
callback at its scheduled instant, resolved against the cluster by
machine *name*.  All stochastic behaviour (migration-flakiness coins)
draws from the simulator's named streams, so a chaos run is a pure
function of ``(cluster spec, workload, schedule, seed)``.

Safety rule: a :class:`MachineCrash` that would take down the *last*
live machine is skipped (and counted) — a cluster with zero machines
has no behaviour worth testing, and a random plan should never be able
to wedge the run into that corner.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .faults import (
    Fault,
    FaultSchedule,
    MachineCrash,
    MachineRestart,
    MemoryPressure,
    MemoryPressureRelease,
    MigrationFlakiness,
    NetworkPartition,
    NicDegrade,
    NicRestore,
    PartitionHeal,
)


class ChaosInjector:
    """Schedules and applies faults against a :class:`NuRuntime`."""

    def __init__(self, runtime, schedule: FaultSchedule):
        self.runtime = runtime
        self.cluster = runtime.cluster
        self.sim = runtime.sim
        self.metrics = runtime.metrics
        self.schedule = schedule
        self.injected: List[Fault] = []
        self.skipped: List[Fault] = []
        self.machines_crashed = 0
        self._crashed_at: Dict[str, float] = {}
        self._listeners: List[Callable[[Fault], None]] = []
        self._flaky_until = -1.0
        self._flaky_probability = 0.0
        self._started = False
        # Open fault-window spans (repro.obs), keyed by window identity
        # so the matching restore/heal fault closes the right one.
        self._windows: Dict[str, object] = {}

    # -- wiring --------------------------------------------------------------
    def on_fault(self, fn: Callable[[Fault], None]) -> None:
        """Call ``fn(fault)`` right after each fault is applied (the
        hook reaction code — pool healers, alert assertions — uses)."""
        self._listeners.append(fn)

    def start(self) -> "ChaosInjector":
        """Arm every fault in the schedule as a simulator callback."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        for fault in self.schedule:
            self.sim.call_at(fault.at, self._inject, fault)
        return self

    # -- dispatch ------------------------------------------------------------
    def _inject(self, fault: Fault) -> None:
        kind = type(fault).__name__
        if isinstance(fault, MachineCrash):
            machine = self.cluster.machine(fault.machine)
            up = [m for m in self.cluster.machines if m.up]
            if machine.up and len(up) <= 1:
                self.skipped.append(fault)
                self._note(kind, fault, skipped=True)
                return
            self._crashed_at[fault.machine] = self.sim.now
            self.machines_crashed += 1
            self.runtime.fail_machine(machine)
            self._window_begin(f"crash:{fault.machine}",
                               f"crash {fault.machine}",
                               machine=fault.machine)
        elif isinstance(fault, MachineRestart):
            machine = self.cluster.machine(fault.machine)
            self.runtime.restore_machine(machine)
            self._window_end(f"crash:{fault.machine}")
            crashed = self._crashed_at.pop(fault.machine, None)
            if crashed is not None:
                self.metrics.observe("chaos.downtime",
                                     self.sim.now - crashed)
        elif isinstance(fault, NicDegrade):
            machine = self.cluster.machine(fault.machine)
            if machine.up:
                machine.nic.degrade(fault.fraction)
                self._window_begin(f"nic:{fault.machine}",
                                   f"nic-degrade {fault.machine}",
                                   machine=fault.machine,
                                   fraction=fault.fraction)
        elif isinstance(fault, NicRestore):
            machine = self.cluster.machine(fault.machine)
            if machine.up:
                machine.nic.restore()
            self._window_end(f"nic:{fault.machine}")
        elif isinstance(fault, NetworkPartition):
            self.runtime.fabric.partition(self.cluster.machine(fault.a),
                                          self.cluster.machine(fault.b))
            pair = "|".join(sorted((fault.a, fault.b)))
            self._window_begin(f"partition:{pair}", f"partition {pair}",
                               a=fault.a, b=fault.b)
        elif isinstance(fault, PartitionHeal):
            self.runtime.fabric.heal(self.cluster.machine(fault.a),
                                     self.cluster.machine(fault.b))
            pair = "|".join(sorted((fault.a, fault.b)))
            self._window_end(f"partition:{pair}")
        elif isinstance(fault, MemoryPressure):
            machine = self.cluster.machine(fault.machine)
            if machine.up:
                machine.memory.set_ballast(fault.nbytes)
                self._window_begin(f"mem:{fault.machine}",
                                   f"memory-pressure {fault.machine}",
                                   machine=fault.machine,
                                   nbytes=int(fault.nbytes))
        elif isinstance(fault, MemoryPressureRelease):
            machine = self.cluster.machine(fault.machine)
            if machine.up:
                machine.memory.set_ballast(0.0)
            self._window_end(f"mem:{fault.machine}")
        elif isinstance(fault, MigrationFlakiness):
            self._flaky_until = self.sim.now + fault.duration
            self._flaky_probability = fault.probability
            if self.runtime.migration.fault_hook is None:
                self.runtime.migration.fault_hook = self._flaky_coin
            self._window_begin("flaky", "migration-flakiness",
                               probability=fault.probability,
                               duration=fault.duration)
        else:  # pragma: no cover - future fault kinds
            raise TypeError(f"unknown fault: {fault!r}")

        self.injected.append(fault)
        self._note(kind, fault)
        for fn in self._listeners:
            fn(fault)

    # -- fault-window spans ---------------------------------------------------
    def _window_begin(self, key: str, name: str, **args) -> None:
        """Open a fault-window span; a same-key window still open is
        closed first (e.g. flakiness replaced before it expired).  Spans
        are records only — never simulator events — so windows that are
        never healed simply stay open until the tracer finishes."""
        tr = self.sim.tracer
        if tr is None:
            return
        self._window_end(key)
        self._windows[key] = tr.begin("fault", name, track="chaos", **args)

    def _window_end(self, key: str, **args) -> None:
        tr = self.sim.tracer
        span = self._windows.pop(key, None)
        if tr is not None and span is not None:
            tr.end(span, **args)

    def _flaky_coin(self, _proclet, _dst) -> bool:
        if self.sim.now >= self._flaky_until:
            return False
        rng = self.sim.random.stream("chaos.migration")
        return rng.random() < self._flaky_probability

    def _note(self, kind: str, fault: Fault, skipped: bool = False) -> None:
        self.metrics.count("chaos.faults.skipped" if skipped
                           else "chaos.faults")
        if not skipped:
            self.metrics.count(f"chaos.faults.{kind}")
        self.runtime.decide(
            "chaos", ("skipped " if skipped else "") + fault.describe())

    def __repr__(self) -> str:
        return (f"<ChaosInjector {len(self.injected)}/{len(self.schedule)} "
                f"injected, {len(self.skipped)} skipped>")
