"""Virtual-time failure detection: heartbeats, suspicion, confirmation.

The detector is the control-plane half of the recovery subsystem.  A
single DES process probes every machine each ``heartbeat_interval``; a
down machine accumulates missed heartbeats and walks the

    ``ALIVE -> SUSPECTED -> DEAD``

state machine.  *Suspected* machines are excluded from placement (the
global scheduler stops targeting them before fail-stop is confirmed —
a wrongly suspected machine merely receives no new proclets for a few
heartbeats); only a *confirmed* death triggers recovery.  A restored
machine snaps back to ``ALIVE`` on its next good heartbeat.

Heartbeats are modeled as control-plane probes: they advance virtual
time but consume no NIC bandwidth, matching how the simulator treats
other control traffic (scheduler stat collection, split decisions).

Probing an up machine that is already ``ALIVE`` with zero misses is a
no-op, so at 1000 machines the naive every-machine sweep spends almost
all of its time confirming what it already knows.  When the detector is
given a runtime (the :class:`~repro.ft.RecoveryManager` wires this), it
keeps a *watch set* instead: machine ids enter it from the runtime's
failure hook and leave once a probe finds them up and ``ALIVE`` again,
so each tick probes only machines whose answer could differ from last
tick's.  The watch set is iterated in machine-id order — the same
relative order the full sweep visits them — so transitions, listener
calls, and metrics fire identically either way.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Generator, List, Optional, Set

from .config import RecoveryConfig


class MachineHealth(enum.Enum):
    ALIVE = "alive"
    SUSPECTED = "suspected"
    DEAD = "dead"


class FailureDetector:
    """Heartbeat/timeout failure detector over a simulated cluster."""

    def __init__(self, cluster, config: RecoveryConfig = RecoveryConfig(),
                 metrics=None, runtime=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config
        self.metrics = metrics
        #: Watch set of machine ids whose next probe could do something
        #: (down, or up but not yet back to ALIVE).  ``None`` without a
        #: runtime to hook: failures then only surface via the full
        #: sweep, so every tick must probe every machine.
        self._watch: Optional[Set[int]] = None
        if runtime is not None:
            self._watch = {m.id for m in cluster.machines if not m.up}
            self._by_id = {m.id: m for m in cluster.machines}
            runtime.on_machine_failure(self._note_failure)
        self._missed: Dict[int, int] = {}       # machine id -> misses
        self._state: Dict[int, MachineHealth] = {}
        self._down_since: Dict[int, float] = {}
        self._spans: Dict[int, object] = {}      # open ft-detect spans
        self.suspects = 0
        self.confirms = 0
        self.recoveries = 0   # machines seen coming back ALIVE
        #: Machines currently in SUSPECTED (not yet confirmed dead, not
        #: yet back alive) — maintained on transitions so O(1) callers
        #: (the shard autoscaler's freeze gate) need no sweep.
        self.suspected_count = 0
        self._suspect_listeners: List[Callable] = []
        self._confirm_listeners: List[Callable] = []
        self._alive_listeners: List[Callable] = []
        self._process = self.sim.spawn(self._loop(), name="ft-detector")

    # -- queries -------------------------------------------------------------
    def state(self, machine) -> MachineHealth:
        return self._state.get(machine.id, MachineHealth.ALIVE)

    def is_suspected(self, machine) -> bool:
        """True while placement must avoid *machine* (suspected or
        confirmed dead)."""
        return self.state(machine) is not MachineHealth.ALIVE

    def eligible(self, machine) -> bool:
        """Placement health gate: may new proclets target *machine*?"""
        return self.state(machine) is MachineHealth.ALIVE

    def suspected_machines(self) -> List:
        return [m for m in self.cluster.machines if self.is_suspected(m)]

    def any_suspected(self) -> bool:
        """True while at least one machine sits in the SUSPECTED window
        (verdict uncertain: neither confirmed dead nor back alive).
        Confirmed-dead machines do NOT count — freezing on them forever
        would never unfreeze a consumer."""
        return self.suspected_count > 0

    # -- listeners ------------------------------------------------------------
    def on_suspect(self, fn: Callable) -> None:
        self._suspect_listeners.append(fn)

    def on_confirm(self, fn: Callable) -> None:
        """Subscribe ``fn(machine)`` to confirmed deaths — this is the
        trigger the :class:`~repro.ft.RecoveryManager` recovers on."""
        self._confirm_listeners.append(fn)

    def on_alive(self, fn: Callable) -> None:
        self._alive_listeners.append(fn)

    # -- the probe loop --------------------------------------------------------
    def _note_failure(self, machine, _lost=None) -> None:
        self._watch.add(machine.id)

    def _loop(self) -> Generator:
        timeout = self.sim.timeout
        interval = self.config.heartbeat_interval
        watch = self._watch
        while True:
            yield timeout(interval)
            if watch is None:
                for machine in self.cluster.machines:
                    self._probe(machine)
                continue
            if not watch:
                continue
            # Machine-id order == cluster order: transitions fire in the
            # same relative order the full sweep would produce.
            for mid in sorted(watch):
                machine = self._by_id[mid]
                self._probe(machine)
                if machine.up:
                    # Probed up: now ALIVE with zero misses — the state
                    # the sweep's no-op branch maintains for everyone.
                    watch.discard(mid)

    def _probe(self, machine) -> None:
        mid = machine.id
        state = self._state.get(mid, MachineHealth.ALIVE)
        if machine.up:
            if state is not MachineHealth.ALIVE:
                self._transition_alive(machine, state)
            self._missed[mid] = 0
            return
        missed = self._missed.get(mid, 0) + 1
        self._missed[mid] = missed
        self._down_since.setdefault(mid, self.sim.now)
        if state is MachineHealth.ALIVE \
                and missed >= self.config.suspect_after:
            self._transition_suspected(machine)
        elif state is MachineHealth.SUSPECTED \
                and missed >= self.config.confirm_after:
            self._transition_dead(machine)

    # -- transitions -----------------------------------------------------------
    def _transition_suspected(self, machine) -> None:
        self._state[machine.id] = MachineHealth.SUSPECTED
        self.suspects += 1
        self.suspected_count += 1
        if self.metrics is not None:
            self.metrics.count("ft.suspects")
        tr = self.sim.tracer
        if tr is not None:
            self._spans[machine.id] = tr.begin(
                "ft-detect", f"detect {machine.name}",
                track=f"machine:{machine.name}",
                missed=self._missed[machine.id])
        for fn in self._suspect_listeners:
            fn(machine)

    def _transition_dead(self, machine) -> None:
        self._state[machine.id] = MachineHealth.DEAD
        self.confirms += 1
        self.suspected_count -= 1
        if self.metrics is not None:
            self.metrics.count("ft.confirms")
            down = self._down_since.get(machine.id)
            if down is not None:
                self.metrics.observe("ft.detect_latency",
                                     self.sim.now - down)
        tr = self.sim.tracer
        if tr is not None:
            tr.end(self._spans.pop(machine.id, None), outcome="confirmed")
        for fn in self._confirm_listeners:
            fn(machine)

    def _transition_alive(self, machine, previous: MachineHealth) -> None:
        self._state[machine.id] = MachineHealth.ALIVE
        self._down_since.pop(machine.id, None)
        if previous is MachineHealth.SUSPECTED:
            self.suspected_count -= 1
        self.recoveries += 1
        if self.metrics is not None:
            self.metrics.count("ft.machines_back")
        tr = self.sim.tracer
        if tr is not None:
            # Only a SUSPECTED machine still has an open detect span; a
            # restore after confirmation closed it already.
            tr.end(self._spans.pop(machine.id, None),
                   outcome="false-positive")
        for fn in self._alive_listeners:
            fn(machine, previous)

    def __repr__(self) -> str:
        return (f"<FailureDetector suspects={self.suspects} "
                f"confirms={self.confirms} back={self.recoveries}>")
