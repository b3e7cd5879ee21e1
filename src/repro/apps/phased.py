"""The phased high-priority antagonist of the Fig. 1 experiment.

"Every 10ms, it goes from consuming no CPU to consuming all the cores on
the machine, and reverts to no CPU consumption after another 10ms" (§2).
Runs at HIGH priority, so Caladan-style preemption instantly strips
NORMAL-priority Quicksand proclets of their cores during each burst.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..cluster import Machine, Priority
from ..units import MS


class PhasedApp:
    """Square-wave CPU antagonist pinned to one machine."""

    def __init__(self, machine: Machine, burst: float = 10 * MS,
                 idle: float = 10 * MS, phase_offset: float = 0.0,
                 cores: Optional[float] = None):
        if burst <= 0 or idle < 0:
            raise ValueError("burst must be positive, idle non-negative")
        if phase_offset < 0:
            raise ValueError("phase_offset must be non-negative")
        self.machine = machine
        self.burst = burst
        self.idle = idle
        self.phase_offset = phase_offset
        self.cores = machine.cpu.cores if cores is None else cores
        self.bursts = 0
        self._running = False
        self._process = None

    def start(self) -> None:
        """Begin the burst/idle square wave."""
        if self._running:
            raise RuntimeError("phased app already started")
        self._running = True
        sim = self.machine.sim
        self._process = sim.spawn(self._loop(sim),
                                  name=f"phased:{self.machine.name}")

    def stop(self) -> None:
        self._running = False

    def _loop(self, sim) -> Generator:
        if self.phase_offset > 0:
            yield sim.timeout(self.phase_offset)
        while self._running:
            hold = self.machine.cpu.hold(
                threads=self.cores, priority=Priority.HIGH,
                name=f"phased:{self.machine.name}",
            )
            self.bursts += 1
            yield sim.timeout(self.burst)
            self.machine.cpu.release(hold)
            if self.idle > 0:
                yield sim.timeout(self.idle)

    def __repr__(self) -> str:
        return (f"<PhasedApp on {self.machine.name} "
                f"burst={self.burst:g}s idle={self.idle:g}s "
                f"offset={self.phase_offset:g}s>")
