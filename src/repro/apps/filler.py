"""The Fig. 1 filler application: CPU-hungry, small-state, fungible.

The filler is structured as many single-thread compute proclets with tiny
heaps, each grinding through an endless stream of small work units.  When
a HIGH-priority burst starves them, the Quicksand local scheduler
migrates them (in <1 ms, because their state is small) to wherever cores
are idle — which is how the filler harvests the anti-phased idle windows
of the two machines.
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster import Machine
from ..core.computeproclet import Task, TaskSource
from ..units import KiB, US


class _EndlessWork(TaskSource):
    """Generates an infinite stream of fixed-cost work units."""

    def __init__(self, app: "FillerApp"):
        self.app = app

    def pull(self, ctx):
        if not self.app.running:
            return None
        return Task(work=self.app.work_unit)
        yield  # unreachable; pull needs no simulated time of its own


class FillerApp:
    """Fungible filler built from granular compute proclets."""

    def __init__(self, qs, proclets: int = 8, work_unit: float = 100 * US,
                 state_bytes: float = 64 * KiB,
                 machine: Optional[Machine] = None, name: str = "filler"):
        if proclets < 1:
            raise ValueError("need at least one filler proclet")
        if work_unit <= 0:
            raise ValueError("work_unit must be positive")
        self.qs = qs
        self.name = name
        self.work_unit = work_unit
        self.state_bytes = state_bytes
        self.running = True
        self.refs: List = []
        self._units = qs.metrics.counter(f"{name}.units")
        source = _EndlessWork(self)
        for i in range(proclets):
            ref = qs.spawn_compute(parallelism=1, source=source,
                                   machine=machine, name=f"{name}.{i}")
            proclet = ref.proclet
            proclet.on_task_done = self._on_unit_done
            if state_bytes > 0:
                proclet.heap_alloc(state_bytes)
            self.refs.append(ref)

    def _on_unit_done(self, _proclet, _task, _result) -> None:
        self._units.add(self.qs.sim.now, 1.0)

    # -- measurement -----------------------------------------------------------
    @property
    def units_done(self) -> float:
        return self._units.total

    def goodput_cores(self, t0: float, t1: float) -> float:
        """Average cores' worth of useful filler work over [t0, t1)."""
        if t1 <= t0:
            return 0.0
        w = self._units.series.window(t0, t1)
        return sum(w.values) * self.work_unit / (t1 - t0)

    def goodput_timeline(self, t0: float, t1: float, bucket: float):
        """(time, cores-of-goodput) series — the Fig. 1 y-axis."""
        sums = self._units.series.bucket_sums(t0, t1, bucket)
        return [(t, units * self.work_unit / bucket) for t, units in sums]

    def total_migrations(self) -> int:
        return sum(ref.proclet.migrations for ref in self.refs)

    def stop(self):
        """Stop generating work; returns the all-workers-exited event."""
        self.running = False
        stops = [ref.proclet.request_stop() for ref in self.refs]
        return self.qs.sim.all_of(stops)
