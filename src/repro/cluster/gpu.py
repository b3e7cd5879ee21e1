"""Emulated GPU pool.

The paper's own prototype *emulates* GPUs: "we emulated GPUs by adding a
delay to consume data from the queue" (§4).  We model the same thing: a
pool of k GPUs on a machine, where training one batch occupies one GPU
for ``batch_time`` seconds.  The pool size can change at runtime — that
is precisely the perturbation of Fig. 3 (available GPUs alternate between
four and eight every 200 ms).
"""

from __future__ import annotations

from typing import Callable, List

from ..sim import FluidItem, FluidScheduler, Simulator
from .topology import GpuSpec


class GpuPool:
    """k identical GPUs consuming batches at a fixed per-batch delay."""

    def __init__(self, sim: Simulator, machine_name: str, spec: GpuSpec,
                 metrics=None):
        self.sim = sim
        self.machine_name = machine_name
        self.batch_time = spec.batch_time
        self.sched = FluidScheduler(sim, float(spec.count),
                                    name=f"{machine_name}.gpu")
        self.metrics = metrics
        self.batches_done = 0
        self._resize_listeners: List[Callable[[int], None]] = []

    # -- capacity ---------------------------------------------------------
    @property
    def count(self) -> int:
        return int(self.sched.capacity)

    def resize(self, count: int) -> None:
        """Change the number of available GPUs (Fig. 3 perturbation)."""
        if count < 0:
            raise ValueError(f"negative GPU count: {count}")
        if count == self.count:
            return
        self.sched.set_capacity(float(count))
        if self.metrics is not None:
            self.metrics.record(f"{self.machine_name}.gpu.count", count)
        for fn in self._resize_listeners:
            fn(count)

    def on_resize(self, fn: Callable[[int], None]) -> None:
        """Subscribe to GPU-count changes (how the trainer tells the
        Quicksand controller that its consumption rate moved)."""
        self._resize_listeners.append(fn)

    # -- consumption ----------------------------------------------------------
    def train_batch(self, name: str = "") -> FluidItem:
        """Occupy one GPU for ``batch_time``; the item fires at completion."""
        item = self.sched.submit(work=self.batch_time, demand=1.0,
                                 name=name or "batch")
        item.subscribe(self._count_batch)
        return item

    def _count_batch(self, _event) -> None:
        self.batches_done += 1
        if self.metrics is not None:
            self.metrics.count(f"{self.machine_name}.gpu.batches")

    @property
    def service_rate(self) -> float:
        """Steady-state batches/second the pool can absorb."""
        if self.batch_time <= 0:
            return float("inf")
        return self.count / self.batch_time

    def __repr__(self) -> str:
        return (f"<GpuPool {self.machine_name} count={self.count} "
                f"batch_time={self.batch_time:g}s>")
