"""Emulated-GPU training stage (§4).

Exactly like the paper's prototype, GPUs are emulated by a per-batch
delay.  The trainer runs one consumer loop per *potential* GPU; the GPU
pool's fluid capacity then makes aggregate consumption track the number
of *available* GPUs automatically (4 GPUs -> 400 batches/s at 10 ms per
batch, 8 -> 800), which is the signal Fig. 3's autoscaler chases.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ...cluster import Machine
from ...sim import Event


class TrainerApp:
    """Pops preprocessed batches from the queue and trains on GPUs."""

    def __init__(self, qs, queue, machine: Optional[Machine] = None,
                 consumers: Optional[int] = None, name: str = "trainer"):
        self.qs = qs
        self.queue = queue
        self.name = name
        if machine is None:
            machine = qs.placement.best_for_gpu()
        if machine is None or machine.gpus is None:
            raise RuntimeError("trainer needs a machine with GPUs")
        self.machine = machine
        self.gpu_ref = qs.spawn_gpu(machine, name=f"{name}.gpu")
        self.consumers = (machine.gpus.count if consumers is None
                          else consumers)
        self.batches_trained = 0
        self.running = True
        self._loops: List = []

    def start(self) -> None:
        for i in range(self.consumers):
            proc = self.qs.sim.spawn(self._consume_loop(),
                                     name=f"{self.name}.c{i}")
            self._loops.append(proc)

    def _consume_loop(self) -> Generator:
        while self.running:
            batch = yield self.queue.pop()
            if batch is None:
                continue
            yield self.gpu_ref.call("gp_train", batch)
            self.batches_trained += 1

    def stop(self) -> None:
        self.running = False


class GpuAvailabilityDriver:
    """Fig. 3's perturbation: toggle available GPUs on a fixed period.

    "We vary the number of available GPUs between four and eight every
    200 milliseconds."
    """

    def __init__(self, machine: Machine, low: int = 4, high: int = 8,
                 period: float = 0.2):
        if machine.gpus is None:
            raise ValueError("machine has no GPUs")
        if low < 0 or high < low:
            raise ValueError("need 0 <= low <= high")
        if period <= 0:
            raise ValueError("period must be positive")
        self.machine = machine
        self.low = low
        self.high = high
        self.period = period
        self.toggle_times: List[tuple] = []  # (time, new_count)
        self._running = False

    def start(self) -> Event:
        self._running = True
        sim = self.machine.sim
        return sim.spawn(self._loop(sim), name="gpu-driver")

    def stop(self) -> None:
        self._running = False

    def _loop(self, sim) -> Generator:
        pool = self.machine.gpus
        level = self.high
        pool.resize(level)
        self.toggle_times.append((sim.now, level))
        while self._running:
            yield sim.timeout(self.period)
            if not self._running:
                return
            level = self.low if level == self.high else self.high
            pool.resize(level)
            self.toggle_times.append((sim.now, level))
