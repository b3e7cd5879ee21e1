"""Per-machine persistent storage device (flash-style).

Models the two sub-resources the paper calls out in §5 — *capacity* and
*IOPS* — plus read/write bandwidth.  Flat storage (``repro.storage``)
spreads storage proclets across many devices to aggregate both.
"""

from __future__ import annotations

from typing import Generator

from ..sim import FluidScheduler, Simulator
from .topology import StorageSpec


class OutOfStorage(Exception):
    """A write exceeded the device's capacity."""


class StorageDevice:
    """One device with capacity, IOPS and bandwidth limits."""

    def __init__(self, sim: Simulator, machine_name: str, spec: StorageSpec,
                 metrics=None):
        self.sim = sim
        self.machine_name = machine_name
        self.spec = spec
        self.capacity = float(spec.capacity_bytes)
        self.used = 0.0
        # IOPS: capacity = ops/s; each op is 1 unit of work.
        self.iops = FluidScheduler(sim, spec.iops,
                                   name=f"{machine_name}.iops")
        self.read_bw = FluidScheduler(sim, spec.read_bandwidth,
                                      name=f"{machine_name}.disk.rd")
        self.write_bw = FluidScheduler(sim, spec.write_bandwidth,
                                       name=f"{machine_name}.disk.wr")
        self.metrics = metrics
        self.reads = 0
        self.writes = 0

    @property
    def free(self) -> float:
        return self.capacity - self.used

    def reserve(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if nbytes > self.free:
            raise OutOfStorage(
                f"{self.machine_name}: need {nbytes:.0f} B, "
                f"free {self.free:.0f} B"
            )
        self.used += nbytes

    def release(self, nbytes: float) -> None:
        if nbytes < 0 or nbytes > self.used + 1e-6:
            raise ValueError(f"bad release of {nbytes} (used={self.used})")
        self.used = max(0.0, self.used - nbytes)

    # -- I/O ---------------------------------------------------------------
    def read(self, nbytes: float, priority: int = 1) -> Generator:
        """Process: one read op (IOPS charge + bandwidth charge)."""
        self.reads += 1
        op = self.iops.submit(work=1.0, demand=self.spec.iops,
                              priority=priority, name="read-op")
        yield op
        if nbytes > 0:
            xfer = self.read_bw.submit(work=float(nbytes),
                                       demand=self.spec.read_bandwidth,
                                       priority=priority, name="read-bw")
            yield xfer

    def write(self, nbytes: float, priority: int = 1) -> Generator:
        """Process: one write op (IOPS charge + bandwidth charge)."""
        self.writes += 1
        op = self.iops.submit(work=1.0, demand=self.spec.iops,
                              priority=priority, name="write-op")
        yield op
        if nbytes > 0:
            xfer = self.write_bw.submit(work=float(nbytes),
                                        demand=self.spec.write_bandwidth,
                                        priority=priority, name="write-bw")
            yield xfer

    def __repr__(self) -> str:
        return (f"<StorageDevice {self.machine_name} "
                f"{self.used / 2**30:.2f}/{self.capacity / 2**30:.2f} GiB "
                f"iops={self.spec.iops:g}>")
