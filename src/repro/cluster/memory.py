"""Per-machine DRAM accounting with pressure signals.

Memory is a *space* resource, not a rate, so unlike CPU/NIC it is modeled
as a simple reservation ledger.  Watermark callbacks give the Quicksand
local scheduler its memory-pressure signal (§5 of the paper asks what the
memory analogue of queueing delay is; we use high-watermark crossings).
"""

from __future__ import annotations

from typing import Callable, List, Tuple


class OutOfMemory(Exception):
    """A reservation exceeded the machine's DRAM capacity."""

    def __init__(self, machine: str, requested: float, free: float):
        super().__init__(
            f"{machine}: requested {requested:.0f} B but only "
            f"{free:.0f} B free"
        )
        self.machine = machine
        self.requested = requested
        self.free = free

    def __reduce__(self):
        # Rebuild from the fields, not the formatted message, so the
        # error survives the trip home from a worker process.
        return type(self), (self.machine, self.requested, self.free)


class Memory:
    """DRAM ledger of one machine."""

    def __init__(self, sim, machine_name: str, capacity_bytes: float,
                 metrics=None):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.sim = sim
        self.machine_name = machine_name
        self.capacity = float(capacity_bytes)
        self.used = 0.0
        self.metrics = metrics
        self._gauge = metrics.gauge(f"{machine_name}.mem.used") \
            if metrics else None
        # (threshold, callback) pairs fired on upward crossings
        self._watermarks: List[Tuple[float, Callable[["Memory"], None]]] = []
        # unconditional change listeners (machine-index rebucketing);
        # fired before watermark callbacks so any placement query made
        # from a watermark handler sees up-to-date buckets
        self._listeners: List[Callable[["Memory"], None]] = []
        self.peak_used = 0.0
        #: Bytes reserved by fault injection (pressure-spike ballast),
        #: tracked separately so accounting invariants can subtract it.
        self.ballast = 0.0

    # -- reservations --------------------------------------------------------
    @property
    def free(self) -> float:
        return self.capacity - self.used

    @property
    def pressure(self) -> float:
        """Fraction of DRAM in use, in [0, 1]."""
        return self.used / self.capacity

    def can_fit(self, nbytes: float) -> bool:
        return nbytes <= self.free

    def reserve(self, nbytes: float) -> None:
        """Claim *nbytes*; raises :class:`OutOfMemory` when it can't fit."""
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if nbytes > self.free:
            raise OutOfMemory(self.machine_name, nbytes, self.free)
        before = self.pressure
        self.used += nbytes
        self.peak_used = max(self.peak_used, self.used)
        if self._gauge is not None:
            self._gauge.set(self.sim.now, self.used)
        for fn in self._listeners:
            fn(self)
        after = self.pressure
        for threshold, cb in self._watermarks:
            if before < threshold <= after:
                cb(self)

    def release(self, nbytes: float) -> None:
        """Return *nbytes* to the pool."""
        if nbytes < 0:
            raise ValueError(f"negative release: {nbytes}")
        if nbytes > self.used + 1e-6:
            raise ValueError(
                f"{self.machine_name}: releasing {nbytes:.0f} B but only "
                f"{self.used:.0f} B reserved"
            )
        self.used = max(0.0, self.used - nbytes)
        if self._gauge is not None:
            self._gauge.set(self.sim.now, self.used)
        for fn in self._listeners:
            fn(self)

    # -- fault injection -----------------------------------------------------
    def set_ballast(self, nbytes: float) -> float:
        """Pin *nbytes* of DRAM as fault-injection ballast.

        Models a memory-pressure spike (an antagonist process ballooning)
        without going through the proclet ledger.  The request is clamped
        to what actually fits, so a spike can never itself violate the
        capacity invariant; watermark callbacks fire exactly as they would
        for a real allocation.  Returns the ballast actually held.
        """
        if nbytes < 0:
            raise ValueError(f"negative ballast: {nbytes}")
        target = min(float(nbytes), self.ballast + self.free)
        delta = target - self.ballast
        if delta > 0:
            self.reserve(delta)
        elif delta < 0:
            self.release(-delta)
        self.ballast = target
        return self.ballast

    def wipe(self) -> None:
        """Machine crash: all DRAM contents (and ballast) vanish."""
        self.used = 0.0
        self.ballast = 0.0
        if self._gauge is not None:
            self._gauge.set(self.sim.now, 0.0)
        for fn in self._listeners:
            fn(self)

    # -- signals -----------------------------------------------------------------
    def add_listener(self, fn: Callable[["Memory"], None]) -> None:
        """Invoke *fn* after every ledger change (reserve/release/wipe)."""
        self._listeners.append(fn)

    def add_watermark(self, threshold: float,
                      callback: Callable[["Memory"], None]) -> None:
        """Invoke *callback* whenever pressure crosses *threshold* upward."""
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"watermark must be in (0, 1]: {threshold}")
        self._watermarks.append((threshold, callback))

    def __repr__(self) -> str:
        return (f"<Memory {self.machine_name} "
                f"{self.used / 2**30:.2f}/{self.capacity / 2**30:.2f} GiB>")
