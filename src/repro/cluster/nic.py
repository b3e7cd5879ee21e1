"""Per-machine NIC model: fluid bandwidth sharing per direction.

Transfers contend on the sender's TX scheduler (fair-shared, priority-
aware).  The receive direction is tracked for utilization accounting but
is not a second serialization point — in every experiment here traffic is
either tx-bound or latency-bound, so the single-bottleneck approximation
is accurate (documented in DESIGN.md §4).
"""

from __future__ import annotations

from ..sim import FluidItem, FluidScheduler, Simulator


class Nic:
    """Network interface of one machine."""

    def __init__(self, sim: Simulator, machine_name: str, bandwidth: float,
                 metrics=None):
        if bandwidth <= 0:
            raise ValueError(f"NIC bandwidth must be positive: {bandwidth}")
        self.sim = sim
        self.machine_name = machine_name
        #: Nominal (spec) bandwidth; the live capacity may be degraded.
        self.bandwidth = float(bandwidth)
        self.tx = FluidScheduler(sim, bandwidth, name=f"{machine_name}.tx")
        self.metrics = metrics
        self.rx_bytes = 0.0
        self.tx_bytes = 0.0
        self.up = True
        #: Fraction of nominal bandwidth currently available, in (0, 1].
        self.degraded_fraction = 1.0

    def send(self, nbytes: float, priority: int = 1,
             name: str = "") -> FluidItem:
        """Enqueue *nbytes* for transmission; the item (an event) fires
        when the last byte leaves the NIC."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if not self.up:
            # Lazy import: runtime depends on cluster, not vice versa.
            from ..runtime.errors import MachineFailed

            raise MachineFailed(
                f"{self.machine_name}: cannot transmit, machine is down")
        self.tx_bytes += nbytes
        return self.tx.submit(work=float(nbytes), demand=self.bandwidth,
                              priority=priority,
                              name=name or f"{self.machine_name}.send")

    # -- fault state ---------------------------------------------------------
    def degrade(self, fraction: float) -> None:
        """Clamp the TX capacity to *fraction* of nominal bandwidth
        (models congestion, a flapping link, or a misbehaving peer)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"degrade fraction must be in (0, 1]: {fraction}")
        self.degraded_fraction = float(fraction)
        self.tx.set_capacity(self.bandwidth * self.degraded_fraction)

    def restore(self) -> None:
        """Undo any degradation, returning to nominal bandwidth."""
        self.degraded_fraction = 1.0
        self.tx.set_capacity(self.bandwidth)

    def take_down(self) -> None:
        """Machine crash: refuse new sends (in-flight work is failed by
        the runtime's fail path, not here)."""
        self.up = False

    def bring_up(self) -> None:
        """Machine restart: accept traffic again at nominal bandwidth."""
        self.up = True
        self.restore()

    def note_rx(self, nbytes: float) -> None:
        self.rx_bytes += nbytes

    def __repr__(self) -> str:
        return (f"<Nic {self.machine_name} bw={self.bandwidth:.3g} B/s "
                f"tx_queue={len(self.tx)}>")
