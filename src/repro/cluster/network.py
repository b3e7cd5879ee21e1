"""The datacenter fabric connecting simulated machines.

Provides two primitives the proclet runtime builds on:

* :meth:`Fabric.transfer` — a bulk byte move (heap migration, prefetch
  batches): one-way latency + tx-bandwidth contention at the sender.
* :meth:`Fabric.rpc_cost` — the fixed round-trip cost of a small method
  invocation, used by the runtime's remote-call path.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Event, Simulator
from .machine import Machine
from .topology import NetworkSpec


class Fabric:
    """Full-bisection fabric with per-NIC bandwidth contention."""

    def __init__(self, sim: Simulator, spec: NetworkSpec, metrics=None):
        self.sim = sim
        self.spec = spec
        self.metrics = metrics
        self.total_bytes_moved = 0.0
        self.total_transfers = 0
        # Partitioned machine pairs ({id, id} frozensets).  Bulk
        # transfers between partitioned machines stall (transport-layer
        # retry) and resume when the partition heals.
        self._partitions: set = set()
        self._heal_gate: Event = None  # recreated per partition epoch

    # -- bulk data -----------------------------------------------------------
    def transfer(self, src: Machine, dst: Machine, nbytes: float,
                 priority: int = 1, name: str = "") -> Event:
        """Move *nbytes* from *src* to *dst*; returns a completion event.

        Same-machine transfers are free apart from the local-call
        overhead (data never leaves DRAM).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer: {nbytes}")
        if src is dst:
            return self.sim.timeout(self.spec.local_call_overhead)
        return self.sim.process(
            self._transfer_proc(src, dst, nbytes, priority, name),
            name=name or f"xfer:{src.name}->{dst.name}",
        )

    def _transfer_proc(self, src: Machine, dst: Machine, nbytes: float,
                       priority: int, name: str) -> Generator:
        self.total_transfers += 1
        self.total_bytes_moved += nbytes
        # Wire latency, then serialization onto the sender's NIC.
        yield self.sim.timeout(self.spec.latency)
        # A partition stalls the flow (transport retries) until healed.
        while self.is_partitioned(src, dst):
            yield self._partition_gate()
        if nbytes > 0:
            item = src.nic.send(nbytes, priority=priority, name=name)
            yield item
        dst.nic.note_rx(nbytes)
        if self.metrics is not None:
            self.metrics.count("net.transfers")
            self.metrics.count("net.bytes", nbytes)

    # -- partitions ----------------------------------------------------------
    def partition(self, a: Machine, b: Machine) -> None:
        """Cut bulk connectivity between *a* and *b* (both directions).

        Only bulk transfers stall; small control messages are modeled as
        unqueued latency and keep flowing (a deliberate simplification —
        the runtime's correctness never depends on control-plane loss).
        """
        if a is b:
            raise ValueError("cannot partition a machine from itself")
        self._partitions.add(frozenset((a.id, b.id)))

    def heal(self, a: Machine, b: Machine) -> None:
        """Restore connectivity between *a* and *b*; stalled flows resume."""
        self._partitions.discard(frozenset((a.id, b.id)))
        self._release_stalled()

    def is_partitioned(self, a: Machine, b: Machine) -> bool:
        return bool(self._partitions) and \
            frozenset((a.id, b.id)) in self._partitions

    def _partition_gate(self) -> Event:
        """Event that fires at the next heal (shared by stalled flows)."""
        if self._heal_gate is None:
            self._heal_gate = self.sim.event()
        return self._heal_gate

    def _release_stalled(self) -> None:
        gate, self._heal_gate = self._heal_gate, None
        if gate is not None:
            gate.succeed()  # stalled transfers re-check their pair

    # -- small messages -----------------------------------------------------------
    def oneway_delay(self, req_bytes: float = 256.0) -> float:
        """Delivery time of a small control message (no queueing model —
        control traffic is negligible next to bulk transfers)."""
        return self.spec.latency + self.spec.rpc_overhead \
            + req_bytes / 1e9  # tiny serialization term

    def rpc_cost(self, req_bytes: float = 256.0,
                 resp_bytes: float = 256.0) -> float:
        """Round-trip fixed cost of a remote method invocation."""
        return self.oneway_delay(req_bytes) + self.oneway_delay(resp_bytes)

    def message(self, src: Machine, dst: Machine,
                nbytes: float = 256.0) -> Event:
        """Deliver a small control message; completion = arrival at dst."""
        if src is dst:
            return self.sim.timeout(self.spec.local_call_overhead)
        return self.sim.timeout(self.oneway_delay(nbytes))
