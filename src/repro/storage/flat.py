"""Flat storage abstraction (§3.2): aggregate capacity and IOPS.

Modeled on Flat Datacenter Storage [40]: one object namespace striped
over fine-grained storage proclets on every machine with a storage
device, so the application sees the sum of all devices' capacity and
IOPS.  It is a :class:`~repro.storage.ShardedStore` over
:func:`~repro.ds.sharding.hash_key`: the table starts as a stripe of
:data:`SHARDS_PER_DEVICE` shards per device over equal hash ranges, a
shard splits when it outgrows 1 GiB, and no shard ever merges, so the
stripe keeps its IOPS spread.  Routing, teardown (device bytes
included), the reshard ledger and chaos invariant 8 are the store's.
"""

from __future__ import annotations

from typing import Any

from ..ds.sharding import hash_key
from ..sim import Event
from ..units import GiB
from .sharded import ShardedStore

#: Shards per storage device in the initial stripe.
SHARDS_PER_DEVICE = 4


class FlatStorage(ShardedStore):
    """One flat object namespace over all storage devices."""

    def __init__(self, qs, name: str = "storage"):
        machines = qs.placement.storage_machines()
        if not machines:
            raise RuntimeError(
                "flat storage needs at least one machine with a storage "
                "device (MachineSpec.storage)"
            )
        super().__init__(qs, name, max_shard_bytes=1 * GiB,
                         min_shard_bytes=0.0, initial_machine=machines[0])
        stripe = SHARDS_PER_DEVICE * len(machines)
        for i in range(1, stripe):
            lo = (i * 2**32 // stripe, "")
            self._insert_shard(
                self._spawn_shard(lo, machines[i // SHARDS_PER_DEVICE]))

    # -- object API (§3.1 ReadObject/WriteObject) ------------------------------
    def write(self, key: Any, nbytes: float, value: Any = None,
              ctx=None) -> Event:
        return super().write(hash_key(key), nbytes, value, ctx=ctx)

    def read(self, key: Any, ctx=None) -> Event:
        return super().read(hash_key(key), ctx=ctx)

    def delete(self, key: Any, ctx=None) -> Event:
        return super().delete(hash_key(key), ctx=ctx)

    def contains(self, key: Any, ctx=None) -> Event:
        return super().contains(hash_key(key), ctx=ctx)

    # -- aggregate stats --------------------------------------------------------
    @property
    def total_capacity(self) -> float:
        return sum(m.storage.capacity
                   for m in self.qs.placement.storage_machines())

    @property
    def aggregate_iops(self) -> float:
        return sum(m.storage.spec.iops
                   for m in self.qs.placement.storage_machines())
