"""Sharded persistent store: range-sharded objects over storage proclets.

§3.3: "If a shard becomes oversized, Quicksand splits it into two shards
... This technique can also be applied to storage proclets to keep the
desired granularity."  This module is that application: an ordered
persistent map built on the sharding library (:class:`ShardedBase`)
whose shards are storage proclets (:class:`StorageProclet`).  The
shard size controller in charge (the heap-change controller or the
autoscaler) reads each shard's stored bytes against the store's own
band, splits it at the byte-median key when it outgrows
``max_shard_bytes`` and merges it back when deletions leave it sparse.

Unlike DRAM shards, splitting a storage shard moves *persistent* bytes:
the data is read from the source device, shipped over the fabric, and
written to the destination device — all three costs are charged.
"""

from __future__ import annotations

import operator
from typing import Any, Generator, Optional

from ..autoscale import policy
from ..cluster import Machine
from ..core.storageproclet import StorageProclet
from ..ds.sharding import ShardedBase
from ..sim import Event
from ..units import GiB


class ShardedStore(ShardedBase):
    """Ordered persistent map over storage-proclet shards."""

    shard_class = StorageProclet
    shard_bytes = operator.attrgetter("stored_bytes")

    def __init__(self, qs, name: str = "store",
                 max_shard_bytes: float = 1 * GiB,
                 min_shard_bytes: float = 64 * 2**20,
                 initial_machine: Optional[Machine] = None):
        if max_shard_bytes <= min_shard_bytes:
            raise ValueError("max_shard_bytes must exceed min_shard_bytes")
        super().__init__(qs, name, initial_machine,
                         band=(max_shard_bytes, min_shard_bytes))

    # -- API ---------------------------------------------------------------------
    def write(self, key, nbytes: float, value: Any = None,
              ctx=None) -> Event:
        return self.call_routed(key, "sp_write", key, nbytes, value,
                                ctx=ctx, req_bytes=nbytes)

    def read(self, key, ctx=None) -> Event:
        return self.call_routed(key, "sp_read", key, ctx=ctx)

    def delete(self, key, ctx=None) -> Event:
        return self.call_routed(key, "sp_delete", key, ctx=ctx)

    def contains(self, key, ctx=None) -> Event:
        return self.call_routed(key, "sp_contains", key, ctx=ctx)

    # -- reshard hooks ---------------------------------------------------------------
    def _place_child(self, child, nbytes: float):
        return self.qs.placement.best_for_storage(nbytes)

    def _merge_fits(self, src, dst) -> bool:
        return (policy.merge_fits(dst.stored_bytes + src.stored_bytes,
                                  self.max_shard_bytes)
                and dst.machine.storage.free >= src.stored_bytes)

    def _move(self, src, dst, nbytes: float, name: str) -> Generator:
        """Moving persistent bytes costs a device read, the fabric
        transfer, and a device write."""
        if nbytes > 0:
            yield self.qs.sim.process(src.storage.read(nbytes),
                                      name=f"{name}:read")
            yield from super()._move(src, dst, nbytes, name)
            yield self.qs.sim.process(dst.storage.write(nbytes),
                                      name=f"{name}:write")

    def destroy(self) -> None:
        # Release the device capacity the shards' objects hold; the
        # runtime's destroy only knows about DRAM footprints.
        for shard in self.shards:
            shard.proclet.extract_all()
        super().destroy()
