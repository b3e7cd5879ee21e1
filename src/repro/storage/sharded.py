"""Sharded persistent store: range-sharded objects over storage proclets.

§3.3: "If a shard becomes oversized, Quicksand splits it into two shards
... This technique can also be applied to storage proclets to keep the
desired granularity."  This module is that application: an ordered
persistent map whose shards are storage proclets, split at the
byte-median key when they outgrow ``max_storage_shard_bytes`` and merged
back when deletions leave them sparse.

Unlike DRAM shards, splitting a storage shard moves *persistent* bytes:
the data is read from the source device, shipped over the fabric, and
written to the destination device — all three costs are charged.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from ..autoscale import policy
from ..autoscale.reshard import ReshardHooks
from ..cluster import Machine
from ..runtime import Payload
from ..runtime.errors import WrongShard
from ..sim import Event
from ..units import GiB, US
from ..core.resource import ResourceKind, ResourceProclet
from ..ds.sharding import routed_call

_OP_CPU = 0.3 * US
_INDEX_BYTES = 64.0


class StoreShardProclet(ResourceProclet):
    """One range shard of the sharded store (a storage-kind proclet)."""

    kind = ResourceKind.STORAGE

    def __init__(self):
        super().__init__()
        self._objects: dict = {}
        self._keys: List[Any] = []
        self.range_lo: Optional[Any] = None
        self.range_hi: Optional[Any] = None

    def _device(self):
        dev = self.machine.storage
        if dev is None:
            raise RuntimeError(
                f"{self.name}: machine {self.machine.name} has no storage"
            )
        return dev

    @property
    def stored_bytes(self) -> float:
        return sum(nbytes for nbytes, _v in self._objects.values())

    @property
    def object_count(self) -> int:
        return len(self._objects)

    def _check_range(self, key) -> None:
        if self.range_lo is not None and key < self.range_lo:
            raise WrongShard(f"{self.name}: {key!r} below range")
        if self.range_hi is not None and not key < self.range_hi:
            raise WrongShard(f"{self.name}: {key!r} beyond range")

    # -- proclet methods ------------------------------------------------------
    def ss_write(self, ctx, key, nbytes: float, value: Any = None):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        device = self._device()
        old = self._objects.get(key)
        if old is not None:
            device.release(old[0])
            self.heap_free(_INDEX_BYTES)
        else:
            bisect.insort(self._keys, key)
        device.reserve(nbytes)
        ctx.alloc(_INDEX_BYTES)
        yield from device.write(nbytes, priority=int(ctx.priority))
        self._objects[key] = (float(nbytes), value)
        if self.shard_owner is not None:
            self.shard_owner._note_size_change(self)
        return old is None

    def ss_read(self, ctx, key):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        entry = self._objects.get(key)
        if entry is None:
            raise KeyError(f"{self.name}: no object {key!r}")
        nbytes, value = entry
        yield from self._device().read(nbytes, priority=int(ctx.priority))
        return Payload(value, nbytes=nbytes)

    def ss_delete(self, ctx, key):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        entry = self._objects.pop(key, None)
        if entry is None:
            raise KeyError(f"{self.name}: no object {key!r}")
        self._keys.remove(key)
        self._device().release(entry[0])
        self.heap_free(_INDEX_BYTES)
        if self.shard_owner is not None:
            self.shard_owner._note_size_change(self)
        return entry[0]

    # -- split/merge primitives ------------------------------------------------
    def split_point(self) -> Any:
        if len(self._keys) < 2:
            raise ValueError(f"{self.name}: too small to split")
        target = self.stored_bytes / 2.0
        acc = 0.0
        for idx, key in enumerate(self._keys):
            acc += self._objects[key][0]
            if acc >= target:
                return self._keys[min(idx + 1, len(self._keys) - 1)]
        return self._keys[-1]

    def extract_upper(self, split_key) -> Tuple[List[Tuple[Any, float, Any]],
                                                float]:
        """Remove objects >= split_key; device bytes are released here,
        the caller installs them at the destination."""
        idx = bisect.bisect_left(self._keys, split_key)
        moved_keys = self._keys[idx:]
        del self._keys[idx:]
        items = []
        total = 0.0
        for key in moved_keys:
            nbytes, value = self._objects.pop(key)
            items.append((key, nbytes, value))
            total += nbytes
        if items:
            self._device().release(total)
            self.heap_free(_INDEX_BYTES * len(items))
        return items, total

    def extract_all(self):
        if not self._keys:
            return [], 0.0
        return self.extract_upper(self._keys[0])

    def install(self, items: List[Tuple[Any, float, Any]]) -> None:
        total = sum(nbytes for _k, nbytes, _v in items)
        if items:
            self._device().reserve(total)
            self.heap_alloc(_INDEX_BYTES * len(items))
        for key, nbytes, value in items:
            bisect.insort(self._keys, key)
            self._objects[key] = (nbytes, value)


@dataclass
class _StoreShard:
    lo: Any  # None = -inf
    ref: Any

    @property
    def proclet(self) -> StoreShardProclet:
        return self.ref.proclet


class ShardedStore(ReshardHooks):
    """Ordered persistent map over storage-proclet shards."""

    def __init__(self, qs, name: str = "store",
                 max_shard_bytes: float = 1 * GiB,
                 min_shard_bytes: float = 64 * 2**20,
                 initial_machine: Optional[Machine] = None):
        if max_shard_bytes <= min_shard_bytes:
            raise ValueError("max_shard_bytes must exceed min_shard_bytes")
        self.qs = qs
        self.name = name
        self.max_shard_bytes = max_shard_bytes
        self.min_shard_bytes = min_shard_bytes
        self.shards: List[_StoreShard] = []
        self.splits = 0
        self.merges = 0
        self._busy = False
        first = self._spawn_shard(None, initial_machine)
        self.shards.append(first)

    def _spawn_shard(self, lo, machine: Optional[Machine] = None):
        proclet = StoreShardProclet()
        proclet.shard_owner = self
        if machine is None:
            machine = self.qs.placement.best_for_storage(0.0)
        if machine is None:
            raise RuntimeError(
                f"{self.name}: no machine with a storage device"
            )
        ref = self.qs.runtime.spawn(proclet, machine,
                                    name=f"{self.name}.shard@{lo!r}")
        return _StoreShard(lo=lo, ref=ref)

    # -- routing -------------------------------------------------------------
    def _index_for(self, key) -> int:
        idx = 0
        for i, shard in enumerate(self.shards):
            if shard.lo is None or shard.lo <= key:
                idx = i
            else:
                break
        return idx

    def route(self, key):
        return self.shards[self._index_for(key)].ref

    def _refresh_ranges(self) -> None:
        self.qs.runtime.reshard_ledger.note_table_change(self)
        for i, shard in enumerate(self.shards):
            p = self.qs.runtime._proclets.get(shard.ref.proclet_id)
            if p is None:
                continue
            p.range_lo = shard.lo
            p.range_hi = (self.shards[i + 1].lo
                          if i + 1 < len(self.shards) else None)

    # -- API ---------------------------------------------------------------------
    call_routed = routed_call

    def write(self, key, nbytes: float, value: Any = None,
              ctx=None) -> Event:
        return self.call_routed(key, "ss_write", key, nbytes, value,
                                ctx=ctx, req_bytes=nbytes)

    def read(self, key, ctx=None) -> Event:
        return self.call_routed(key, "ss_read", key, ctx=ctx)

    def delete(self, key, ctx=None) -> Event:
        return self.call_routed(key, "ss_delete", key, ctx=ctx)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def total_bytes(self) -> float:
        return sum(s.proclet.stored_bytes for s in self.shards)

    @property
    def total_objects(self) -> int:
        return sum(s.proclet.object_count for s in self.shards)

    def shard_machines(self):
        return [s.ref.machine for s in self.shards]

    # -- adaptive split/merge (§3.3 applied to storage) ---------------------------
    # The store keeps its own size trigger; the split/merge itself is the
    # shared two-phase protocol (repro.autoscale.reshard).
    def _note_size_change(self, proclet: StoreShardProclet) -> None:
        if self._busy:
            return
        if proclet.stored_bytes > self.max_shard_bytes:
            self._busy = True
            self.qs.sim.call_in(0.0, self._start, self.reshard_split_by_id,
                                proclet.id)
        elif (proclet.stored_bytes < self.min_shard_bytes
              and len(self.shards) > 1):
            self._busy = True
            self.qs.sim.call_in(0.0, self._start, self.reshard_merge_by_id,
                                proclet.id)

    def _start(self, reshard, proclet_id: int) -> None:
        ev = reshard(proclet_id)
        if ev is None:
            self._busy = False
            return
        ev.subscribe(self._op_done)

    def _op_done(self, event) -> None:
        self._busy = False
        if not event.ok:
            raise event.value

    # -- reshard hooks ---------------------------------------------------------------
    def _place_child(self, child, nbytes: float):
        return self.qs.placement.best_for_storage(nbytes)

    def _merge_fits(self, src, dst) -> bool:
        return (dst.stored_bytes + src.stored_bytes
                <= policy.MERGE_FRACTION * self.max_shard_bytes
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

    def _publish_split(self, shard, split_key, child_ref) -> None:
        self.shards.insert(self.shards.index(shard) + 1,
                           _StoreShard(lo=split_key, ref=child_ref))
        self._refresh_ranges()
        self.splits += 1

    def _publish_merge(self, shard, partner) -> None:
        if self.shards.index(shard) < self.shards.index(partner):
            partner.lo = shard.lo
        self.shards.remove(shard)
        self._refresh_ranges()
        self.merges += 1

    def destroy(self) -> None:
        for shard in list(self.shards):
            proclet = shard.proclet
            # Release the device capacity the shard's objects hold; the
            # runtime's destroy only knows about DRAM footprints.
            if proclet.stored_bytes > 0:
                proclet._device().release(proclet.stored_bytes)
            self.qs.runtime.destroy(shard.ref)
        self.shards.clear()

    def __repr__(self) -> str:
        return (f"<ShardedStore {self.name!r} shards={len(self.shards)} "
                f"bytes={self.total_bytes:.0f}>")
