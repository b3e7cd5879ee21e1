"""An elastic in-memory cache over memory proclets.

The paper's introduction motivates fungibility with exactly this
workload: an AWS Lambda user "might use it only as an in-memory data
cache that requires little CPU" [InfiniCache, 60] — yet the cloud makes
them rent bundled CPU.  Built on memory proclets, the cache consumes
*only* DRAM (plus negligible cycles), spreads across whatever machines
have free memory, and keeps shrinking/growing per-machine as the
local/global schedulers move its shards.

It is a :class:`~repro.ds.sharding.ShardedBase` over
:func:`~repro.ds.sharding.hash_key`: it starts as one shard and the
size controller splits and merges it like any sharded structure.  The
cache enforces a byte budget with CLOCK-style eviction batched per
shard; each entry's second-chance bit is stored with its value, so it
moves with the item through split, merge, migration and checkpoint,
and eviction is a local operation on each memory proclet.
"""

from __future__ import annotations

from typing import Any

from ..core.memproclet import MemoryProclet
from ..ds.sharding import ShardedBase, hash_key
from ..runtime import Payload
from ..sim import Event
from ..units import MiB, US

_OP_CPU = 0.3 * US


class CacheShardProclet(MemoryProclet):
    """Memory proclet with second-chance (CLOCK) eviction support.

    Entries are stored as ``(value, referenced)``: a put stores its
    entry unreferenced and only a read sets the bit, so an entry read
    since the last sweep outlives one that was only written.  Hits,
    misses and evictions are counted on the owning cache.
    """

    def cs_get(self, ctx, key):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        entry = self._objects.get(key)
        if entry is None:
            self.shard_owner.misses += 1
            return Payload(None, nbytes=0.0)
        self.shard_owner.hits += 1
        nbytes, (value, _referenced) = entry
        self._objects[key] = (nbytes, (value, True))
        return Payload(value, nbytes=nbytes)

    def cs_put(self, ctx, key, nbytes: float, value: Any):
        yield from self.mp_put(ctx, key, nbytes, (value, False))

    def cs_evict(self, ctx, target_bytes: float):
        """Free at least *target_bytes* using the CLOCK second chance."""
        yield ctx.cpu(_OP_CPU * max(1, self.object_count))
        freed = 0.0
        # First pass: clear reference bits, evict unreferenced entries.
        for _pass in range(2):
            for key in list(self._keys):
                if freed >= target_bytes:
                    return freed
                nbytes, (value, referenced) = self._objects[key]
                if referenced:
                    self._objects[key] = (nbytes, (value, False))
                else:
                    freed += self._remove(key)
                    self.shard_owner.evictions += 1
        return freed


class ElasticCache(ShardedBase):
    """A byte-budgeted cache namespace spread over cache shards."""

    shard_class = CacheShardProclet

    def __init__(self, qs, name: str = "cache",
                 budget_bytes: float = 256 * MiB):
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        super().__init__(qs, name)
        self.budget_bytes = float(budget_bytes)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Bytes asked of evictions still running.
        self._evicting = 0.0

    # -- API -------------------------------------------------------------------
    def get(self, key: Any, ctx=None) -> Event:
        """Event value: the cached object or ``None`` on a miss."""
        key = hash_key(key)
        return self.call_routed(key, "cs_get", key, ctx=ctx)

    def put(self, key: Any, value: Any, nbytes: float, ctx=None) -> Event:
        """Insert; triggers shard-local eviction if over budget."""
        key = hash_key(key)
        ev = self.call_routed(key, "cs_put", key, nbytes, value,
                              ctx=ctx, req_bytes=nbytes)
        ev.subscribe(self._maybe_evict)
        return ev

    def _maybe_evict(self, _event=None) -> None:
        over = self.used_bytes - self.budget_bytes - self._evicting
        if over <= 0:
            return
        # Ask the fullest live shard to shed the overage (a lost shard
        # holds nothing, so with bytes over budget one is live).
        fullest, _p = max(self.live_shards(),
                          key=lambda sp: sp[1].heap_bytes)
        self._evicting += over
        fullest.ref.call("cs_evict", over).subscribe(
            lambda ev: self._evicted(ev, over))

    def _evicted(self, event, asked: float) -> None:
        self._evicting -= asked
        if event.ok and event.value > 0:
            # The shard may have held less than the overage.
            self._maybe_evict()

    # -- stats --------------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return self.total_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
