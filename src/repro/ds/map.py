"""Sharded ordered map (§3.2): range-sharded key/value store.

Keys must be mutually orderable; shards cover disjoint key ranges and
split at the byte-median key when oversized (the §3.3 hash-table-shard
example), merging back when deletions leave them sparse.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster import Machine
from ..core.prefetch import CHUNK, DEPTH, PrefetchingReader
from ..sim import Event
from .sharding import ShardedBase


class ShardedMap(ShardedBase):
    """Distributed ordered ``map<K, V>`` over memory proclets."""

    def __init__(self, qs, name: str = "map",
                 initial_machine: Optional[Machine] = None):
        super().__init__(qs, name, initial_machine)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- mutations ------------------------------------------------------------
    def put(self, key: Any, value: Any, nbytes: float, ctx=None) -> Event:
        """Insert or overwrite ``key``; returns the completion event."""
        ev = self.call_routed(key, "mp_put", key, nbytes, value,
                              ctx=ctx, req_bytes=nbytes)
        # mp_put reports insert (True) vs overwrite (False).
        ev.subscribe(self._note_put)
        return ev

    def _note_put(self, event) -> None:
        if event.ok and event.value:
            self._size += 1

    def delete(self, key: Any, ctx=None) -> Event:
        ev = self.call_routed(key, "mp_delete", key, ctx=ctx)
        ev.subscribe(self._note_delete)
        return ev

    def _note_delete(self, event) -> None:
        if event.ok:
            self._size -= 1

    # -- reads ------------------------------------------------------------------
    def get(self, key: Any, ctx=None) -> Event:
        return self.call_routed(key, "mp_get", key, ctx=ctx)

    def contains(self, key: Any, ctx=None) -> Event:
        return self.call_routed(key, "mp_contains", key, ctx=ctx)

    def range_reader(self, lo: Any, hi: Any, chunk: int = CHUNK,
                     depth: int = DEPTH) -> PrefetchingReader:
        """Prefetching scan over keys in ``[lo, hi)``."""
        return PrefetchingReader(self, lo, hi, chunk=chunk, depth=depth)


class ShardedSet:
    """Distributed ordered set — a thin veneer over :class:`ShardedMap`.

    Elements are map keys; a fixed small per-element size covers the
    set's bookkeeping bytes.
    """

    ELEMENT_BYTES = 64.0

    def __init__(self, qs, name: str = "set",
                 initial_machine: Optional[Machine] = None):
        self._map = ShardedMap(qs, name=name, initial_machine=initial_machine)

    def __len__(self) -> int:
        return len(self._map)

    @property
    def shard_count(self) -> int:
        return self._map.shard_count

    def add(self, key: Any, ctx=None) -> Event:
        return self._map.put(key, True, self.ELEMENT_BYTES, ctx=ctx)

    def discard(self, key: Any, ctx=None) -> Event:
        return self._map.delete(key, ctx=ctx)

    def contains(self, key: Any, ctx=None) -> Event:
        return self._map.contains(key, ctx=ctx)

    def destroy(self) -> None:
        self._map.destroy()
