"""Sharded vector: an append-friendly distributed array (§3.2, §4).

Elements are keyed by dense integer indices; shards cover contiguous
index ranges.  The tail shard — the append target — *seals* instead of
splitting when it reaches the size cap: a fresh empty tail is opened on
the machine with the most free DRAM, so no data moves on the hot path.
This is how the Fig. 2 pipeline spreads its input images across
imbalanced machines for free.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster import Machine
from ..core.prefetch import PrefetchingReader
from ..sim import Event
from .sharding import ShardedBase


class ShardedVector(ShardedBase):
    """Distributed ``vector<T>`` over memory proclets."""

    def __init__(self, qs, name: str = "vector",
                 initial_machine: Optional[Machine] = None):
        super().__init__(qs, name, initial_machine)
        self._length = 0

    def __len__(self) -> int:
        return self._length

    # -- writes --------------------------------------------------------------
    def append(self, value: Any, nbytes: float, ctx=None) -> Event:
        """Append one element; returns the completion event.

        The element lands in the tail shard; when the tail crosses the
        size cap the shard controller seals it and opens a new one.
        """
        idx = self._length
        self._length += 1
        tail = self.shards[-1].ref
        if ctx is not None:
            return ctx.call(tail, "mp_put", idx, nbytes, value,
                            req_bytes=nbytes)
        return tail.call("mp_put", idx, nbytes, value)

    def put(self, index: int, value: Any, nbytes: float, ctx=None) -> Event:
        """Overwrite an existing element in place."""
        self._check_index(index)
        return self.call_routed(index, "mp_put", index, nbytes, value,
                                ctx=ctx, req_bytes=nbytes)

    # -- reads -----------------------------------------------------------------
    def get(self, index: int, ctx=None) -> Event:
        """Read one element (remote callers pay its bytes on the wire)."""
        self._check_index(index)
        return self.call_routed(index, "mp_get", index, ctx=ctx)

    def reader(self, lo: int = 0, hi: Optional[int] = None,
               chunk: Optional[int] = None,
               depth: Optional[int] = None) -> PrefetchingReader:
        """A prefetching sequential reader over ``[lo, hi)`` (§3.2
        iterators with prefetch hints)."""
        cfg = self.qs.config
        return PrefetchingReader(
            self, lo, self._length if hi is None else hi,
            chunk=cfg.prefetch_chunk if chunk is None else chunk,
            depth=cfg.prefetch_depth if depth is None else depth,
        )

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise IndexError(
                f"{self.name}: index {index} out of range "
                f"[0, {self._length})"
            )

    # -- split policy overrides ----------------------------------------------------
    def reshard_split_by_id(self, proclet_id: int):
        """Seal-don't-split for the tail shard (append-path
        optimization): sealing is instantaneous bookkeeping, so the
        two-phase protocol would be pure overhead for the tail."""
        idx = self._find_by_id(proclet_id)
        if idx is None:
            return None
        if idx == len(self.shards) - 1:
            return self._seal_tail()
        return super().reshard_split_by_id(proclet_id)

    def _seal_tail(self):
        """Open a fresh, empty tail shard; no data moves.

        Placement goes to the machine with the most free DRAM, which is
        the entire memory-spreading mechanism of the Fig. 2 experiment.
        """
        new = self._spawn_shard(self._length)
        self._insert_shard(new)
        if self.qs.metrics is not None:
            self.qs.metrics.count("quicksand.vector.seals")
        tr = self.qs.sim.tracer
        if tr is not None:
            shard_name = new.proclet.name
            tr.instant("split", f"seal {shard_name}",
                       track=f"proclet:{shard_name}", kind="vector-seal",
                       machine=new.proclet.machine.name)
        # Sealing is instantaneous bookkeeping; return a completed event
        # with a split's value so the controllers treat both alike.
        ev = self.qs.sim.event()
        ev.succeed((new.lo, new.ref))
        return ev

    def wants_merge(self, proclet_id: int) -> bool:
        idx = self._find_by_id(proclet_id)
        if idx is None or idx == len(self.shards) - 1:
            return False  # never merge the active tail
        return super().wants_merge(proclet_id)
