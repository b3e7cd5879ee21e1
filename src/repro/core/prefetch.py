"""Prefetching reader for cross-shard iteration (§3.2, §4).

Sequential scans over sharded data structures announce their access
pattern, so the reader can issue batch reads (``mp_get_range``) for the
next chunks while the current one is being processed.  With enough depth
the per-element remote-access cost is fully overlapped with compute —
the §4 claim that "preprocessing images from remote memory proclets is
as fast as preprocessing local images".
"""

from __future__ import annotations

import collections
from typing import Any, Deque, Generator, List, Tuple

from ..runtime import DeadProclet
from ..runtime.errors import WrongShard

#: Elements per batch read, and batch reads kept in flight, unless a
#: reader is given its own.
CHUNK = 32
DEPTH = 4


class PrefetchingReader:
    """Pipelined batch reader over a key range of a sharded structure.

    Parameters
    ----------
    ds:
        The sharded structure; must expose ``shard_covering(key) ->
        (shard_ref, range_end)`` for routing.
    lo, hi:
        Key range to scan (``lo`` inclusive, ``hi`` exclusive).
    chunk:
        Elements per batch read.
    depth:
        Number of batch reads kept in flight.  ``depth=0`` disables
        prefetching (each batch is fetched synchronously) — the
        ABL-PREFETCH ablation.
    """

    def __init__(self, ds, lo: int, hi: int, chunk: int = CHUNK,
                 depth: int = DEPTH):
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1: {chunk}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0: {depth}")
        self.ds = ds
        self.lo = lo
        self.hi = hi
        self.chunk = chunk
        self.depth = depth
        self._next_issue = lo
        self._inflight: Deque = collections.deque()
        self.batches_read = 0
        self.elements_read = 0

    @property
    def exhausted(self) -> bool:
        return self._next_issue >= self.hi and not self._inflight

    def _issue_one(self, ctx) -> None:
        """Issue the next batch read (clamped at shard boundaries)."""
        start = self._next_issue
        shard_ref, range_end = self.ds.shard_covering(start)
        end = min(start + self.chunk, self.hi, range_end)
        assert end > start, "shard routing returned an empty range"
        self._next_issue = end
        ev = ctx.call(shard_ref, "mp_get_range", start, end)
        self._inflight.append((ev, start, end))

    def _top_up(self, ctx, target_depth: int) -> None:
        while (len(self._inflight) < target_depth
               and self._next_issue < self.hi):
            self._issue_one(ctx)

    def next_batch(self, ctx) -> Generator:
        """Yield-from helper: returns the next ``[(key, value), ...]``
        batch, or ``None`` when the range is exhausted."""
        if self.depth > 0:
            self._top_up(ctx, self.depth)
        elif not self._inflight and self._next_issue < self.hi:
            self._issue_one(ctx)  # unpipelined fallback
        if not self._inflight:
            return None
        ev, start, end = self._inflight.popleft()
        try:
            batch: List[Tuple[int, Any]] = yield ev
        except (DeadProclet, WrongShard):
            # The shard split/merged after this read was issued; re-fetch
            # the window against the refreshed routing (possibly now
            # spanning several shards).
            batch = yield from self._refetch(ctx, start, end)
        # Refill the pipeline immediately so reads overlap our caller's
        # compute on this batch.
        if self.depth > 0:
            self._top_up(ctx, self.depth)
        self.batches_read += 1
        self.elements_read += len(batch)
        return batch

    def _refetch(self, ctx, start, end) -> Generator:
        out: List[Tuple[int, Any]] = []
        cursor = start
        attempts = 0
        while cursor < end:
            attempts += 1
            if attempts > 32:
                raise RuntimeError(
                    f"prefetch refetch of [{start}, {end}) did not "
                    "stabilize after 32 attempts"
                )
            shard_ref, range_end = self.ds.shard_covering(cursor)
            stop = min(end, range_end)
            try:
                part = yield ctx.call(shard_ref, "mp_get_range",
                                      cursor, stop)
            except (DeadProclet, WrongShard):
                continue  # routing moved again; re-route this cursor
            out.extend(part)
            cursor = stop
        return out
