"""Memory proclets: granular containers of in-memory data.

A memory proclet stores keyed objects and charges their bytes against the
hosting machine's DRAM.  It is the unit of memory placement and
migration: sharded data structures (:mod:`repro.ds`) partition their
contents into many memory proclets so the scheduler can spread data over
whatever DRAM exists in the cluster and move it in well under a
millisecond (§3.1, §3.3).

Objects are addressed by sortable keys (ints for vectors, arbitrary
ordered keys for maps); range queries power the batch reads used by the
prefetcher.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cluster import OutOfMemory
from ..runtime import Payload, ProcletRef
from ..runtime.errors import WrongShard
from ..units import US
from .resource import ResourceKind, ResourceProclet

#: CPU cost of one object lookup/insert inside a memory proclet.
_OP_CPU = 0.2 * US


@dataclass(frozen=True)
class DistPtr:
    """A distributed pointer (the ``NewPtr<T>`` of §3.1).

    Valid across proclets and machines; dereference with :meth:`deref`
    from any execution context.
    """

    shard: ProcletRef
    key: Any

    def deref(self, ctx):
        """Read the pointee; returns a completion event with the value."""
        return ctx.call(self.shard, "mp_get", self.key)

    def store(self, ctx, value, nbytes: float):
        """Overwrite the pointee (re-sizing its allocation)."""
        return ctx.call(self.shard, "mp_put", self.key, nbytes, value,
                        req_bytes=nbytes)


class MemoryProclet(ResourceProclet):
    """Object store specialized to consume DRAM."""

    kind = ResourceKind.MEMORY

    def __init__(self):
        super().__init__()
        self._objects: Dict[Any, Tuple[float, Any]] = {}
        self._keys: List[Any] = []  # sorted, for range ops and splits
        # Authoritative key range when part of a sharded structure
        # (None = unbounded).  Enforced at execution time: an invocation
        # routed before a concurrent split/merge re-ranged this shard
        # gets WrongShard and the client retries with fresh routing.
        self.range_lo: Optional[Any] = None
        self.range_hi: Optional[Any] = None

    def _check_range(self, key) -> None:
        if self.range_lo is not None and key < self.range_lo:
            raise WrongShard(
                f"{self.name}: key {key!r} below range "
                f"[{self.range_lo!r}, {self.range_hi!r})"
            )
        if self.range_hi is not None and not key < self.range_hi:
            raise WrongShard(
                f"{self.name}: key {key!r} beyond range "
                f"[{self.range_lo!r}, {self.range_hi!r})"
            )

    # -- introspection (simulation-side) -----------------------------------
    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def keys(self) -> List[Any]:
        return list(self._keys)

    def key_range(self) -> Tuple[Any, Any]:
        if not self._keys:
            raise ValueError(f"{self.name}: empty proclet has no key range")
        return self._keys[0], self._keys[-1]

    # -- proclet methods (invoked through refs) ------------------------------
    def mp_put(self, ctx, key, nbytes: float, value: Any = None):
        """Insert or overwrite one object.

        Returns True for an insert, False for an overwrite — callers
        tracking collection sizes must use this rather than comparing
        object counts, which race with concurrent splits.
        """
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        old = self._objects.get(key)
        if old is not None:
            self.heap_free(old[0])
        try:
            ctx.alloc(nbytes)
        except OutOfMemory:
            # A failed put leaves the shard as it was.
            if old is not None:
                self.heap_alloc(old[0])
            raise
        if old is None:
            bisect.insort(self._keys, key)
        self._objects[key] = (float(nbytes), value)
        return old is None

    def mp_get(self, ctx, key):
        """Read one object; remote callers pay for its bytes on the wire."""
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        entry = self._objects.get(key)
        if entry is None:
            raise KeyError(f"{self.name}: no object {key!r}")
        nbytes, value = entry
        return Payload(value, nbytes=nbytes)

    def mp_contains(self, ctx, key):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        return key in self._objects

    def mp_delete(self, ctx, key):
        """Remove one object, returning its size."""
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        if key not in self._objects:
            raise KeyError(f"{self.name}: no object {key!r}")
        return self._remove(key)

    def _remove(self, key) -> float:
        """Drop one present object and free its bytes; returns its size."""
        nbytes = self._objects.pop(key)[0]
        del self._keys[bisect.bisect_left(self._keys, key)]
        self.heap_free(nbytes)
        return nbytes

    def mp_get_range(self, ctx, lo, hi):
        """Batch-read objects with ``lo <= key < hi`` (prefetch path).

        Returns ``[(key, value), ...]``; the wire cost is the sum of the
        objects' sizes, paid as one bulk transfer — this is why
        prefetching hides remote-access latency so well (§4).
        """
        yield ctx.cpu(_OP_CPU * max(1, self._count_in_range(lo, hi)))
        # The whole requested window must be covered by this shard.
        self._check_range(lo)
        if self.range_hi is not None and not hi <= self.range_hi:
            raise WrongShard(
                f"{self.name}: range [{lo!r}, {hi!r}) beyond shard end "
                f"{self.range_hi!r}"
            )
        i = bisect.bisect_left(self._keys, lo)
        j = bisect.bisect_left(self._keys, hi)
        out = []
        total = 0.0
        for key in self._keys[i:j]:
            nbytes, value = self._objects[key]
            out.append((key, value))
            total += nbytes
        return Payload(out, nbytes=total)

    def mp_stats(self, ctx):
        """Size snapshot used by controllers."""
        yield ctx.cpu(_OP_CPU)
        return {
            "objects": len(self._objects),
            "heap_bytes": self.heap_bytes,
        }

    def _count_in_range(self, lo, hi) -> int:
        i = bisect.bisect_left(self._keys, lo)
        j = bisect.bisect_left(self._keys, hi)
        return j - i

    # -- split/merge primitives (driven by the facade, §3.3) -------------------
    def split_point(self) -> Any:
        """Key splitting the heap into two byte-balanced halves."""
        if len(self._keys) < 2:
            raise ValueError(f"{self.name}: too small to split")
        target = self.heap_bytes / 2.0
        acc = 0.0
        for key in self._keys:
            acc += self._objects[key][0]
            if acc >= target:
                idx = self._keys.index(key)
                # Never split off an empty half.
                idx = min(max(idx, 0), len(self._keys) - 2)
                return self._keys[idx + 1]
        return self._keys[-1]

    def extract_upper(self, split_key) -> Tuple[List[Tuple[Any, float, Any]],
                                                float]:
        """Remove and return all objects with ``key >= split_key``.

        Returns ``(items, total_bytes)`` where items are
        ``(key, nbytes, value)`` tuples.  Heap accounting is adjusted
        here; the caller charges the transfer and installs the items in
        the new shard.
        """
        idx = bisect.bisect_left(self._keys, split_key)
        moved_keys = self._keys[idx:]
        del self._keys[idx:]
        items = []
        total = 0.0
        for key in moved_keys:
            nbytes, value = self._objects.pop(key)
            items.append((key, nbytes, value))
            total += nbytes
        if total > 0:
            self.heap_free(total)
        return items, total

    def extract_all(self) -> Tuple[List[Tuple[Any, float, Any]], float]:
        """Remove and return every object (the giving end of a merge)."""
        items = [(key, *self._objects[key]) for key in self._keys]
        total = sum(nbytes for _k, nbytes, _v in items)
        self._objects.clear()
        self._keys.clear()
        if total > 0:
            self.heap_free(total)
        return items, total

    # -- fault-tolerance hooks (repro.ft) --------------------------------------
    def ft_capture(self):
        """Snapshot every object plus the shard's key range.

        Non-destructive (unlike :meth:`extract_all`): the proclet keeps
        serving while the checkpoint engine copies the snapshot out.
        """
        items = [(key, *self._objects[key]) for key in self._keys]
        state = {"items": items, "range": (self.range_lo, self.range_hi)}
        return state, self.heap_bytes

    def ft_restore(self, state) -> None:
        """Rebuild objects and key range from an :meth:`ft_capture`
        snapshot (charges this incarnation's DRAM via install)."""
        self.range_lo, self.range_hi = state["range"]
        self.install(list(state["items"]))

    def install(self, items: List[Tuple[Any, float, Any]]) -> float:
        """Bulk-insert items (the receiving end of a split/merge).

        Returns the total bytes installed (already charged to this
        proclet's heap).
        """
        total = sum(nbytes for _k, nbytes, _v in items)
        if total > 0:
            self.heap_alloc(total)
        for key, nbytes, value in items:
            if key in self._objects:
                raise ValueError(f"{self.name}: duplicate key {key!r}")
            bisect.insort(self._keys, key)
            self._objects[key] = (nbytes, value)
        return total
