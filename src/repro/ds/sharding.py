"""General sharding library (§3.2).

Partitions a keyed collection into disjoint key ranges, each stored in
its own shard proclet (a memory proclet for the map, vector, queue and
elastic cache; a storage proclet for the sharded store and flat
storage), with an index proclet holding the routing table.  A size
controller keeps shards inside the structure's size band by splitting
oversized shards and merging undersized ones through the two-phase
protocol in :mod:`repro.autoscale.reshard`; users never see shard
boundaries.  Hash-partitioned namespaces (flat storage, the elastic
cache) range-shard :func:`hash_key` instead of the key itself.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..autoscale import policy
from ..autoscale.reshard import ReshardHooks
from ..cluster import Machine
from ..core.memproclet import MemoryProclet
from ..runtime import DeadProclet, ProcletRef
from ..runtime.errors import WrongShard

#: Routing-table bytes per shard entry, charged to the index proclet.
INDEX_ENTRY_BYTES = 48.0
#: Attempts a routed call makes before its last stale-route error
#: surfaces.
ROUTE_ATTEMPTS = 8


def hash_key(key: Any) -> Tuple[int, str]:
    """The routing key of *key* in a hash-partitioned namespace.

    ``(h, repr(key))``, where ``h`` is the first 32 bits of the BLAKE2b
    digest of ``repr(key)``: independent of ``PYTHONHASHSEED``, ordered
    (so the range-sharding machinery applies unchanged), uniform over
    near-identical keys, and distinct for distinct str and int keys.
    """
    text = repr(key)
    digest = hashlib.blake2b(text.encode()).digest()
    return int.from_bytes(digest[:4], "big"), text


def routed_call(owner, key: Any, method: str, *args, ctx=None,
                req_bytes: float = 0.0):
    """Invoke *method* on the shard of *owner* covering *key*,
    rerouting on stale routing.

    *owner* is a range-sharded structure: it has ``qs``, ``name`` and
    ``route(key)``.  :class:`ShardedBase` binds this function as its
    ``call_routed`` method.

    A shard chosen at submit time can be merged away (DeadProclet)
    or re-ranged by a split (WrongShard) before the invocation
    executes — routing tables are client-side caches, as in Slicer.
    Both outcomes are retried at once against the updated table,
    from one budget of :data:`ROUTE_ATTEMPTS` (the
    :meth:`NuRuntime._invoke_proc` convention: attempts count
    against a single budget no matter why they failed).  A call to
    a shard lost with its machine is retried inside the runtime
    call, with seeded backoff, when a recovery policy covers the
    shard (:meth:`RecoveryManager.retry_delay`).  Application-level
    ``KeyError`` etc. pass through unchanged.
    """
    def attempt():
        last_exc = None
        for _try in range(ROUTE_ATTEMPTS):
            ref = owner.route(key)
            ev = (ctx.call(ref, method, *args, req_bytes=req_bytes)
                  if ctx is not None
                  else ref.call(method, *args, req_bytes=req_bytes))
            try:
                return (yield ev)
            except (WrongShard, DeadProclet) as exc:
                last_exc = exc
        raise last_exc

    return owner.qs.sim.process(attempt(), name=f"{owner.name}.{method}")


@functools.total_ordering
class _Bottom:
    """Sentinel ordered below every key (the first shard's lower bound)."""

    def __lt__(self, other) -> bool:
        return not isinstance(other, _Bottom)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Bottom)

    def __hash__(self) -> int:
        return hash("_Bottom")

    def __repr__(self) -> str:
        return "-inf"


BOTTOM = _Bottom()


@dataclass
class Shard:
    """One shard: the key range ``[lo, <next shard's lo>)``."""

    lo: Any
    ref: ProcletRef

    @property
    def proclet(self):
        return self.ref.proclet


class ShardedBase(ReshardHooks):
    """Common machinery for range-sharded structures.

    *band* is ``(max_shard_bytes, min_shard_bytes)``; it defaults to
    ``QuicksandConfig``'s band.
    """

    #: The proclet class of every shard.
    shard_class = MemoryProclet

    def __init__(self, qs, name: str,
                 initial_machine: Optional[Machine] = None,
                 band: Optional[Tuple[float, float]] = None):
        self.qs = qs
        self.name = name
        self.max_shard_bytes, self.min_shard_bytes = band or (
            qs.config.max_shard_bytes, qs.config.min_shard_bytes)
        self.shards: List[Shard] = []
        self._los: List[Any] = []  # parallel array for bisect routing
        # The index memory proclet: holds the shard routing table (§3.2).
        self.index_ref = qs.spawn_memory(machine=initial_machine,
                                         name=f"{name}.index")
        first = self._spawn_shard(BOTTOM, initial_machine)
        self._insert_shard(first)
        qs.runtime.reshard_ledger.track(self)

    # -- shard bookkeeping --------------------------------------------------
    def _spawn_shard(self, lo: Any,
                     machine: Optional[Machine] = None) -> Shard:
        proclet = self.shard_class()
        proclet.shard_owner = self
        ref = self.qs.spawn(proclet, machine,
                            name=f"{self.name}.shard@{lo!r}")
        return Shard(lo=lo, ref=ref)

    def _insert_shard(self, shard: Shard) -> None:
        idx = self._bisect(shard.lo)
        self.shards.insert(idx, shard)
        self._los.insert(idx, shard.lo)
        self._index_charge(INDEX_ENTRY_BYTES)
        self._refresh_ranges()
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.register(shard.ref, self)

    def _remove_shard(self, shard: Shard) -> None:
        idx = self.shards.index(shard)
        del self.shards[idx]
        del self._los[idx]
        self._index_charge(-INDEX_ENTRY_BYTES)
        self._refresh_ranges()
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.unregister(shard.ref)

    def _index_charge(self, delta: float) -> None:
        """Adjust the index proclet's DRAM for a routing-table entry.

        The table itself lives host-side (``self.shards``); the proclet
        only carries its memory cost.  It may be lost to a machine
        failure — and, under recovery, respawned empty — between two
        charges, so a missing proclet is skipped (its bytes died with
        the machine) and a release is clamped to what the incarnation
        actually holds.
        """
        try:
            proclet = self.index_ref.proclet
        except DeadProclet:
            return
        if delta >= 0:
            proclet.heap_alloc(delta)
        else:
            proclet.heap_free(min(-delta, proclet.heap_bytes))

    def _refresh_ranges(self) -> None:
        """Push the routing table's ranges down into the shard proclets,
        which enforce them at execution time (WrongShard on staleness)."""
        self.qs.runtime.reshard_ledger.note_table_change(self)
        for i, shard in enumerate(self.shards):
            proclet = self.qs.runtime._proclets.get(shard.ref.proclet_id)
            if proclet is None:
                continue
            lo = shard.lo
            proclet.range_lo = None if isinstance(lo, _Bottom) else lo
            proclet.range_hi = (self.shards[i + 1].lo
                                if i + 1 < len(self.shards) else None)

    def _bisect(self, key: Any) -> int:
        """Insertion point for *key* in the lo array (BOTTOM-aware)."""
        if isinstance(key, _Bottom):
            return 0
        lo_idx, hi_idx = 0, len(self._los)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            entry = self._los[mid]
            if isinstance(entry, _Bottom) or entry < key:
                lo_idx = mid + 1
            else:
                hi_idx = mid
        return lo_idx

    def _shard_index_for(self, key: Any) -> int:
        """Index of the shard covering *key*."""
        idx = self._bisect(key)
        if idx < len(self._los) and not isinstance(key, _Bottom) \
                and self._los[idx] == key:
            return idx
        return max(0, idx - 1)

    # -- routing ------------------------------------------------------------------
    def route(self, key: Any) -> ProcletRef:
        """The shard ref whose range covers *key*."""
        return self.shards[self._shard_index_for(key)].ref

    call_routed = routed_call

    def shard_covering(self, key: Any) -> Tuple[ProcletRef, Any]:
        """``(shard_ref, range_end)`` — the prefetcher's routing query.

        ``range_end`` is the next shard's lower bound, or ``inf`` for the
        last shard.
        """
        idx = self._shard_index_for(key)
        end = (self.shards[idx + 1].lo if idx + 1 < len(self.shards)
               else float("inf"))
        return self.shards[idx].ref, end

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def live_shards(self) -> List[Tuple[Shard, Any]]:
        """``(shard, proclet)`` for every shard whose proclet is live: a
        shard lost with its machine holds nothing until recovered."""
        live = self.qs.runtime._proclets.get
        return [(shard, proclet) for shard in self.shards
                if (proclet := live(shard.ref.proclet_id)) is not None]

    @property
    def total_bytes(self) -> float:
        return sum(self.shard_bytes(p) for _s, p in self.live_shards())

    @property
    def total_objects(self) -> int:
        return sum(p.object_count for _s, p in self.live_shards())

    def shard_machines(self):
        """Multiset of machines hosting shards (placement diagnostics)."""
        return [s.ref.machine for s in self.shards]

    # -- reshard hooks (the protocol: repro.autoscale.reshard) ----------------------
    def wants_merge(self, proclet_id: int) -> bool:
        """Policy hook: may this undersized shard merge into a neighbour?"""
        idx = self._find_by_id(proclet_id)
        if idx is None or len(self.shards) < 2:
            return False
        neighbour = self._merge_partner(idx)
        if neighbour is None:
            return False
        try:
            combined = (self.shard_bytes(self.shards[idx].proclet)
                        + self.shard_bytes(neighbour.proclet))
        except DeadProclet:
            # The partner is lost to a machine failure (possibly
            # awaiting recovery): there is nothing to merge into.
            return False
        return policy.merge_fits(combined, self.max_shard_bytes)

    def _publish_split(self, shard: Shard, split_key: Any,
                       child_ref: ProcletRef) -> None:
        self._insert_shard(Shard(lo=split_key, ref=child_ref))

    def _publish_merge(self, shard: Shard, partner: Shard) -> None:
        # The survivor absorbs the merged shard's range: when the merged
        # shard sat to the survivor's LEFT (including the BOTTOM shard),
        # the survivor inherits its lower bound.
        shard_idx = self.shards.index(shard)
        partner_idx = self.shards.index(partner)
        if shard_idx < partner_idx:
            partner.lo = shard.lo
            self._los[partner_idx] = shard.lo
        self._remove_shard(shard)

    # -- teardown -----------------------------------------------------------------------
    def destroy(self) -> None:
        """Destroy every shard and the index proclet."""
        for shard in list(self.shards):
            self._remove_shard(shard)
            self.qs.runtime.destroy(shard.ref)
        self.qs.runtime.destroy(self.index_ref)
        self.qs.runtime.reshard_ledger.untrack(self)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"shards={len(self.shards)} bytes={self.total_bytes:.0f}>")
