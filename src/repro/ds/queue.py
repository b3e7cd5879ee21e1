"""Sharded queue (§3.2, §4): the producer/consumer coupling element.

The Fig. 2/3 pipeline connects CPU preprocessing (producers) to GPU
training (consumers) through this queue.  Elements live in queue-shard
memory proclets that charge DRAM for buffered data, so the queue can
"absorb bursts in producer output by storing it in memory proclets that
can split and migrate" (§4).  Ordering is FIFO per shard; global order is
relaxed, as usual for distributed queues.
"""

from __future__ import annotations

import collections
from typing import Any, Deque, Generator, List, Optional, Tuple

from ..autoscale.reshard import ReshardHooks
from ..cluster import Machine
from ..runtime import Payload, ProcletStatus
from ..units import US
from ..core.resource import ResourceKind, ResourceProclet

_OP_CPU = 0.2 * US
_EMPTY = object()


class QueueShardProclet(ResourceProclet):
    """One FIFO shard of a sharded queue (a memory-kind proclet)."""

    kind = ResourceKind.MEMORY

    def __init__(self):
        super().__init__()
        self._items: Deque[Tuple[float, Any]] = collections.deque()

    @property
    def length(self) -> int:
        return len(self._items)

    # -- proclet methods -----------------------------------------------------
    def qp_push(self, ctx, nbytes: float, value: Any):
        yield ctx.cpu(_OP_CPU)
        ctx.alloc(nbytes)
        self._items.append((float(nbytes), value))
        owner = self.shard_owner
        if owner is not None:
            owner._note_push()

    def qp_pop(self, ctx):
        """Pop the oldest element, or the EMPTY sentinel."""
        yield ctx.cpu(_OP_CPU)
        if not self._items:
            return Payload(_EMPTY, nbytes=0.0)
        nbytes, value = self._items.popleft()
        self.heap_free(nbytes)
        owner = self.shard_owner
        if owner is not None:
            owner._note_pop()
        return Payload(value, nbytes=nbytes)

    def qp_len(self, ctx):
        yield ctx.cpu(_OP_CPU)
        return len(self._items)

    # -- split/merge primitives (queue-specific, §3.3) --------------------------
    @property
    def object_count(self) -> int:
        return len(self._items)

    def extract_back_half(self) -> Tuple[List[Tuple[float, Any]], float]:
        n = len(self._items) // 2
        moved = [self._items.pop() for _ in range(n)]
        moved.reverse()
        total = sum(nbytes for nbytes, _v in moved)
        if total > 0:
            self.heap_free(total)
        return moved, total

    def extract_all(self) -> Tuple[List[Tuple[float, Any]], float]:
        moved = list(self._items)
        self._items.clear()
        total = sum(nbytes for nbytes, _v in moved)
        if total > 0:
            self.heap_free(total)
        return moved, total

    def install(self, items: List[Tuple[float, Any]]) -> None:
        total = sum(nbytes for nbytes, _v in items)
        if total > 0:
            self.heap_alloc(total)
        self._items.extend(items)


class ShardedQueue(ReshardHooks):
    """Multi-shard FIFO connecting pipeline stages."""

    def __init__(self, qs, name: str = "queue", initial_shards: int = 1,
                 machines: Optional[List[Machine]] = None):
        if initial_shards < 1:
            raise ValueError("a queue needs at least one shard")
        self.qs = qs
        self.name = name
        self.shards: List = []
        self.pushed = 0
        self.popped = 0
        #: Times a consumer found the queue empty and had to block —
        #: the "downstream is starving" signal for the autoscaler (§3.3).
        self.waits = 0
        self._rr_push = 0
        self._rr_pop = 0
        self._waiters: List = []
        self._initial_shards = initial_shards
        for i in range(initial_shards):
            machine = machines[i % len(machines)] if machines else None
            self._add_shard(machine)
        qs.runtime.reshard_ledger.track(self)

    # -- shard management ---------------------------------------------------
    def _add_shard(self, machine: Optional[Machine] = None):
        proclet = QueueShardProclet()
        proclet.shard_owner = self
        ref = self.qs.spawn(proclet, machine,
                            name=f"{self.name}.q{len(self.shards)}")
        self.shards.append(ref)
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.register(ref, self)
        return ref

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def length(self) -> int:
        return self.pushed - self.popped

    # -- producer side ----------------------------------------------------------
    def push(self, value: Any, nbytes: float, ctx=None):
        """Enqueue one element; returns the completion event.

        Producers inside proclets push to a shard on their own machine
        when one exists (locality); otherwise round-robin.  A shard
        merged away between routing and execution is retried against the
        current shard list (stale-routing semantics, as for the map).
        """
        from ..runtime import DeadProclet

        def attempt():
            last_exc = None
            for _try in range(8):
                ref = self._pick_push_shard(ctx)
                ev = (ctx.call(ref, "qp_push", nbytes, value,
                               req_bytes=nbytes)
                      if ctx is not None
                      else ref.call("qp_push", nbytes, value))
                try:
                    return (yield ev)
                except DeadProclet as exc:
                    last_exc = exc
            raise last_exc

        return self.qs.sim.process(attempt(), name=f"{self.name}.push")

    @staticmethod
    def _routable(ref):
        """The shard's live proclet, or None while it is lost to a
        machine failure (awaiting recovery) — routing must skip it
        rather than crash; the invocation layer handles retries."""
        from ..runtime import DeadProclet

        try:
            proclet = ref.proclet
        except DeadProclet:
            return None
        return None if proclet.status is ProcletStatus.DEAD else proclet

    def _pick_push_shard(self, ctx):
        live = [s for s in self.shards if self._routable(s) is not None]
        candidates = live or self.shards
        if ctx is not None and live:
            local = [s for s in live if s.machine is ctx.machine]
            if local:
                return min(local, key=lambda s: s.proclet.length)
        ref = candidates[self._rr_push % len(candidates)]
        self._rr_push += 1
        return ref

    def _note_push(self) -> None:
        self.pushed += 1
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def _note_pop(self) -> None:
        self.popped += 1

    # -- consumer side -------------------------------------------------------------
    def pop(self, ctx=None):
        """Dequeue one element, waiting if the queue is empty.

        Returns a process event whose value is the element.
        """
        return self.qs.sim.process(self._pop_proc(ctx),
                                   name=f"{self.name}.pop")

    def _pop_proc(self, ctx) -> Generator:
        from ..runtime import DeadProclet

        while True:
            # Scan shards round-robin, preferring the local one.
            order = self._pop_order(ctx)
            for ref in order:
                ev = (ctx.call(ref, "qp_pop") if ctx is not None
                      else ref.call("qp_pop"))
                try:
                    value = yield ev
                except DeadProclet:
                    continue  # shard merged away mid-scan; move on
                if value is not _EMPTY:
                    return value
            # All empty: block until a push lands anywhere.
            self.waits += 1
            waiter = self.qs.sim.event()
            self._waiters.append(waiter)
            yield waiter

    def _pop_order(self, ctx):
        shards = [s for s in self.shards if self._routable(s) is not None]
        nonempty = [s for s in shards if s.proclet.length > 0]
        candidates = nonempty or shards
        if ctx is not None:
            candidates = sorted(
                candidates, key=lambda s: s.machine is not ctx.machine)
        else:
            self._rr_pop += 1
            k = self._rr_pop % max(1, len(candidates))
            candidates = candidates[k:] + candidates[:k]
        return candidates

    def try_pop(self, ctx=None):
        """Non-blocking pop: event value is the element or ``None``."""
        return self.qs.sim.process(self._try_pop_proc(ctx),
                                   name=f"{self.name}.try_pop")

    def _try_pop_proc(self, ctx) -> Generator:
        from ..runtime import DeadProclet

        for ref in self._pop_order(ctx):
            ev = (ctx.call(ref, "qp_pop") if ctx is not None
                  else ref.call("qp_pop"))
            try:
                value = yield ev
            except DeadProclet:
                continue
            if value is not _EMPTY:
                return value
        return None

    # -- reshard hooks (oversize queue shards split, §4) ------------------------
    # Queue shards have no key ranges: a split moves the back half of the
    # FIFO to a new shard, a merge appends the donor's items to its
    # partner, and the shard list holds bare refs.
    def wants_merge(self, proclet_id: int) -> bool:
        if len(self.shards) <= self._initial_shards:
            return False
        idx = self._find_by_id(proclet_id)
        return idx is not None and self.shards[idx].proclet.length == 0

    def _shard_ref(self, shard):
        return shard

    def _merge_partner(self, idx: int):
        if len(self.shards) <= self._initial_shards:
            return None
        return super()._merge_partner(idx)

    def _carve(self, src):
        items, nbytes = src.extract_back_half()
        return None, items, nbytes

    def _publish_split(self, shard, split_key, child_ref) -> None:
        self.shards.append(child_ref)
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.register(child_ref, self)

    def _publish_merge(self, shard, partner) -> None:
        self.shards.remove(shard)
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.unregister(shard)

    def destroy(self) -> None:
        for ref in list(self.shards):
            if self.qs.shard_controller is not None:
                self.qs.shard_controller.unregister(ref)
            self.qs.runtime.destroy(ref)
        self.shards.clear()
        self.qs.runtime.reshard_ledger.untrack(self)

    def __repr__(self) -> str:
        return (f"<ShardedQueue {self.name!r} shards={len(self.shards)} "
                f"len={self.length}>")
