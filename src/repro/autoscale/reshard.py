"""The split/merge protocol: two-phase, crash-safe, journaled.

Every shard split and merge in the system (§3.3) runs here, whatever
the structure (map, vector, queue, store) and whoever asked (the
:class:`~repro.autoscale.ShardAutoscaler` loop, the paper's heap-change
:class:`~repro.core.splitmerge.ShardSizeController`, the store's own
size trigger, or a test).  Callers use ``ds.reshard_split_by_id`` /
``ds.reshard_merge_by_id``; each structure mixes in
:class:`ReshardHooks` and supplies only what differs by shape.

``PREPARE``
    Gate the donor shard (reusing the migration-gate mechanism, so
    callers block rather than fail), carve off the moving half, spawn
    the child *gated* on a health-eligible machine, and move the bytes.
    The old routing table stays authoritative throughout — this is the
    dual-route window, accounted against
    :meth:`MigrationEngine.note_gate_window` so tests can prove no key
    was unroutable for longer than one migration gate.

``COMMIT``
    The atomic routing flip: publish the child (split) or retire the
    donor (merge).  No simulator yield separates the table update from
    the range push-down, so no observer — the chaos invariant checker
    runs after *every* event — ever sees a half-flipped table.

``CLEANUP``
    Open the gates, retire the donor proclet (merge), settle the
    ledger op.

A ``MachineFailed`` at any yield point rolls back explicitly: the donor
reinstalls its items and reopens (if it survived), a spawned child is
destroyed, and the op is recorded as aborted in the runtime's
:class:`~repro.runtime.reshard.ReshardLedger` — the old shard stays
authoritative, which the chaos invariants verify after every event.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ..runtime.errors import MachineFailed
from ..runtime.proclet import ProcletStatus
from ..runtime.reshard import ReshardPhase


class ReshardHooks:
    """The structure-specific half of the protocol.

    A host class provides ``qs``, ``name`` and ``shards`` (its routing
    table) and implements :meth:`_publish_split` and
    :meth:`_publish_merge`.  The other hooks default to range-sharded
    DRAM shards (maps, vectors); the queue and the store override what
    differs.  Shard proclets provide ``object_count``,
    ``install(items)`` and ``extract_all()``.
    """

    qs: Any
    name: str
    shards: List[Any]

    def reshard_split_by_id(self, proclet_id: int):
        """Split the named shard; returns the completion event (value
        ``(split_key, child_ref)``, or ``None`` when declined or rolled
        back), or ``None`` when the shard is unknown."""
        idx = self._find_by_id(proclet_id)
        if idx is None:
            return None
        return self.qs.sim.process(_split_proc(self, self.shards[idx]),
                                   name=f"reshard-split:{self.name}")

    def reshard_merge_by_id(self, proclet_id: int):
        """Merge the named shard into its partner; returns the
        completion event (value ``True`` or ``None``), or ``None`` when
        there is nothing to merge."""
        idx = self._find_by_id(proclet_id)
        if idx is None or len(self.shards) < 2:
            return None
        partner = self._merge_partner(idx)
        if partner is None:
            return None
        return self.qs.sim.process(
            _merge_proc(self, self.shards[idx], partner),
            name=f"reshard-merge:{self.name}")

    # -- hooks ----------------------------------------------------------------
    def _shard_ref(self, shard):
        """The proclet ref of one routing-table entry."""
        return shard.ref

    def _find_by_id(self, proclet_id: int) -> Optional[int]:
        for i, shard in enumerate(self.shards):
            if self._shard_ref(shard).proclet_id == proclet_id:
                return i
        return None

    def _merge_partner(self, idx: int):
        """Prefer the left neighbour (keeps ranges contiguous)."""
        if idx > 0:
            return self.shards[idx - 1]
        if idx + 1 < len(self.shards):
            return self.shards[idx + 1]
        return None

    def _carve(self, src) -> Tuple[Any, list, float]:
        """Remove the moving half from *src*:
        ``(split_key, items, nbytes)``."""
        split_key = src.split_point()
        items, nbytes = src.extract_upper(split_key)
        return split_key, items, nbytes

    def _place_child(self, child, nbytes: float):
        """The machine to host *child* with *nbytes* of data, or None."""
        need = nbytes + child.BASE_FOOTPRINT
        # With recovery enabled best_for_memory only considers machines
        # the failure detector holds ALIVE.
        dst = self.qs.placement.best_for_memory(need)
        if dst is None or not dst.memory.can_fit(need):
            return None
        return dst

    def _merge_fits(self, src, dst) -> bool:
        """May survivor *dst* absorb donor *src*?"""
        return dst.machine.memory.can_fit(src.heap_bytes)

    def _move(self, src, dst, nbytes: float, name: str) -> Generator:
        """Ship *nbytes* of shard data from machine *src* to *dst*."""
        if dst is not src and nbytes > 0:
            yield self.qs.cluster.fabric.transfer(src, dst, nbytes,
                                                  name=name)

    def _publish_split(self, shard, split_key, child_ref) -> None:
        """COMMIT of a split: route ``[split_key, ...)`` to the child."""
        raise NotImplementedError

    def _publish_merge(self, shard, partner) -> None:
        """COMMIT of a merge: *partner* takes over *shard*'s range."""
        raise NotImplementedError


def _sizing_owner(qs) -> dict:
    """The trace line's ``driver`` field: which controller owns shard
    sizing (the chaos digests hash these lines)."""
    return {"driver": "autoscale" if qs.autoscaler is not None
            else "heap-change"}


def _split_proc(ds, shard) -> Generator:
    qs = ds.qs
    sim = qs.sim
    runtime = qs.runtime
    ledger = runtime.reshard_ledger
    src = runtime._proclets.get(ds._shard_ref(shard).proclet_id)
    if src is None or src.status is not ProcletStatus.RUNNING \
            or src.object_count < 2:
        return None

    op = ledger.begin("split", ds, src.id)
    tr = sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("reshard", f"split {src.name}",
                        track=f"proclet:{src.name}", kind="split")
    m = qs.metrics

    def abort(reason: str, outcome: str):
        ledger.abort(op, reason)
        if m is not None:
            m.count("autoscale.reshard.split.abort")
        if tr is not None:
            tr.end(span, outcome=outcome)
        return None

    gate_t0 = sim.now
    gate = qs._block(src)

    def close_gate_window():
        runtime.migration.note_gate_window("reshard.split",
                                           sim.now - gate_t0)

    # -- PREPARE ------------------------------------------------------------
    yield sim.timeout(qs.config.split_overhead)
    if src.status is not ProcletStatus.MIGRATING:
        # The source machine failed while we held the gate: the fail
        # path marked the proclet DEAD and opened the gate.  The old
        # (now lost) shard stays in the table for recovery to handle.
        return abort("source machine failed in prepare", "machine-failed")
    if src.object_count < 2:
        qs._unblock(src, gate)
        close_gate_window()
        return abort("stale: shard shrank below two keys", "stale")

    split_key, items, nbytes = ds._carve(src)
    child = type(src)()
    child.shard_owner = ds
    dst = ds._place_child(child, nbytes)
    if dst is None:
        src.install(items)  # rollback: nowhere to put the moving half
        qs._unblock(src, gate)
        close_gate_window()
        return abort("no room for the child shard", "no-room")

    child_ref = runtime.spawn(child, dst, name=f"{src.name}.hi")
    ledger.add_child(op, child_ref.proclet_id)
    # The child stays gated (dark) until commit: nothing can observe it
    # half-filled, and a concurrent controller cannot merge it away.
    child_gate = qs._block(child)

    def rollback_to_parent(reason: str):
        if child.status is not ProcletStatus.DEAD:
            qs._unblock(child, child_gate)
            runtime.destroy(child_ref)
        if src.status is not ProcletStatus.DEAD:
            src.install(items)
            qs._unblock(src, gate)
            close_gate_window()
        return abort(reason, "machine-failed")

    try:
        yield from ds._move(src.machine, dst, nbytes,
                            f"reshard:{src.name}")
    except MachineFailed:
        return rollback_to_parent("machine failed during transfer")
    if src.status is not ProcletStatus.MIGRATING \
            or child.status is not ProcletStatus.MIGRATING:
        return rollback_to_parent("endpoint died during transfer")
    child.install(items)

    # -- COMMIT (atomic: no yields until the gates reopen) ------------------
    ledger.advance(op, ReshardPhase.COMMIT)
    ds._publish_split(shard, split_key, child_ref)
    qs.splits += 1
    if m is not None:
        m.count(f"quicksand.splits.{src.kind.value}")
        m.count("autoscale.reshard.split.commit")

    # -- CLEANUP ------------------------------------------------------------
    ledger.advance(op, ReshardPhase.CLEANUP)
    qs._unblock(child, child_gate)
    qs._unblock(src, gate)
    close_gate_window()
    ledger.complete(op)
    runtime.tracer.emit(
        "reshard", f"split {src.name} at {split_key!r} -> {child.name}",
        moved_bytes=int(nbytes), dst=dst.name, **_sizing_owner(qs))
    if tr is not None:
        tr.end(span, moved_bytes=int(nbytes), dst=dst.name,
               new=child.name)
    return split_key, child_ref


def _merge_proc(ds, shard, partner) -> Generator:
    qs = ds.qs
    sim = qs.sim
    runtime = qs.runtime
    ledger = runtime.reshard_ledger
    donor_ref = ds._shard_ref(shard)
    src = runtime._proclets.get(donor_ref.proclet_id)       # merging away
    dst = runtime._proclets.get(ds._shard_ref(partner).proclet_id)
    if src is None or dst is None or src is dst:
        return None
    if src.status is not ProcletStatus.RUNNING \
            or dst.status is not ProcletStatus.RUNNING:
        return None
    if not ds._merge_fits(src, dst):
        return None

    op = ledger.begin("merge", ds, src.id)
    ledger.add_child(op, dst.id)
    tr = sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("reshard", f"merge {src.name} -> {dst.name}",
                        track=f"proclet:{dst.name}", kind="merge")
    m = qs.metrics

    def abort(reason: str, outcome: str):
        ledger.abort(op, reason)
        if m is not None:
            m.count("autoscale.reshard.merge.abort")
        if tr is not None:
            tr.end(span, outcome=outcome)
        return None

    gate_t0 = sim.now
    src_gate = qs._block(src)
    dst_gate = qs._block(dst)

    def close_gate_window():
        runtime.migration.note_gate_window("reshard.merge",
                                           sim.now - gate_t0)

    def unblock_survivors(reinstall: bool):
        if reinstall and src.status is ProcletStatus.MIGRATING:
            src.install(items)
        if src.status is ProcletStatus.MIGRATING:
            qs._unblock(src, src_gate)
        if dst.status is ProcletStatus.MIGRATING:
            qs._unblock(dst, dst_gate)
        close_gate_window()

    # -- PREPARE ------------------------------------------------------------
    items = []
    yield sim.timeout(qs.config.split_overhead)
    if src.status is not ProcletStatus.MIGRATING \
            or dst.status is not ProcletStatus.MIGRATING:
        # An endpoint's machine failed while gated.  A dead donor's
        # items died with it (fail-stop); a dead survivor just means the
        # merge never happened.  Either way the table is untouched.
        unblock_survivors(reinstall=False)
        return abort("endpoint machine failed in prepare", "machine-failed")

    items, nbytes = src.extract_all()
    try:
        yield from ds._move(src.machine, dst.machine, nbytes,
                            f"reshard:{src.name}")
    except MachineFailed:
        unblock_survivors(reinstall=True)
        return abort("machine failed during transfer", "machine-failed")
    if src.status is not ProcletStatus.MIGRATING \
            or dst.status is not ProcletStatus.MIGRATING:
        unblock_survivors(reinstall=True)
        return abort("endpoint died during transfer", "machine-failed")
    dst.install(items)

    # -- COMMIT (atomic routing flip) ---------------------------------------
    ledger.advance(op, ReshardPhase.COMMIT)
    ds._publish_merge(shard, partner)
    qs.merges += 1
    if m is not None:
        m.count(f"quicksand.merges.{src.kind.value}")
        m.count("autoscale.reshard.merge.commit")

    # -- CLEANUP ------------------------------------------------------------
    ledger.advance(op, ReshardPhase.CLEANUP)
    qs._unblock(dst, dst_gate)
    qs._unblock(src, src_gate)
    close_gate_window()
    runtime.destroy(donor_ref)
    ledger.complete(op)
    runtime.tracer.emit(
        "reshard", f"merge {src.name} -> {dst.name}",
        moved_bytes=int(nbytes), **_sizing_owner(qs))
    if tr is not None:
        tr.end(span, moved_bytes=int(nbytes))
    return True
