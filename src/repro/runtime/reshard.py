"""Reshard ledger: runtime-level bookkeeping for shard split/merge.

Every structural change to a sharded data structure runs through the
one two-phase protocol in :mod:`repro.autoscale.reshard` — whoever
asked for it: the heap-change size controller, the autoscaler loop,
the sharded store's size trigger or an experiment script — and that
protocol registers a :class:`ReshardOp` here for the op's whole
lifetime.  The ledger is what makes resharding *auditable*: the chaos
invariant checker runs after every simulator event and needs to
distinguish a child proclet that is mid-handoff (spawned but not yet
published in its structure's routing table) from a genuinely orphaned
one, and an aborted operation that rolled back cleanly from one that
leaked state.

The module is deliberately dependency-free within the runtime package
(no proclet/machine imports) so that both :mod:`repro.runtime.runtime`
and the higher layers (:mod:`repro.ds`, :mod:`repro.autoscale`) can use
it without import cycles.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set


class ReshardPhase(enum.Enum):
    """Lifecycle of one reshard operation.

    ``PREPARE``  — child spawned / survivor chosen; data moving; the old
                   routing table is still authoritative (dual-route
                   window: the parent answers, the child exists).
    ``COMMIT``   — the atomic range-map flip.  Entered and left without
                   yielding to the simulator, so no observer ever sees a
                   half-flipped table.
    ``CLEANUP``  — post-flip teardown (retiring the donor shard,
                   releasing gates).  The new table is authoritative.
    ``DONE``     — completed; removed from the active set.
    ``ABORTED``  — rolled back; the pre-op table is authoritative and
                   any spawned child has been destroyed or disowned.
    """

    PREPARE = "prepare"
    COMMIT = "commit"
    CLEANUP = "cleanup"
    DONE = "done"
    ABORTED = "aborted"


#: Phases during which an op is still in flight.
_ACTIVE_PHASES = (ReshardPhase.PREPARE, ReshardPhase.COMMIT,
                  ReshardPhase.CLEANUP)


class ReshardOp:
    """One split or merge, tracked from first side effect to settlement."""

    __slots__ = ("op_id", "kind", "structure", "parent_id", "child_id",
                 "phase", "started_at", "phase_at", "settled_at",
                 "abort_reason")

    def __init__(self, op_id: int, kind: str, structure: Any,
                 parent_id: int, now: float):
        self.op_id = op_id
        self.kind = kind                  # "split" | "merge"
        self.structure = structure        # the owning ShardedBase (or None)
        self.parent_id = parent_id        # donor shard's proclet id
        self.child_id: Optional[int] = None
        self.phase = ReshardPhase.PREPARE
        self.started_at = now
        self.phase_at = now               # entry time of current phase
        self.settled_at: Optional[float] = None
        self.abort_reason: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.phase in _ACTIVE_PHASES

    def __repr__(self) -> str:
        return (f"<ReshardOp #{self.op_id} {self.kind} "
                f"parent={self.parent_id} child={self.child_id} "
                f"{self.phase.value}>")


class ReshardLedger:
    """Registry of in-flight reshard operations and tracked structures.

    Invariant-checker contract (see ``chaos/invariants.py``):

    * a live shard proclet that is absent from its structure's routing
      table is legal only while :meth:`protects_child` is true for it;
    * :meth:`structures` enumerates every live sharded structure so the
      checker can prove routable-keys-always and range-map/locator
      agreement after *every* simulator event, including mid-abort.
    """

    def __init__(self, sim):
        self.sim = sim
        self._next_op = 0
        self._active: Dict[int, ReshardOp] = {}
        self._structures: List[Any] = []
        # Monotonic counters, read by metrics.record_autoscale_stats and
        # the chaos digest.
        self.counters: Dict[str, int] = {
            "split_started": 0, "split_committed": 0, "split_aborted": 0,
            "merge_started": 0, "merge_committed": 0, "merge_aborted": 0,
        }

    # -- structure tracking -------------------------------------------------
    def track(self, structure: Any) -> None:
        if structure not in self._structures:
            self._structures.append(structure)

    def untrack(self, structure: Any) -> None:
        try:
            self._structures.remove(structure)
        except ValueError:
            pass

    def structures(self) -> List[Any]:
        return list(self._structures)

    # -- operation lifecycle ------------------------------------------------
    def begin(self, kind: str, structure: Any,
              parent_id: int) -> ReshardOp:
        if kind not in ("split", "merge"):
            raise ValueError(f"unknown reshard kind {kind!r}")
        op = ReshardOp(self._next_op, kind, structure, parent_id,
                       self.sim.now)
        self._next_op += 1
        self._active[op.op_id] = op
        self.counters[f"{kind}_started"] += 1
        return op

    def add_child(self, op: ReshardOp, child_id: int) -> None:
        """Record the spawned child (split) or survivor (merge)."""
        op.child_id = child_id

    def advance(self, op: ReshardOp, phase: ReshardPhase) -> None:
        """Move *op* to a later active phase (PREPARE→COMMIT→CLEANUP)."""
        if not op.active:
            raise ValueError(f"{op!r} already settled")
        op.phase = phase
        op.phase_at = self.sim.now

    def complete(self, op: ReshardOp) -> None:
        """Settle *op* as committed; idempotent once settled."""
        if not op.active:
            return
        op.phase = ReshardPhase.DONE
        op.settled_at = self.sim.now
        self._active.pop(op.op_id, None)
        self.counters[f"{op.kind}_committed"] += 1

    def abort(self, op: ReshardOp, reason: str) -> None:
        """Settle *op* as rolled back; idempotent once settled."""
        if not op.active:
            return
        op.phase = ReshardPhase.ABORTED
        op.abort_reason = reason
        op.settled_at = self.sim.now
        self._active.pop(op.op_id, None)
        self.counters[f"{op.kind}_aborted"] += 1

    # -- queries (invariant checker / metrics) ------------------------------
    def active_ops(self) -> List[ReshardOp]:
        return list(self._active.values())

    def active_count(self) -> int:
        return len(self._active)

    def active_for_structure(self, structure: Any) -> List[ReshardOp]:
        return [op for op in self._active.values()
                if op.structure is structure]

    def protects_child(self, proclet_id: int) -> bool:
        """Is *proclet_id* the child/survivor of an in-flight op?  While
        true, the proclet may legally be live yet unrouted."""
        return any(op.child_id == proclet_id or op.parent_id == proclet_id
                   for op in self._active.values())

    def protected_ids(self) -> Set[int]:
        ids: Set[int] = set()
        for op in self._active.values():
            ids.add(op.parent_id)
            if op.child_id is not None:
                ids.add(op.child_id)
        return ids

    def __repr__(self) -> str:
        return (f"<ReshardLedger active={len(self._active)} "
                f"structures={len(self._structures)}>")
