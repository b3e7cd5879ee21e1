"""The recovery manager: policies, checkpoints, standbys, self-healing.

One :class:`RecoveryManager` per :class:`~repro.core.Quicksand` (created
by ``qs.enable_recovery()``) owns the whole fault-tolerance control
loop:

* a :class:`~repro.ft.detector.FailureDetector` walks crashed machines
  through suspected -> confirmed-dead (placement avoids suspected
  machines via the policy's health gate);
* per-proclet :class:`~repro.ft.config.RecoveryPolicy` registrations
  drive periodic checkpoint copies (NIC + peer-DRAM costs through the
  fluid engine) and hot-standby write mirroring;
* on confirmed death, lost proclets are respawned through the existing
  placement machinery (same id — outstanding refs transparently rebind),
  their state restored per policy, and ``ProcletLost``-blocked callers
  are woken by the runtime's budgeted transparent retry;
* when post-crash capacity cannot host a recovering proclet, registered
  lower-priority proclets are shed to make room.

Modeling note (see ``docs/recovery.md``): CHECKPOINT restores from
*genuinely captured* snapshots, so its bounded data loss is real.
REPLICATE charges mirroring costs continuously but reads the promoted
content from the dead proclet's simulation object (a standby that
mirrored every write holds exactly that state); LINEAGE re-derives
state by replaying its log through real invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..cluster import Machine, OutOfMemory, Priority
from ..runtime import (DeadProclet, InvalidPlacement, MachineFailed, Proclet,
                       ProcletRef, ProcletStatus)
from .config import RecoveryConfig, RecoveryPolicy
from .detector import FailureDetector
from .lineage import LineageLog

#: Heap-byte tolerance for convergence checks (footprints are floats).
_BYTE_EPS = 1.0


@dataclass
class _Protection:
    """Registration record for one protected proclet id."""

    policy: RecoveryPolicy
    priority: Priority
    lineage: Optional[LineageLog]


@dataclass
class _Snapshot:
    """One stored checkpoint: state + where its bytes are held."""

    state: Any
    nbytes: float
    peer: Machine
    peer_incarnation: int
    taken_at: float

    def valid(self) -> bool:
        return self.peer.up and self.peer.incarnation == \
            self.peer_incarnation


class StandbyProclet(Proclet):
    """Hot-standby ballast mirroring a REPLICATE primary's heap.

    A real (spawned, located, DRAM-charged) proclet, so every existing
    accounting invariant covers standby memory for free.
    """

    def __init__(self, primary_name: str = ""):
        super().__init__()
        self.primary_name = primary_name


class RecoveryManager:
    """Self-healing control loop over a Quicksand runtime."""

    def __init__(self, qs, config: RecoveryConfig = RecoveryConfig()):
        self.qs = qs
        self.runtime = qs.runtime
        self.sim = qs.sim
        self.metrics = qs.metrics
        self.config = config
        self.detector = FailureDetector(qs.cluster, config,
                                        metrics=qs.metrics,
                                        runtime=qs.runtime)
        self._specs: Dict[int, _Protection] = {}
        # Crash bookkeeping, filled synchronously at fail_machine time:
        self._corpses: Dict[int, Proclet] = {}
        # Pids with an in-flight restore: the split/merge controller
        # must not merge away a transiently-empty incarnation that a
        # replay or checkpoint install is still refilling.
        self._restoring: Set[int] = set()
        self._crash_time: Dict[int, float] = {}
        self._lost_host: Dict[int, Machine] = {}
        self._death_state: Dict[int, Tuple[Any, float]] = {}
        # CHECKPOINT: pid -> stored snapshot / in-flight reservation.
        self._snapshots: Dict[int, _Snapshot] = {}
        self._pending: Dict[int, Tuple[Machine, float, int]] = {}
        #: Authoritative total of checkpoint bytes currently reserved on
        #: live peers — the byte-conservation invariant cross-checks the
        #: per-machine view against this.
        self.checkpoint_bytes_held = 0.0
        # REPLICATE: primary pid -> standby ref, and the reverse map.
        self._standbys: Dict[int, ProcletRef] = {}
        self._standby_of: Dict[int, int] = {}
        self._dirty: Dict[int, float] = {}
        self._last_heap: Dict[int, float] = {}
        # Outcomes.
        self.recoveries: Dict[str, int] = {}
        self.failed_recoveries = 0
        self.sheds = 0
        #: Convergence violations (recovered state != expected state);
        #: the chaos invariant checker fails the run on any entry.
        self.convergence_errors: List[str] = []

        self.runtime.recovery = self
        self.runtime.on_machine_failure(self._on_machine_failure)
        self.runtime.on_heap_change(self._on_heap_change)
        self.detector.on_confirm(self._on_confirmed_dead)

    # -- registration ---------------------------------------------------------
    def protect(self, ref: ProcletRef, policy: RecoveryPolicy,
                priority: Priority = Priority.NORMAL,
                lineage: Optional[LineageLog] = None) -> "RecoveryManager":
        """Register *ref* for recovery under *policy*.

        The replacement incarnation is the lost proclet's
        :meth:`~repro.runtime.Proclet.twin`: empty, and wired like it
        (shard owner, task source).  LINEAGE requires a
        :class:`LineageLog` the application records mutations into.
        *priority* orders shedding: when post-crash capacity cannot host
        a recovering proclet, strictly lower-priority registrations are
        shed to make room.
        """
        proclet = self.runtime.get_proclet(ref.proclet_id)
        if policy is RecoveryPolicy.LINEAGE and lineage is None:
            raise ValueError("LINEAGE protection needs a LineageLog")
        spec = _Protection(policy=policy, priority=priority,
                           lineage=lineage)
        self._specs[ref.proclet_id] = spec
        if policy is RecoveryPolicy.CHECKPOINT:
            self.sim.spawn(self._checkpoint_loop(ref.proclet_id),
                           name=f"ft-ckpt:{proclet.name}")
        elif policy is RecoveryPolicy.REPLICATE:
            self._arm_standby(ref.proclet_id, proclet)
            self.sim.spawn(self._mirror_loop(ref.proclet_id),
                           name=f"ft-mirror:{proclet.name}")
        return self

    def unprotect(self, proclet_id: int) -> None:
        """Drop the registration (checkpoint/mirror loops exit on their
        next tick; held checkpoint bytes are released)."""
        self._specs.pop(proclet_id, None)
        self._drop_snapshot(proclet_id)
        standby = self._standbys.pop(proclet_id, None)
        if standby is not None:
            self._standby_of.pop(standby.proclet_id, None)
            if self.runtime._proclets.get(standby.proclet_id) is not None:
                self.runtime.destroy(standby)
        self._dirty.pop(proclet_id, None)
        self._last_heap.pop(proclet_id, None)

    def covers(self, proclet_id: int) -> bool:
        spec = self._specs.get(proclet_id)
        return spec is not None and spec.policy is not RecoveryPolicy.NONE

    # -- transparent-retry support (called by NuRuntime._invoke_proc) --------
    def retry_delay(self, proclet_id: int, attempt: int,
                    exc: BaseException) -> Optional[float]:
        """Backoff before the next transparent retry of a call that hit
        a lost proclet, or None to surface the failure (uncovered target
        or exhausted budget)."""
        if not self.covers(proclet_id):
            return None
        config = self.config
        if attempt >= config.retry_budget:
            return None
        delay = config.retry_backoff * \
            config.retry_backoff_multiplier ** attempt
        if config.retry_jitter > 0.0:
            rng = self.sim.random.stream("ft.retry")
            delay *= 1.0 + config.retry_jitter * rng.random()
        return delay

    # -- placement health / accounting (consumed by scheduler + chaos) -------
    def eligible(self, machine: Machine) -> bool:
        return self.detector.eligible(machine)

    def reserved_on(self, machine: Machine) -> float:
        """Bytes of *machine*'s DRAM held by stored or in-flight
        checkpoint snapshots (for the memory-conservation invariant).
        Standby heaps are ordinary proclet footprints and need no term.
        """
        return self.reserved_by_machine().get(machine.id, 0.0)

    def reserved_by_machine(self) -> Dict[int, float]:
        """:meth:`reserved_on` for every live peer holding checkpoint
        bytes, keyed by machine id, in one pass over the snapshots."""
        totals: Dict[int, float] = {}
        for peer, nbytes, inc in self._pending.values():
            if peer.up and inc == peer.incarnation:
                totals[peer.id] = totals.get(peer.id, 0.0) + nbytes
        for snap in self._snapshots.values():
            peer = snap.peer
            if peer.up and snap.peer_incarnation == peer.incarnation:
                totals[peer.id] = totals.get(peer.id, 0.0) + snap.nbytes
        return totals

    # -- crash bookkeeping (synchronous, from fail_machine) -------------------
    def _on_machine_failure(self, machine: Machine,
                            lost: List[Proclet]) -> None:
        now = self.sim.now
        for proclet in lost:
            pid = proclet.id
            primary = self._standby_of.pop(pid, None)
            if primary is not None:
                # A standby died; the mirror loop re-arms a fresh one.
                if self._standbys.get(primary) is not None and \
                        self._standbys[primary].proclet_id == pid:
                    del self._standbys[primary]
                continue
            self._corpses[pid] = proclet
            self._crash_time[pid] = now
            self._lost_host[pid] = machine
            spec = self._specs.get(pid)
            if spec is not None and spec.policy is RecoveryPolicy.REPLICATE:
                # Promotion content oracle: a standby that mirrored every
                # write holds exactly the death-time state.
                self._death_state[pid] = proclet.ft_capture()
        # Checkpoint bytes stored on the crashed machine are gone.
        for pid, snap in list(self._snapshots.items()):
            if snap.peer is machine:
                del self._snapshots[pid]
                self.checkpoint_bytes_held -= snap.nbytes
        for pid, (peer, nbytes, _inc) in list(self._pending.items()):
            if peer is machine:
                del self._pending[pid]
                self.checkpoint_bytes_held -= nbytes
        self.runtime._notify_reservation(machine)

    # -- recovery (triggered by detector confirmation) ------------------------
    def _on_confirmed_dead(self, machine: Machine) -> None:
        pids = sorted(pid for pid, host in self._lost_host.items()
                      if host is machine and self.covers(pid))
        if pids:
            self.sim.spawn(self._recover_proc(machine, pids),
                           name=f"ft-recover:{machine.name}")

    def _recover_proc(self, machine: Machine,
                      pids: List[int]) -> Generator:
        for pid in pids:
            spec = self._specs.get(pid)
            if spec is None or not self.runtime.is_lost(pid):
                continue  # unprotected meanwhile, or already recovered
            self._restoring.add(pid)
            self.runtime._notify_proclet_state(pid)
            try:
                yield from self._recover_one(pid, spec)
            except (MachineFailed, OutOfMemory, DeadProclet):
                # The chosen host (or a restore peer) died mid-recovery,
                # or filled up while the restore copy was in flight; a
                # new crash re-queues this pid for the next confirm.
                self.failed_recoveries += 1
                self.metrics.count("ft.failed_recoveries")
            finally:
                self._restoring.discard(pid)
                self.runtime._notify_proclet_state(pid)
                self._poke_splitmerge(pid)

    def restoring(self, proclet_id: int) -> bool:
        """True while *proclet_id*'s restore is still in flight."""
        return proclet_id in self._restoring

    def _poke_splitmerge(self, pid: int) -> None:
        """Re-run the split/merge sizing check it sat out while
        restoring (the controller skips ``restoring`` pids)."""
        controller = getattr(self.qs, "shard_controller", None)
        proclet = self.runtime._proclets.get(pid)
        if controller is not None and proclet is not None:
            controller._on_heap_change(proclet)

    def _recover_one(self, pid: int, spec: _Protection) -> Generator:
        config = self.config
        policy = spec.policy
        corpse = self._corpses[pid]
        name = corpse.name
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("ft-restore", f"restore {name}",
                            track=f"proclet:{name}", policy=policy.value)
        yield self.sim.timeout(config.restart_overhead)

        fresh = corpse.twin()
        restore_bytes, snap, standby = self._restore_plan(pid, spec)
        machine = self._pick_machine(fresh, restore_bytes, spec, standby)
        if machine is None:
            self.failed_recoveries += 1
            self.metrics.count("ft.failed_recoveries")
            if tr is not None:
                tr.end(span, outcome="no-capacity")
            return None

        if standby is not None and standby.machine is machine:
            # Promote in place: free the mirrored ballast, take over the
            # standby's machine (no state moves — it already lives here).
            self._standby_of.pop(standby.id, None)
            self._standbys.pop(pid, None)
            self.runtime.destroy(ProcletRef(self.runtime, standby.id,
                                            standby.name))
        ref = self.runtime.respawn(fresh, machine, pid, name=name)

        if policy is RecoveryPolicy.CHECKPOINT and snap is not None:
            if snap.peer is not machine:
                # Gate the incarnation while the snapshot is on the
                # wire: a transparently retried write landing before the
                # restore would be overwritten (or collide with) the
                # snapshot install.  Blocked callers resume — and see
                # restored state — once the gate opens.
                self.runtime.gate(fresh, "restore")
                try:
                    yield self.runtime.fabric.transfer(
                        snap.peer, machine, snap.nbytes,
                        name=f"ft-restore:{name}")
                finally:
                    self.runtime.ungate(fresh)
            if self.runtime._proclets.get(pid) is not fresh:
                # The new host crashed while the snapshot was on the
                # wire (a transfer only fails with its *source*; the
                # destination dying just wastes the copy).  Restoring
                # onto the corpse would charge a wiped DRAM ledger.
                raise MachineFailed(f"{name} died again mid-restore")
            fresh.ft_restore(snap.state)
            self._check_convergence(fresh, snap.nbytes, policy)
            self.metrics.observe(
                "ft.data_loss_bytes",
                max(0.0, corpse.heap_bytes - snap.nbytes))
        elif policy is RecoveryPolicy.REPLICATE:
            state, nbytes = self._death_state.pop(pid, (None, 0.0))
            if standby is not None and state is not None:
                fresh.ft_restore(state)
                self._check_convergence(fresh, nbytes, policy)
                self.metrics.observe("ft.data_loss_bytes", 0.0)
            # else: standby was lost too — empty respawn (RESTART-grade).
            self._arm_standby(pid, fresh)
        elif policy is RecoveryPolicy.LINEAGE:
            replay_span = None
            if tr is not None:
                replay_span = tr.begin("ft-replay", f"replay {name}",
                                       parent=span, track=f"proclet:{name}")
            yield from spec.lineage.replay(self.runtime, ref)
            if tr is not None:
                tr.end(replay_span,
                       ops=len(spec.lineage.ops_for(pid)))
            if self.runtime._proclets.get(pid) is fresh:
                self.convergence_errors.extend(spec.lineage.verify(fresh))
            # else: this incarnation died mid-replay; the recovery that
            # replaced it owns the authoritative replay + verify.
        # RESTART: nothing to restore.

        self._corpses.pop(pid, None)
        self._lost_host.pop(pid, None)
        crash_t = self._crash_time.pop(pid, None)
        self.recoveries[policy.value] = \
            self.recoveries.get(policy.value, 0) + 1
        self.metrics.count("ft.recoveries")
        self.metrics.count(f"ft.recoveries.{policy.value}")
        if crash_t is not None:
            self.metrics.observe("ft.mttr", self.sim.now - crash_t)
        if tr is not None:
            tr.end(span, machine=machine.name,
                   heap=int(fresh.heap_bytes))
        return ref

    def _restore_plan(self, pid, spec):
        """What will be restored, and how many heap bytes it needs."""
        snap = None
        standby_p = None
        restore_bytes = 0.0
        if spec.policy is RecoveryPolicy.CHECKPOINT:
            snap = self._snapshots.get(pid)
            if snap is not None and not snap.valid():
                self._drop_snapshot(pid)
                snap = None
            if snap is not None:
                restore_bytes = snap.nbytes
        elif spec.policy is RecoveryPolicy.REPLICATE:
            ref = self._standbys.get(pid)
            if ref is not None:
                standby_p = self.runtime._proclets.get(ref.proclet_id)
            if standby_p is not None:
                _state, nbytes = self._death_state.get(pid, (None, 0.0))
                restore_bytes = nbytes
        elif spec.policy is RecoveryPolicy.LINEAGE:
            corpse = self._corpses.get(pid)
            if corpse is not None:
                restore_bytes = corpse.heap_bytes
        return restore_bytes, snap, standby_p

    def _pick_machine(self, fresh: Proclet, restore_bytes: float,
                      spec: _Protection,
                      standby: Optional[Proclet]) -> Optional[Machine]:
        if standby is not None:
            # Promotion frees the standby's mirrored ballast in place,
            # so its machine can host the restored heap by construction.
            return standby.machine
        need = fresh.footprint + restore_bytes
        machine = self._try_place(fresh, need)
        if machine is None:
            self._shed_for(need, spec.priority)
            machine = self._try_place(fresh, need)
        return machine

    def _try_place(self, fresh: Proclet, need: float) -> Optional[Machine]:
        from ..core.resource import ResourceKind

        kind = getattr(fresh, "kind", ResourceKind.MEMORY)
        if kind is ResourceKind.COMPUTE:
            try:
                return self.qs._place(fresh)
            except InvalidPlacement:
                return None
        return self.qs.placement.best_for_memory(need)

    def _shed_for(self, need: float, priority: Priority) -> None:
        """Destroy strictly lower-priority registered proclets until
        some machine could fit *need* bytes (post-crash load shedding)."""
        victims = sorted(
            (pid for pid, spec in self._specs.items()
             if spec.priority > priority
             and self.runtime._proclets.get(pid) is not None),
            key=lambda pid: (-self._specs[pid].priority,
                             -self.runtime._proclets[pid].footprint),
        )
        for pid in victims:
            if self.qs.placement.best_for_memory(need) is not None:
                return
            victim = self.runtime._proclets[pid]
            self.runtime.decide(
                "ft", f"shed {victim.name} (priority "
                f"{self._specs[pid].priority.name.lower()}) to make room")
            self.unprotect(pid)
            self.runtime.destroy(ProcletRef(self.runtime, pid,
                                            victim.name))
            self.sheds += 1
            self.metrics.count("ft.sheds")

    def _check_convergence(self, fresh: Proclet, expected_bytes: float,
                           policy: RecoveryPolicy) -> None:
        if abs(fresh.heap_bytes - expected_bytes) > _BYTE_EPS:
            self.convergence_errors.append(
                f"{fresh.name}: {policy.value} recovery restored "
                f"{fresh.heap_bytes:.1f} B, expected "
                f"{expected_bytes:.1f} B")

    # -- CHECKPOINT machinery ---------------------------------------------------
    def _checkpoint_loop(self, pid: int) -> Generator:
        config = self.config
        while True:
            yield self.sim.timeout(config.checkpoint_interval)
            spec = self._specs.get(pid)
            if spec is None or spec.policy is not RecoveryPolicy.CHECKPOINT:
                return
            proclet = self.runtime._proclets.get(pid)
            if proclet is None:
                if self.runtime.is_lost(pid):
                    continue  # awaiting recovery; resume checkpointing after
                return  # destroyed for good
            if proclet._status is not ProcletStatus.RUNNING:
                continue  # mid-migration/split; catch the next interval
            state, nbytes = proclet.ft_capture()
            if state is None or nbytes <= 0.0:
                continue
            peer = self.qs.placement.best_for_memory(
                nbytes, exclude=(proclet.machine,))
            if peer is None:
                self.metrics.count("ft.checkpoint.skipped")
                continue
            yield from self._copy_snapshot(pid, proclet, state, nbytes,
                                           peer)

    def _copy_snapshot(self, pid: int, proclet: Proclet, state,
                       nbytes: float, peer: Machine) -> Generator:
        try:
            peer.memory.reserve(nbytes)
        except OutOfMemory:
            self.metrics.count("ft.checkpoint.skipped")
            return
        self._pending[pid] = (peer, nbytes, peer.incarnation)
        self.checkpoint_bytes_held += nbytes
        self.runtime._notify_reservation(peer)
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("ft-checkpoint", f"checkpoint {proclet.name}",
                            track=f"proclet:{proclet.name}",
                            bytes=int(nbytes), peer=peer.name)
        src = proclet.machine
        try:
            if src is not peer:
                yield self.runtime.fabric.transfer(
                    src, peer, nbytes, name=f"ft-ckpt:{proclet.name}")
        except MachineFailed:
            # Source or peer died mid-copy; reconcile the reservation
            # against the peer's incarnation (crash wiped it already).
            entry = self._pending.pop(pid, None)
            if entry is not None:
                self.checkpoint_bytes_held -= nbytes
                self.runtime._notify_reservation(peer)
                if peer.up and peer.incarnation == entry[2]:
                    peer.memory.release(nbytes)
            if tr is not None:
                tr.end(span, outcome="failed")
            return
        entry = self._pending.pop(pid, None)
        if entry is None:
            # The peer crashed mid-copy (reservation pruned by the
            # failure hook); nothing committed.
            if tr is not None:
                tr.end(span, outcome="peer-died")
            return
        self._drop_snapshot(pid)  # release the previous snapshot's bytes
        self._snapshots[pid] = _Snapshot(
            state=state, nbytes=nbytes, peer=peer,
            peer_incarnation=entry[2], taken_at=self.sim.now)
        self.runtime._notify_reservation(peer)
        # _pending already added these bytes to the held total; storing
        # the snapshot keeps them held, so no adjustment here.
        self.metrics.count("ft.checkpoints")
        self.metrics.count("ft.checkpoint.bytes", nbytes)
        if tr is not None:
            tr.end(span)

    def _drop_snapshot(self, pid: int) -> None:
        snap = self._snapshots.pop(pid, None)
        if snap is None:
            return
        self.checkpoint_bytes_held -= snap.nbytes
        self.runtime._notify_reservation(snap.peer)
        if snap.valid():
            snap.peer.memory.release(snap.nbytes)

    # -- REPLICATE machinery ----------------------------------------------------
    def _arm_standby(self, pid: int, primary: Proclet) -> None:
        standby = StandbyProclet(primary_name=primary.name)
        peer = self.qs.placement.best_for_memory(
            primary.footprint + standby.BASE_FOOTPRINT,
            exclude=(primary.machine,))
        if peer is None:
            self.metrics.count("ft.standby.unplaced")
            return  # the mirror loop retries on its next tick
        ref = self.runtime.spawn(standby, peer,
                                 name=f"{primary.name}.standby")
        self._standbys[pid] = ref
        self._standby_of[ref.proclet_id] = pid
        # The full current heap is dirty: the first mirror sync pays the
        # initial copy.
        self._dirty[pid] = primary.heap_bytes
        self._last_heap[pid] = primary.heap_bytes
        self.metrics.count("ft.standbys")

    def _mirror_loop(self, pid: int) -> Generator:
        config = self.config
        while True:
            yield self.sim.timeout(config.mirror_interval)
            spec = self._specs.get(pid)
            if spec is None or spec.policy is not RecoveryPolicy.REPLICATE:
                return
            primary = self.runtime._proclets.get(pid)
            if primary is None:
                if self.runtime.is_lost(pid):
                    continue  # recovery re-arms the standby
                return
            ref = self._standbys.get(pid)
            standby = (self.runtime._proclets.get(ref.proclet_id)
                       if ref is not None else None)
            if standby is None:
                self._arm_standby(pid, primary)
                continue
            dirty = self._dirty.get(pid, 0.0)
            if dirty > 0.0 and primary.machine is not standby.machine:
                try:
                    yield self.runtime.fabric.transfer(
                        primary.machine, standby.machine, dirty,
                        name=f"ft-mirror:{primary.name}")
                except MachineFailed:
                    continue  # an endpoint died mid-sync; re-assess
                self.metrics.count("ft.mirror.bytes", dirty)
            self._dirty[pid] = max(0.0, self._dirty.get(pid, 0.0) - dirty)
            # Size-sync the standby's mirrored ballast.
            primary = self.runtime._proclets.get(pid)
            standby = self.runtime._proclets.get(ref.proclet_id)
            if primary is None or standby is None:
                continue
            diff = primary.heap_bytes - standby.heap_bytes
            try:
                if diff > 0:
                    standby.heap_alloc(diff)
                elif diff < 0:
                    standby.heap_free(-diff)
            except OutOfMemory:
                self.metrics.count("ft.mirror.stalled")

    def _on_heap_change(self, proclet: Proclet) -> None:
        pid = proclet.id
        if pid not in self._last_heap or pid in self._standby_of:
            return
        if self.runtime._proclets.get(pid) is not proclet:
            return
        delta = abs(proclet.heap_bytes - self._last_heap[pid])
        self._dirty[pid] = self._dirty.get(pid, 0.0) + delta
        self._last_heap[pid] = proclet.heap_bytes

    # -- reporting ----------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Detector totals, recovery outcomes (overall and per policy),
        sheds, convergence errors and the live checkpoint/standby
        footprint."""
        out: Dict[str, float] = {
            "suspects": self.detector.suspects,
            "confirms": self.detector.confirms,
            "machines_back": self.detector.recoveries,
            "recoveries": sum(self.recoveries.values()),
            "failed_recoveries": self.failed_recoveries,
            "sheds": self.sheds,
            "checkpoint_bytes_held": self.checkpoint_bytes_held,
            "standbys": len(self._standbys),
            "convergence_errors": len(self.convergence_errors),
        }
        for policy, count in sorted(self.recoveries.items()):
            out[f"recoveries.{policy}"] = count
        return out

    def __repr__(self) -> str:
        total = sum(self.recoveries.values())
        return (f"<RecoveryManager protected={len(self._specs)} "
                f"recovered={total} failed={self.failed_recoveries} "
                f"sheds={self.sheds}>")
