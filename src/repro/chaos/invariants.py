"""Global-invariant checking as a DES observer.

An :class:`InvariantChecker` hooks :meth:`Simulator.add_observer` and
re-derives, after every processed event, the properties that must hold
at *every* instant of a correct simulation, no matter what faults were
injected:

1. **No double placement** — the locator's per-machine sets partition
   its table; every entry maps to a live proclet whose ``machine``
   agrees with the table.
2. **Conservation of heap bytes** — each live machine's DRAM ledger
   equals the footprints of its resident proclets, plus fault ballast,
   plus destination reservations of in-flight migrations, plus stored
   and in-flight checkpoint snapshots.  A crashed machine holds exactly
   zero.
3. **Fluid sanity** — for every scheduler: rates are within
   ``[0, demand]``, their sum matches the cached ``load`` aggregate and
   never exceeds capacity, and priority is strict (a hungry class
   starves everything below it).  Optionally each scheduler is also
   diffed against the brute-force oracle (:mod:`repro.chaos.oracle`).
4. **No permanently-gated proclet** — a proclet is MIGRATING exactly
   when the runtime's gate ledger (``NuRuntime.gates``) holds an open
   window for it whose gate event is the proclet's untriggered gate,
   and no window stays open longer than ``gate_timeout`` virtual
   seconds.  Each :meth:`NuRuntime.gate` opens a new window, so a
   replaced gate restarts the clock.
5. **No double incarnation** — an id is never simultaneously live and
   lost, and its incarnation number never regresses.
6. **Checkpoint byte conservation** — the per-machine view of checkpoint
   reservations sums exactly to the recovery manager's authoritative
   held-bytes ledger.
7. **Recovered-state convergence** — every completed restore matched its
   expected state (the manager records divergences).
8. **Reshard integrity** (:mod:`repro.runtime.reshard`) — for every
   tracked sharded structure: the routing table covers the full key
   space at every instant (first bound is BOTTOM, bounds strictly
   sorted, parallel arrays agree — *routable-keys-always*); every table
   entry resolves to a live or recoverably-lost proclet (a merge
   retires its donor from the table before destroying it, so even an
   active reshard op never excuses a destroyed entry);
   each settled shard proclet's enforced ``range_lo``/``range_hi``
   agrees with its table neighbours; and no live shard proclet is
   absent from its owner's table unless an active op protects it (no
   orphaned child shards, including across aborts).

Two passes evaluate the same predicates with the same messages.

* The **full pass**, :meth:`InvariantChecker.check`, makes one pass over
  each kind of runtime state: the locator (invariant 1, collecting the
  resident footprints for 2), the migration and checkpoint reservations
  (shared by 2 and 6), the machines and their schedulers (2, 3), the
  loss/incarnation and convergence ledgers (5–7), each shard table (8)
  and the live proclets (4, and 8's orphans).  Its cost is O(proclets +
  shards + schedulers + snapshots).  Tests, ``run_chaos``'s final-state
  check and every other external caller get this pass.
* The **incremental pass** runs from the simulator observer after each
  event.  It evaluates the predicates only over the entities the event
  could have changed: the placement and DRAM equation of each dirty
  machine (recomputed from its resident footprints, as the full pass
  does), each dirty scheduler, each dirty routing table, and the
  status, gate, incarnation and orphan checks of each dirty proclet.
  Every event it also runs the checks that are global or
  time-dependent: the table/residency/proclet cardinalities, live/lost
  disjointness, the convergence ledger and the gate timeout (against
  the gate ledger's first entry, its oldest open window).  Every
  :data:`FULL_PASS_EVERY`-th event runs the full pass instead.  Both
  passes count once in :attr:`checks`.

What marks an entity dirty.  :meth:`attach` subscribes to mutation
points the program already has, so a run without a checker does no
extra work:

* the locator listener ``(pid, src, dst)`` marks the pid and both
  machines;
* each machine's :class:`~repro.cluster.Memory` listener marks the
  machine (heap charges, ballast, migration and checkpoint
  reservations);
* the runtime's failure and restore listeners mark the machine and its
  schedulers, and drop the kept reservation views (below);
* each machine scheduler's observer marks it when rates change, and
  every scheduler waiting on the simulator's pending-flush list is
  marked too (its inputs changed; it is re-checked once the flush has
  landed);
* the runtime's proclet-state listener marks a pid on status, gate and
  restore-flag writes in migration, split/merge gating and recovery
  (spawn, destroy, respawn and crash already reach the locator);
* the runtime's reservation listener marks a machine when the
  migration or checkpoint reservation ledgers change, and drops the
  kept reservation views;
* the reshard ledger's listener marks a structure (and its op's pids)
  on every op transition, track/untrack and routing-table write.

A dirty pid listed in a routing table also marks that table, and a
re-examined table marks the pids it dropped (for the orphan check).
The per-machine migration and checkpoint reservations and the
checkpoint bytes the live machines hold are kept between incremental
passes and rebuilt only after a reservation, crash or restore has
been reported (every mutation of those ledgers reports one); the full
pass always rebuilds them.
When one state breaks several invariants at once, the one reported is
the first its pass reaches.

The checker is read-only: schedulers with a *pending* coalesced
reassignment are skipped for that event (forcing a flush mid-instant
would perturb the run) and re-checked after the flush lands, which is
always before virtual time advances.

On violation it raises :class:`InvariantViolation` from inside the event
loop, failing the run at the first bad state — the chaos analogue of an
assertion compiled into the kernel.  The message ends with the last
:data:`RECENT_DECISIONS` lines of ``runtime.decisions``: what the control
plane had just done when the state went bad.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

from ..ds.sharding import _Bottom
from ..runtime.proclet import ProcletStatus
from . import oracle as _oracle

#: Rate/aggregate slack: a few ulps of a realistic capacity.
_RATE_EPS = 1e-9
#: DRAM ledger slack in bytes (footprints are floats; 1 B is generous).
_MEM_EPS = 1.0
#: The observer runs the full pass instead of the incremental one on
#: every this-many-th event.
FULL_PASS_EVERY = 1024
#: How many of the latest control-plane decisions a violation quotes.
RECENT_DECISIONS = 8

_RUNNING = ProcletStatus.RUNNING
_MIGRATING = ProcletStatus.MIGRATING
_DEAD = ProcletStatus.DEAD


class InvariantViolation(Exception):
    """A global invariant failed to hold after an event."""


def _bytes_close(a: float, b: float) -> bool:
    """Byte ledgers agree: ``math.isclose`` at ``rel_tol=1e-9`` and
    ``abs_tol=_MEM_EPS``, without the call when they are within
    ``_MEM_EPS`` (a NaN still takes it)."""
    return abs(a - b) <= _MEM_EPS or math.isclose(
        a, b, rel_tol=1e-9, abs_tol=_MEM_EPS)


def _schedulers(machine) -> List:
    """*machine*'s fluid schedulers, in the order the passes check them."""
    scheds = [machine.cpu.sched, machine.nic.tx]
    if machine.gpus is not None:
        scheds.append(machine.gpus.sched)
    storage = machine.storage
    if storage is not None:
        scheds += [storage.iops, storage.read_bw, storage.write_bw]
    return scheds


class InvariantChecker:
    """Asserts global invariants over a :class:`NuRuntime` after every
    simulator event."""

    def __init__(self, runtime, oracle: bool = False,
                 gate_timeout: float = 1.0):
        self.runtime = runtime
        self._sim = runtime.sim
        self.oracle = oracle
        self.gate_timeout = gate_timeout
        self.checks = 0
        self.events_seen = 0
        self.oracle_comparisons = 0
        # The runtime's gate ledger: pid -> (kind, opened at, gate, span),
        # oldest first.
        self._gates = runtime.gates
        # pid -> highest incarnation ever observed (must never regress).
        self._incarnation_seen: Dict[int, int] = {}
        self._attached_to = None
        # (listener list, callback) pairs subscribed by attach().
        self._hooks: List[Tuple[List, Any]] = []
        # Dirty sets, filled by the hooks and drained by each
        # incremental pass.  The hooks hold bound ``add`` methods, so
        # the sets are cleared in place, never rebound.  A dirty machine
        # is held as its Memory (hashed by identity; a Machine hashes in
        # Python), or in _dirty_reserved when its reservations changed.
        self._dirty_memories: Set = set()
        self._dirty_reserved: Set = set()
        self._dirty_scheds: Set = set()
        self._dirty_pids: Set[int] = set()
        self._dirty_tables: Set = set()
        # Schedulers seen on the pending-flush list, and when.
        self._waiting: Set = set()
        self._waiting_at: Optional[float] = None
        # Each tracked structure's table pids (keyed by ``id``) at its
        # last examination, and pid -> the structure listing it.
        self._table_pids: Dict[int, Set[int]] = {}
        self._entry_of: Dict[int, Any] = {}
        # Cluster shape, fixed at attach().
        # Each machine's Memory -> the machine's rank in the cluster.
        self._rank: Dict[Any, int] = {}
        self._machine_of: Dict[Any, Any] = {}
        self._scheds_of: Dict[Any, List] = {}
        self._sched_rank: Dict[Any, int] = {}
        self._pending_flushes: List = []
        self._residency_sets = self._live_ids = ()
        self._live = self._placed = {}
        self._lost: Set[int] = set()
        # The incremental pass's (inflight, reserved, held) reservation
        # views, kept until a reservation, crash or restore changes them.
        self._reserved: Optional[Tuple[Dict[int, float], Dict[int, float],
                                       float]] = None

    # -- observer plumbing ---------------------------------------------------
    def attach(self, sim=None) -> "InvariantChecker":
        sim = sim or self.runtime.sim
        runtime = self.runtime
        sim.add_observer(self._on_event)
        self._attached_to = sim
        self._pending_flushes = sim._pending_flushes
        # The listener lists behind Locator.add_listener, the runtime's
        # on_machine_failure/restore, its proclet-state
        # and reservation notifications, the reshard ledger's
        # notifications, Memory.add_listener and
        # FluidScheduler.add_observer; detach() removes the same entries.
        hooks = [
            (runtime.locator._listeners, self._on_locate),
            (runtime._failure_listeners, self._on_failure),
            (runtime._restore_listeners, self._on_restore),
            (runtime._proclet_state_listeners, self._dirty_pids.add),
            (runtime._reservation_listeners, self._dirty_reserved.add),
            (runtime.reshard_ledger._listeners, self._on_reshard),
        ]
        for rank, machine in enumerate(runtime.cluster.machines):
            scheds = _schedulers(machine)
            self._rank[machine.memory] = rank
            self._machine_of[machine.memory] = machine
            self._scheds_of[machine] = scheds
            hooks.append((machine.memory._listeners,
                          self._dirty_memories.add))
            for sched in scheds:
                self._sched_rank[sched] = len(self._sched_rank)
                hooks.append((sched._observers, self._dirty_scheds.add))
        for listeners, fn in hooks:
            listeners.append(fn)
        self._hooks = hooks
        # Live views for the per-event global checks.
        self._residency_sets = runtime.locator._by_machine.values()
        self._live = runtime._proclets
        self._live_ids = runtime._proclets.keys()
        self._placed = runtime.locator._table
        self._lost = runtime._lost
        # The first incremental pass examines everything.
        self._dirty_memories.update(self._rank)
        self._dirty_scheds.update(self._sched_rank)
        self._dirty_pids.update(runtime._proclets)
        self._dirty_tables.update(runtime.reshard_ledger._structures)
        return self

    def detach(self) -> None:
        if self._attached_to is not None:
            self._attached_to.remove_observer(self._on_event)
            self._attached_to = None
            for listeners, fn in self._hooks:
                listeners.remove(fn)
            self._hooks = []

    # -- dirty marking (hook callbacks) --------------------------------------
    def _on_locate(self, pid: int, src, dst) -> None:
        self._dirty_pids.add(pid)
        if src is not None:
            self._dirty_memories.add(src.memory)
        if dst is not None:
            self._dirty_memories.add(dst.memory)

    def _on_failure(self, machine, _lost) -> None:
        self._on_restore(machine)

    def _on_restore(self, machine) -> None:
        # Up/down flips the machine's ledger, its schedulers' capacities
        # and which reservations count.
        self._dirty_reserved.add(machine)
        self._dirty_scheds.update(self._scheds_of.get(machine, ()))

    def _on_reshard(self, structure, pids) -> None:
        self._dirty_tables.add(structure)
        self._dirty_pids.update(pids)

    # -- the passes ----------------------------------------------------------
    def check(self) -> None:
        """The full pass: every invariant over all state; raises
        :class:`InvariantViolation`."""
        self.checks += 1
        resident = self._check_placement()
        held = self._check_machines(resident)
        self._check_recovery(held)
        self._check_proclets(self._check_shard_tables())

    def _on_event(self, _sim=None) -> None:
        """The simulator observer: the incremental pass (the same
        predicates over what changed since the last pass, plus the
        global and time-dependent checks), or the full pass on every
        :data:`FULL_PASS_EVERY`-th event."""
        self.events_seen += 1
        if not self.events_seen % FULL_PASS_EVERY:
            self.check()
            return
        self.checks += 1
        pending = self._pending_flushes
        waiting = self._waiting
        if waiting or pending:
            # Schedulers mutated this instant wait on the pending-flush
            # list; once a drain has run (the list emptied or time
            # moved) they are clean and due for a check.
            now = self._sim._now
            if waiting and (not pending or now != self._waiting_at):
                self._dirty_scheds.update(waiting)
                waiting.clear()
            if pending:
                waiting.update(pending)
                self._waiting_at = now
        if (self._dirty_memories or self._dirty_reserved or self._dirty_scheds
                or self._dirty_pids or self._dirty_tables):
            machines, scheds, pids, tables = self._take_dirty()
        else:
            machines = scheds = pids = tables = ()
        if machines:
            by_machine = self.runtime.locator._by_machine
            footprints = [self._check_residents(m, by_machine.get(m, ()))
                          for m in machines]
        placed = len(self._placed)
        if len(self._live) != placed \
                or sum(map(len, self._residency_sets)) != placed:
            self._check_cardinality()
        if machines:
            self._check_changed_machines(machines, footprints)
        for sched in scheds:
            self._check_fluid(sched)
        lost = self._lost
        if lost and not self._live_ids.isdisjoint(lost):
            self._check_lost()
        if pids:
            self._check_incarnations(pids)
        recovery = self.runtime.recovery
        if recovery is not None and recovery.convergence_errors:
            self._check_convergence()
        if pids or tables:
            self._check_changed_proclets(pids, tables)
        if self._gates:
            self._check_oldest_gate()

    def _take_dirty(self):
        """Drain the dirty sets into one incremental pass's scope:
        ``(machines, schedulers, pids, tables)``, machines and
        schedulers in cluster order.  A scheduler still awaiting its
        flush is skipped by the check and comes back through the
        pending-flush list."""
        machines = scheds = pids = tables = ()
        memories = self._dirty_memories
        reserved = self._dirty_reserved
        if reserved:
            memories.update([machine.memory for machine in reserved])
            reserved.clear()
            self._reserved = None
        if memories:
            machine_of = self._machine_of
            if len(memories) == 1:
                machines = (machine_of[memories.pop()],)
            else:
                machines = [machine_of[memory] for memory
                            in sorted(memories, key=self._rank.__getitem__)]
                memories.clear()
        dirty_scheds = self._dirty_scheds
        if dirty_scheds:
            rank = self._sched_rank
            if len(dirty_scheds) == 1:
                sched = dirty_scheds.pop()
                if sched in rank:
                    scheds = (sched,)
            else:
                scheds = sorted(filter(rank.__contains__, dirty_scheds),
                                key=rank.__getitem__)
                dirty_scheds.clear()
        dirty_pids = self._dirty_pids
        if dirty_pids:
            pids = tuple(dirty_pids)
            dirty_pids.clear()
        if self._dirty_tables or pids:
            tables = self._dirty_tables
            entry_of = self._entry_of
            for pid in pids:
                structure = entry_of.get(pid)
                if structure is not None:
                    tables.add(structure)
            tables = tuple(tables)
            self._dirty_tables.clear()
        return machines, scheds, pids, tables

    def _fail(self, what: str) -> None:
        recent = "".join(f"\n  {d}" for d in
                         self.runtime.decisions[-RECENT_DECISIONS:])
        raise InvariantViolation(
            f"t={self.runtime.sim.now:.6f}s: {what}"
            + (f"\nrecent decisions:{recent}" if recent else ""))

    # -- invariant 1 -----------------------------------------------------------
    def _check_placement(self) -> Dict[int, float]:
        """Invariant 1, in one pass over the locator's residency sets.
        Returns each machine's resident footprint, keyed by machine id,
        for invariant 2."""
        resident = {machine.id: self._check_residents(machine, pids)
                    for machine, pids
                    in self.runtime.locator._by_machine.items()}
        self._check_cardinality()
        return resident

    def _check_residents(self, machine, pids) -> float:
        """Invariant 1 over one machine's residency set; returns the
        residents' total footprint."""
        placed = self.runtime.locator._table
        live = self.runtime._proclets
        footprint = 0
        try:
            for pid in pids:
                proclet = live[pid]
                if placed[pid] is not machine \
                        or proclet._machine is not machine:
                    self._fail_resident(machine, pid)
                # Proclet.footprint, without the property call.
                footprint += proclet._heap_bytes + proclet.BASE_FOOTPRINT
        except KeyError as missing:
            self._fail_resident(machine, missing.args[0])
        return footprint

    def _fail_resident(self, machine, pid: int) -> None:
        """Report the first of invariant 1's checks that resident *pid*
        of *machine* fails."""
        if self.runtime.locator._table.get(pid) is not machine:
            self._fail_misplaced(machine, pid)
        proclet = self.runtime._proclets.get(pid)
        if proclet is None:
            self._fail(f"locator maps dead proclet #{pid}")
        self._fail(f"{proclet.name}: locator says {machine.name}, "
                   f"proclet says "
                   f"{getattr(proclet._machine, 'name', None)}")

    def _check_cardinality(self) -> None:
        """Invariant 1's global half.  Once every residency entry agrees
        with the table, the sets are disjoint and cover the table iff
        the sizes match; the table holds only live proclets, so it
        covers them iff sizes match."""
        loc = self.runtime.locator
        table = loc._table
        if sum(map(len, loc._by_machine.values())) != len(table):
            seen = set().union(*loc._by_machine.values())
            self._fail("locator table and residency sets disagree: "
                       f"{sorted(seen ^ set(table))}")
        proclets = self.runtime._proclets
        if len(proclets) != len(table):
            for pid, proclet in proclets.items():
                if pid not in table:
                    self._fail(f"live proclet {proclet.name} missing from "
                               f"locator")

    def _fail_misplaced(self, machine, pid: int) -> None:
        """Report a residency entry the table disagrees with: a double
        placement if an earlier (all-agreeing) set already held it."""
        loc = self.runtime.locator
        for other, pids in loc._by_machine.items():
            if other is machine:
                break
            if pid in pids:
                self._fail(f"proclet #{pid} double-placed")
        self._fail(
            f"proclet #{pid} in {machine.name}'s residency set but table "
            f"says {getattr(loc._table.get(pid), 'name', None)}")

    # -- invariants 2 and 3 ------------------------------------------------------
    def _reservations(self) -> Tuple[Dict[int, float], Dict[int, float],
                                     float]:
        """In-flight migration and checkpoint bytes per machine id, and
        the checkpoint bytes the live machines hold.  Rebuilt only when
        a reservation listener, crash or restore has reported a change
        since the last build (the full pass always rebuilds)."""
        views = self._reserved
        if views is None:
            runtime = self.runtime
            recovery = runtime.recovery
            reserved = (recovery.reserved_by_machine()
                        if recovery is not None else {})
            views = self._reserved = (
                runtime.migration.inflight_reserved(), reserved,
                self._held(runtime.cluster.machines, reserved))
        return views

    def _check_machines(self, resident: Dict[int, float]) -> float:
        """Invariants 2 and 3, in one pass over the machines.  Returns
        the checkpoint bytes the machines hold, for invariant 6."""
        self._reserved = None
        inflight, reserved, held = self._reservations()
        for m in self.runtime.cluster.machines:
            self._check_dram(m, resident.get(m.id, 0), inflight, reserved)
            for sched in _schedulers(m):
                self._check_fluid(sched)
        return held

    def _check_changed_machines(self, machines,
                                footprints: List[float]) -> None:
        """Invariants 2 and 6 over the dirty machines, given their
        residents' footprints."""
        inflight, reserved, held = self._reserved or self._reservations()
        for m, footprint in zip(machines, footprints):
            self._check_dram(m, footprint, inflight, reserved)
        self._check_checkpoints(held)

    @staticmethod
    def _held(machines, reserved: Dict[int, float]) -> float:
        held = 0
        for m in machines:
            if m.up:
                held += reserved.get(m.id, 0.0)
        return held

    def _check_dram(self, m, footprints: float,
                    inflight: Dict[int, float],
                    reserved: Dict[int, float]) -> None:
        memory = m.memory
        used = memory.used
        if not m.up:
            if used != 0.0:
                self._fail(f"crashed {m.name} holds "
                           f"{used:.0f} B of DRAM")
            if self.runtime.locator._by_machine.get(m):
                self._fail(f"crashed {m.name} still hosts proclets "
                           f"{self.runtime.locator.proclets_on(m)}")
            return
        mid = m.id
        in_flight = inflight.get(mid, 0.0)
        ckpt = reserved.get(mid, 0.0)
        expected = footprints + memory.ballast + in_flight + ckpt
        if not _bytes_close(used, expected):
            self._fail(
                f"{m.name} DRAM ledger {used:.1f} B != "
                f"{expected:.1f} B (residents {footprints:.1f} + "
                f"ballast {memory.ballast:.1f} + in-flight "
                f"{in_flight:.1f} + checkpoints {ckpt:.1f})")
        if used > memory.capacity + _MEM_EPS:
            self._fail(f"{m.name} DRAM oversubscribed: "
                       f"{used:.0f} / {memory.capacity:.0f} B")

    def _check_fluid(self, sched) -> None:
        if sched._dirty:
            # A coalesced reassignment is pending; it will flush before
            # time advances and the next event re-checks.
            return
        items = sched._items
        capacity = sched._capacity
        eps = _RATE_EPS * (capacity if capacity > 1.0 else 1.0)
        total = 0.0
        hungriest: Optional[int] = None
        for it in items:
            rate = it._rate
            demand = it.demand
            if rate < -eps or rate > demand + eps:
                self._fail(f"{sched.name}/{it.name}: rate {rate!r} "
                           f"outside [0, demand={demand!r}]")
            total += rate
            if rate < demand - eps and (hungriest is None
                                        or it.priority < hungriest):
                hungriest = it.priority
        if total > capacity + eps:
            self._fail(f"{sched.name}: rates sum to {total!r} > "
                       f"capacity {capacity!r}")
        if not math.isclose(total, sched._load, rel_tol=1e-9, abs_tol=eps):
            self._fail(f"{sched.name}: cached load {sched._load!r} != "
                       f"rate sum {total!r}")
        if hungriest is not None:
            for it in items:
                if it.priority > hungriest and it._rate > eps:
                    self._fail(
                        f"{sched.name}/{it.name}: class {it.priority} "
                        f"served while class {hungriest} is hungry")
        if self.oracle and items:
            self.oracle_comparisons += 1
            divergences = _oracle.compare(sched)
            if divergences:
                self._fail(f"oracle divergence: "
                           + "; ".join(map(str, divergences)))

    # -- invariants 5-7 ----------------------------------------------------------
    def _check_recovery(self, held: float) -> None:
        """Invariants 5–7 (cheap no-ops without repro.ft); *held* is the
        machines' view of the checkpoint bytes (invariant 6)."""
        self._check_lost()
        incarnations = self.runtime._incarnations
        if incarnations != self._incarnation_seen:
            self._check_incarnations(incarnations)
        self._check_checkpoints(held)
        self._check_convergence()

    def _check_lost(self) -> None:
        runtime = self.runtime
        lost = runtime._lost
        if not runtime._proclets.keys().isdisjoint(lost):
            pid = min(lost.intersection(runtime._proclets))
            self._fail(f"proclet #{pid} is both live and lost "
                       f"(double incarnation)")

    def _check_incarnations(self, pids) -> None:
        incarnations = self.runtime._incarnations
        seen = self._incarnation_seen
        for pid in pids:
            inc = incarnations.get(pid)
            if inc is None:
                continue
            prev = seen.get(pid, 0)
            if inc < prev:
                self._fail(f"proclet #{pid} incarnation regressed "
                           f"{prev} -> {inc}")
            seen[pid] = inc

    def _check_checkpoints(self, held: float) -> None:
        recovery = self.runtime.recovery
        if recovery is None:
            return
        if not _bytes_close(held, recovery.checkpoint_bytes_held):
            self._fail(
                f"checkpoint bytes not conserved: machines hold "
                f"{held:.1f} B, manager ledger says "
                f"{recovery.checkpoint_bytes_held:.1f} B")

    def _check_convergence(self) -> None:
        recovery = self.runtime.recovery
        if recovery is not None and recovery.convergence_errors:
            self._fail("recovered state diverged: "
                       + "; ".join(recovery.convergence_errors))

    # -- invariant 8 -------------------------------------------------------------
    def _table_context(self):
        """``(protected, lost, live, restoring)`` for table checks."""
        runtime = self.runtime
        recovery = runtime.recovery
        return (runtime.reshard_ledger.protected_ids(), runtime._lost,
                runtime._proclets.get,
                recovery._restoring if recovery is not None else ())

    def _check_shard_tables(self) -> Optional[Tuple[Dict[int, Set[int]],
                                                    Set[int]]]:
        """Invariant 8's table checks, one pass per tracked structure.
        Returns each structure's table pids (keyed by ``id``) and the
        ledger-protected pids for the orphan check, or None when no
        sharded structure is tracked."""
        ledger = getattr(self.runtime, "reshard_ledger", None)
        if ledger is None or not ledger._structures:
            return None
        context = self._table_context()
        tables = {id(ds): self._check_table(ds, *context)
                  for ds in ledger._structures}
        return tables, context[0]

    def _check_table(self, ds, protected, lost, live,
                     restoring) -> Set[int]:
        """Invariant 8 over one structure's routing table; returns the
        pids it lists."""
        shards = ds.shards
        los = getattr(ds, "_los", None)
        if los is not None:
            self._check_bounds(ds, shards, los)
        table = set()
        last = len(shards) - 1
        shard_ref = ds._shard_ref
        for i, shard in enumerate(shards):
            pid = shard_ref(shard).proclet_id
            table.add(pid)
            proclet = live(pid)
            if proclet is None:
                # Lost to a machine failure is recovery's problem.
                # A merge retires its donor from the table before it
                # destroys it, so anything else is a dangling entry.
                if pid not in lost:
                    self._fail(
                        f"{ds.name}: routing table entry #{pid} is "
                        f"destroyed but not lost to a machine failure "
                        f"(unroutable range)")
                continue
            if los is None or pid in protected:
                continue
            if proclet._status is not _RUNNING:
                continue  # gated by an op; ranges settle at cleanup
            if pid in restoring:
                continue
            # The bounds check proved that only the first shard
            # starts at BOTTOM.
            want_lo = shard.lo if i else None
            want_hi = shards[i + 1].lo if i < last else None
            if proclet.range_lo != want_lo \
                    or proclet.range_hi != want_hi:
                self._fail(
                    f"{ds.name}/{proclet.name}: enforced range "
                    f"[{proclet.range_lo!r}, {proclet.range_hi!r}) "
                    f"disagrees with the routing table "
                    f"[{want_lo!r}, {want_hi!r})")
        return table

    def _check_bounds(self, ds, shards, los) -> None:
        """Range-sharded tables cover the full key space at every
        instant (routable-keys-always)."""
        if not shards:
            self._fail(f"{ds.name}: empty routing table "
                       f"(every key unroutable)")
        if len(los) != len(shards):
            self._fail(f"{ds.name}: lo array has {len(los)} "
                       f"entries for {len(shards)} shards")
        if not isinstance(shards[0].lo, _Bottom):
            self._fail(
                f"{ds.name}: first shard starts at {shards[0].lo!r}, "
                f"not BOTTOM — keys below it are unroutable")
        prev = None
        for i, shard in enumerate(shards):
            lo = los[i]
            if shard.lo != lo:
                self._fail(f"{ds.name}: shard {i} lower bound "
                           f"{shard.lo!r} != lo array {lo!r}")
            if i > 0 and not prev < lo:
                self._fail(f"{ds.name}: lower bounds out of order at "
                           f"{i}: {prev!r} !< {lo!r}")
            prev = lo

    # -- invariants 4 and 8 (per proclet) ------------------------------------------
    def _check_proclets(self, tables) -> None:
        """Invariant 4 and invariant 8's orphan check, in one pass over
        the live proclets; *tables* is :meth:`_check_shard_tables`'s
        result."""
        owned = protected = None
        if tables is not None:
            owned, protected = tables
        check = self._check_proclet
        for pid, proclet in self.runtime._proclets.items():
            check(pid, proclet, owned, protected)
        if self._gates:
            self._check_oldest_gate()

    def _check_changed_proclets(self, pids, tables) -> None:
        """The incremental pass's invariant 8 over the dirty tables, then
        invariant 4 and 8's orphan check over the dirty proclets and the
        pids that left a table."""
        runtime = self.runtime
        structures = runtime.reshard_ledger._structures
        owned = protected = context = None
        check = pids
        if structures:
            owned = self._table_pids
            context = self._table_context()
            protected = context[0]
        if tables:
            check = self._recheck_tables(structures, tables, context)
            check.update(pids)
        live = runtime._proclets.get
        for pid in check:
            proclet = live(pid)
            if proclet is not None:
                self._check_proclet(pid, proclet, owned, protected)

    def _check_oldest_gate(self) -> None:
        """Invariant 4's timeout, against the oldest open gate window:
        the gate ledger's first entry (windows open in time order)."""
        pid, (_kind, opened, _gate, _span) = next(iter(self._gates.items()))
        held = self._sim._now - opened
        if held > self.gate_timeout:
            proclet = self.runtime._proclets.get(pid)
            name = f"proclet #{pid}" if proclet is None else proclet.name
            self._fail(f"{name} gated for {held:.3f}s > "
                       f"{self.gate_timeout:.3f}s (permanently gated?)")

    def _recheck_tables(self, structures, tables, context) -> Set[int]:
        """Re-examine the dirty tables in ledger order, refresh their
        cached pid sets and drop untracked ones; returns the pids that
        left a table (candidates for the orphan check)."""
        table_pids = self._table_pids
        entry_of = self._entry_of
        departed: Set[int] = set()
        for ds in structures:
            if ds in tables:
                now_listed = self._check_table(ds, *context)
                for pid in table_pids.get(id(ds), ()):
                    if pid not in now_listed:
                        departed.add(pid)
                        if entry_of.get(pid) is ds:
                            del entry_of[pid]
                for pid in now_listed:
                    entry_of[pid] = ds
                table_pids[id(ds)] = now_listed
        for ds in tables:
            if ds not in structures:
                for pid in table_pids.pop(id(ds), ()):
                    if entry_of.get(pid) is ds:
                        del entry_of[pid]
        return departed

    def _check_proclet(self, pid: int, proclet, owned, protected) -> None:
        """Invariant 4, all but its timeout, and invariant 8's orphan
        check for one live proclet."""
        status = proclet._status
        if status is _RUNNING:
            if pid in self._gates:
                self._fail(f"{proclet.name} is RUNNING with an open gate "
                           f"window")
        elif status is _DEAD:
            self._fail(f"{proclet.name} is DEAD but still registered")
        elif status is _MIGRATING:
            gate = proclet._migration_gate
            if gate is None:
                self._fail(f"{proclet.name} MIGRATING without a gate")
            if gate.triggered:
                self._fail(f"{proclet.name} MIGRATING behind an "
                           f"already-open gate")
            entry = self._gates.get(pid)
            if entry is None or entry[2] is not gate:
                self._fail(f"{proclet.name} MIGRATING behind a gate "
                           f"the runtime did not open")
        if owned is not None:
            # No orphaned children: a live shard proclet outside its
            # owner's routing table is legal only mid-reshard
            # (ledger-protected).
            owner = getattr(proclet, "shard_owner", None)
            if owner is not None:
                table = owned.get(id(owner))
                if table is not None and pid not in table \
                        and pid not in protected:
                    self._fail(
                        f"{owner.name}: live shard {proclet.name} is "
                        f"missing from the routing table and no active "
                        f"reshard op protects it (orphaned child shard)")

    def __repr__(self) -> str:
        return (f"<InvariantChecker checks={self.checks} "
                f"oracle={'on' if self.oracle else 'off'}>")
