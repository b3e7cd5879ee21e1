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
4. **No permanently-gated proclet** — a MIGRATING proclet always has an
   untriggered gate, and no single gate stays closed longer than
   ``gate_timeout`` virtual seconds.
5. **No double incarnation** — an id is never simultaneously live and
   lost, and its incarnation number never regresses.
6. **Checkpoint byte conservation** — the per-machine view of checkpoint
   reservations sums exactly to the recovery manager's authoritative
   held-bytes ledger.
7. **Recovered-state convergence** — every completed restore matched its
   expected state (the manager records divergences).
8. **Clone-set hygiene** (:mod:`repro.hedge`) — every cloned call has
   at most one winner; once a call is decided and virtual time has
   advanced past the decision instant, every losing attempt has
   actually terminated and none of its cancelled CPU work items is
   still active on a scheduler (cancelled clones must not leak
   capacity, DRAM-backed work, or gated proclets — the DRAM and gate
   invariants above apply to clone losers like everything else).
9. **Reshard integrity** (:mod:`repro.runtime.reshard`) — for every
   tracked sharded structure: the routing table covers the full key
   space at every instant (first bound is BOTTOM, bounds strictly
   sorted, parallel arrays agree — *routable-keys-always*); every table
   entry resolves to a live or recoverably-lost proclet (a destroyed
   entry is legal only inside an active, ledger-protected reshard op);
   each settled shard proclet's enforced ``range_lo``/``range_hi``
   agrees with its table neighbours; and no live shard proclet is
   absent from its owner's table unless an active op protects it (no
   orphaned child shards, including across aborts).

Each check is one pass over each kind of runtime state: the locator
(invariant 1, collecting the resident footprints for 2), the migration
and checkpoint reservations (shared by 2 and 6), the machines and their
schedulers (2, 3), the loss/incarnation and clone ledgers (5–8), each
shard table (9) and the live proclets (4, and 9's orphans).  Its cost
is O(proclets + shards + schedulers + snapshots) per event.  When one
state breaks several invariants at once, the one reported is the first
its pass reaches.

The checker is read-only: schedulers with a *pending* coalesced
reassignment are skipped for that event (forcing a flush mid-instant
would perturb the run) and re-checked after the flush lands, which is
always before virtual time advances.

On violation it raises :class:`InvariantViolation` from inside the event
loop, failing the run at the first bad state — the chaos analogue of an
assertion compiled into the kernel.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from ..ds.sharding import _Bottom
from ..runtime.proclet import ProcletStatus
from . import oracle as _oracle

#: Rate/aggregate slack: a few ulps of a realistic capacity.
_RATE_EPS = 1e-9
#: DRAM ledger slack in bytes (footprints are floats; 1 B is generous).
_MEM_EPS = 1.0

_RUNNING = ProcletStatus.RUNNING
_MIGRATING = ProcletStatus.MIGRATING
_DEAD = ProcletStatus.DEAD


class InvariantViolation(Exception):
    """A global invariant failed to hold after an event."""


class InvariantChecker:
    """Asserts global invariants over a :class:`NuRuntime` after every
    simulator event (or every ``stride``-th event)."""

    def __init__(self, runtime, oracle: bool = False, stride: int = 1,
                 gate_timeout: float = 1.0):
        if stride < 1:
            raise ValueError(f"stride must be >= 1: {stride}")
        self.runtime = runtime
        self.oracle = oracle
        self.stride = stride
        self.gate_timeout = gate_timeout
        self.checks = 0
        self.events_seen = 0
        self.oracle_comparisons = 0
        # id(gate) -> first time the gate was seen closed.
        self._gate_seen: Dict[int, float] = {}
        # pid -> highest incarnation ever observed (must never regress).
        self._incarnation_seen: Dict[int, int] = {}
        self._attached_to = None

    # -- observer plumbing ---------------------------------------------------
    def attach(self, sim=None) -> "InvariantChecker":
        sim = sim or self.runtime.sim
        sim.add_observer(self._on_event)
        self._attached_to = sim
        return self

    def detach(self) -> None:
        if self._attached_to is not None:
            self._attached_to.remove_observer(self._on_event)
            self._attached_to = None

    def _on_event(self, _sim) -> None:
        self.events_seen += 1
        if self.events_seen % self.stride == 0:
            self.check()

    # -- the invariants ------------------------------------------------------
    def check(self) -> None:
        """Run every invariant once; raises :class:`InvariantViolation`."""
        self.checks += 1
        resident = self._check_placement()
        held = self._check_machines(resident)
        self._check_recovery(held)
        if self.runtime._clone_calls:
            self._check_clones()
        self._check_proclets(self._check_shard_tables())

    def _fail(self, what: str) -> None:
        raise InvariantViolation(
            f"t={self.runtime.sim.now:.6f}s: {what}")

    def _check_placement(self) -> Dict[int, float]:
        """Invariant 1, in one pass over the locator's residency sets.
        Returns each machine's resident footprint, keyed by machine id,
        for invariant 2."""
        loc = self.runtime.locator
        table = loc._table
        proclets = self.runtime._proclets
        placed_on = table.get
        live = proclets.get
        resident: Dict[int, float] = {}
        placed = 0
        for machine, pids in loc._by_machine.items():
            placed += len(pids)
            footprint = 0
            for pid in pids:
                if placed_on(pid) is not machine:
                    self._fail_misplaced(machine, pid)
                proclet = live(pid)
                if proclet is None:
                    self._fail(f"locator maps dead proclet #{pid}")
                if proclet._machine is not machine:
                    self._fail(
                        f"{proclet.name}: locator says {machine.name}, "
                        f"proclet says "
                        f"{getattr(proclet._machine, 'name', None)}")
                footprint += proclet.footprint
            resident[machine.id] = footprint
        # Every residency entry agrees with the table, so the sets are
        # disjoint and cover the table iff the sizes match; the table
        # holds only live proclets, so it covers them iff sizes match.
        if placed != len(table):
            seen = set().union(*loc._by_machine.values())
            self._fail("locator table and residency sets disagree: "
                       f"{sorted(seen ^ set(table))}")
        if len(proclets) != len(table):
            for pid, proclet in proclets.items():
                if pid not in table:
                    self._fail(f"live proclet {proclet.name} missing from "
                               f"locator")
        return resident

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

    def _check_machines(self, resident: Dict[int, float]) -> float:
        """Invariants 2 and 3, in one pass over the machines.  Returns
        the checkpoint bytes the machines hold, for invariant 6."""
        runtime = self.runtime
        inflight = runtime.migration.inflight_reserved()
        recovery = runtime.recovery
        reserved = (recovery.reserved_by_machine()
                    if recovery is not None else {})
        held = 0
        for m in runtime.cluster.machines:
            memory = m.memory
            used = memory.used
            if not m.up:
                if used != 0.0:
                    self._fail(f"crashed {m.name} holds "
                               f"{used:.0f} B of DRAM")
                if runtime.locator._by_machine.get(m):
                    self._fail(f"crashed {m.name} still hosts proclets "
                               f"{runtime.locator.proclets_on(m)}")
            else:
                mid = m.id
                footprints = resident.get(mid, 0)
                in_flight = inflight.get(mid, 0.0)
                ckpt = reserved.get(mid, 0.0)
                held += ckpt
                expected = footprints + memory.ballast + in_flight + ckpt
                if not math.isclose(used, expected,
                                    rel_tol=1e-9, abs_tol=_MEM_EPS):
                    self._fail(
                        f"{m.name} DRAM ledger {used:.1f} B != "
                        f"{expected:.1f} B (residents {footprints:.1f} + "
                        f"ballast {memory.ballast:.1f} + in-flight "
                        f"{in_flight:.1f} + checkpoints {ckpt:.1f})")
                if used > memory.capacity + _MEM_EPS:
                    self._fail(f"{m.name} DRAM oversubscribed: "
                               f"{used:.0f} / {memory.capacity:.0f} B")
            self._check_fluid(m.cpu.sched)
            self._check_fluid(m.nic.tx)
            if m.gpus is not None:
                self._check_fluid(m.gpus.sched)
            storage = m.storage
            if storage is not None:
                self._check_fluid(storage.iops)
                self._check_fluid(storage.read_bw)
                self._check_fluid(storage.write_bw)
        return held

    def _check_fluid(self, sched) -> None:
        if sched._dirty:
            # A coalesced reassignment is pending; it will flush before
            # time advances and the next event re-checks.
            return
        items = sched._items
        capacity = sched.capacity
        eps = _RATE_EPS * max(1.0, capacity)
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

    def _check_recovery(self, held: float) -> None:
        """Invariants 5–7 (cheap no-ops without repro.ft); *held* is the
        machines' view of the checkpoint bytes (invariant 6)."""
        runtime = self.runtime
        lost = runtime._lost
        if not runtime._proclets.keys().isdisjoint(lost):
            pid = min(lost.intersection(runtime._proclets))
            self._fail(f"proclet #{pid} is both live and lost "
                       f"(double incarnation)")
        incarnations = runtime._incarnations
        seen = self._incarnation_seen
        if incarnations != seen:
            for pid, inc in incarnations.items():
                prev = seen.get(pid, 0)
                if inc < prev:
                    self._fail(f"proclet #{pid} incarnation regressed "
                               f"{prev} -> {inc}")
                seen[pid] = inc
        recovery = runtime.recovery
        if recovery is None:
            return
        if not math.isclose(held, recovery.checkpoint_bytes_held,
                            rel_tol=1e-9, abs_tol=_MEM_EPS):
            self._fail(
                f"checkpoint bytes not conserved: machines hold "
                f"{held:.1f} B, manager ledger says "
                f"{recovery.checkpoint_bytes_held:.1f} B")
        if recovery.convergence_errors:
            self._fail("recovered state diverged: "
                       + "; ".join(recovery.convergence_errors))

    def _check_clones(self) -> None:
        """Clone-set hygiene (invariant 8)."""
        now = self.runtime.sim.now
        for call in self.runtime._clone_calls:
            winners = sum(1 for att in call.attempts if att.won)
            if winners > 1:
                self._fail(f"{call!r} has {winners} winners")
            if not call.decided:
                continue
            if winners == 0 and call.process is not None \
                    and call.process.triggered and call.process.ok:
                self._fail(f"{call!r} decided successfully without a "
                           f"winning attempt")
            if now <= call.decided_at:
                # Cancellation lands within the decision instant; give
                # the interrupt wakeups this timestamp to process.
                continue
            for att in call.attempts:
                if att.won:
                    continue
                if not att.process.triggered:
                    self._fail(
                        f"{call!r}: losing clone {att.index} still alive "
                        f"{now - call.decided_at:.6f}s after the "
                        f"decision (cancel leaked)")
                for item in att.work_items:
                    if item.active:
                        self._fail(
                            f"{call!r}: cancelled clone {att.index} "
                            f"leaked active work item {item.name!r}")

    def _check_shard_tables(self) -> Optional[Tuple[Dict[int, Set[int]],
                                                    Set[int]]]:
        """Invariant 9's table checks, one pass per tracked structure.
        Returns each structure's table pids (keyed by ``id``) and the
        ledger-protected pids for the orphan check, or None when no
        sharded structure is tracked."""
        runtime = self.runtime
        ledger = getattr(runtime, "reshard_ledger", None)
        if ledger is None or not ledger._structures:
            return None
        protected = ledger.protected_ids()
        lost = runtime._lost
        live = runtime._proclets.get
        recovery = runtime.recovery
        restoring = recovery._restoring if recovery is not None else ()
        tables: Dict[int, Set[int]] = {}
        for ds in ledger._structures:
            shards = ds.shards
            los = getattr(ds, "_los", None)
            if los is not None:
                self._check_bounds(ds, shards, los)
            table = tables[id(ds)] = set()
            last = len(shards) - 1
            for i, shard in enumerate(shards):
                pid = shard.ref.proclet_id
                table.add(pid)
                proclet = live(pid)
                if proclet is None:
                    # Lost to a machine failure (recovery's problem) or
                    # destroyed inside a still-settling reshard op (the
                    # legacy merge's completion-subscriber window).
                    if pid not in lost and pid not in protected:
                        self._fail(
                            f"{ds.name}: routing table entry #{pid} is "
                            f"destroyed with no active reshard op "
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
        return tables, protected

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

    def _check_proclets(self, tables) -> None:
        """Invariant 4 and invariant 9's orphan check, in one pass over
        the live proclets; *tables* is :meth:`_check_shard_tables`'s
        result."""
        now = self.runtime.sim.now
        gate_seen = self._gate_seen
        live_gates: Set[int] = set()
        owned = protected = None
        if tables is not None:
            owned, protected = tables
        for pid, proclet in self.runtime._proclets.items():
            status = proclet._status
            if status is not _RUNNING:
                if status is _DEAD:
                    self._fail(f"{proclet.name} is DEAD but still "
                               f"registered")
                if status is _MIGRATING:
                    gate = proclet._migration_gate
                    if gate is None:
                        self._fail(f"{proclet.name} MIGRATING without a "
                                   f"gate")
                    if gate.triggered:
                        self._fail(f"{proclet.name} MIGRATING behind an "
                                   f"already-open gate")
                    key = id(gate)
                    live_gates.add(key)
                    first = gate_seen.setdefault(key, now)
                    if now - first > self.gate_timeout:
                        self._fail(
                            f"{proclet.name} gated for "
                            f"{now - first:.3f}s > {self.gate_timeout:.3f}s "
                            f"(permanently gated?)")
            if owned is None:
                continue
            # No orphaned children: a live shard proclet outside its
            # owner's routing table is legal only mid-reshard
            # (ledger-protected).
            owner = getattr(proclet, "shard_owner", None)
            if owner is None:
                continue
            table = owned.get(id(owner))
            if table is not None and pid not in table \
                    and pid not in protected:
                self._fail(
                    f"{owner.name}: live shard {proclet.name} is missing "
                    f"from the routing table and no active reshard op "
                    f"protects it (orphaned child shard)")
        # Forget gates that opened, so ids can be reused safely.  Every
        # live gate was just recorded, so equal sizes mean none opened.
        if len(gate_seen) != len(live_gates):
            for key in list(gate_seen):
                if key not in live_gates:
                    del gate_seen[key]

    def __repr__(self) -> str:
        return (f"<InvariantChecker checks={self.checks} "
                f"oracle={'on' if self.oracle else 'off'} "
                f"stride={self.stride}>")
