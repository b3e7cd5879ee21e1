"""The Nu runtime: spawning, invoking, and migrating proclets.

This is the substrate layer the paper builds Quicksand on (§2): a
distributed runtime spanning all machines that makes proclet method
invocation location-transparent and migration fast.  The Quicksand layer
(:mod:`repro.core`) adds resource-specialized proclets, adaptive
split/merge, and the two-level scheduler on top.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Generator, List, Optional

from ..cluster import Cluster, Machine, Priority
from ..metrics import Summary
from ..obs import Decision
from ..sim import Event, Process
from .context import Context
from .errors import DeadProclet, MachineFailed, ProcletLost, UnknownMethod
from .locator import Locator
from .migration import MigrationConfig, MigrationEngine
from .proclet import Proclet, ProcletStatus
from .ref import Payload, ProcletRef
from .reshard import ReshardLedger


class NuRuntime:
    """Distributed proclet runtime over a simulated cluster."""

    def __init__(self, cluster: Cluster,
                 migration_config: MigrationConfig = MigrationConfig()):
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.metrics = cluster.metrics
        #: Every control-plane decision of the run, in order; written
        #: only by :meth:`decide`.
        self.decisions: List[Decision] = []
        self.locator = Locator()
        self.migration = MigrationEngine(self, migration_config)
        #: Ledger of in-flight shard split/merge operations; the chaos
        #: invariant checker audits every structural change through it.
        self.reshard_ledger = ReshardLedger(self.sim)
        #: The gate ledger: each open gate window, oldest first, as
        #: ``pid -> (kind, opened at, gate event, span)``.  Written only
        #: by :meth:`gate` and :meth:`ungate`, which files each closed
        #: window's duration under its kind in :attr:`gate_windows`.
        self.gates: Dict[int, tuple] = {}
        self.gate_windows: Dict[str, List[float]] = {}
        self._proclets: Dict[int, Proclet] = {}
        # Ids of proclets killed by machine failures: lookups through a
        # stale ref raise ProcletLost instead of the generic DeadProclet.
        # Query through is_lost()/lost_proclets(); a RecoveryManager may
        # move an id back out via respawn().
        self._lost: set = set()
        # Proclet-id -> incarnation number, bumped by every respawn().
        # At most one incarnation of an id is ever live (see respawn).
        self._incarnations: Dict[int, int] = {}
        self._next_id = 0
        self.local_calls = 0
        self.remote_calls = 0
        #: The attached repro.ft.RecoveryManager, or None (the default:
        #: fail-stop semantics, bit-identical to runs without repro.ft).
        self.recovery = None
        self._heap_listeners: List[Callable[[Proclet], None]] = []
        #: Called as fn(caller_proclet_id_or_None, callee_id, remote: bool)
        #: on every invocation — feeds the affinity tracker.
        self._invocation_listeners: List[Callable] = []
        #: Called as fn(machine, lost_proclets) after fail_machine has
        #: finished tearing a machine down (recovery bookkeeping hook).
        self._failure_listeners: List[Callable] = []
        #: Called as fn(machine) after restore_machine brings a crashed
        #: machine back (placement-index rebucketing hook).
        self._restore_listeners: List[Callable] = []
        #: Called as fn(proclet_id) after a write to a proclet's status,
        #: migration gate or restore flag that the locator does not
        #: report (migration, split/merge gating, recovery), and as
        #: fn(machine) after the migration or checkpoint reservations
        #: held on *machine* change.  The chaos invariant checker's
        #: dirty tracking appends to these while attached.
        self._proclet_state_listeners: List[Callable[[int], None]] = []
        self._reservation_listeners: List[Callable] = []

    # -- lifecycle ----------------------------------------------------------
    def spawn(self, proclet: Proclet, machine: Machine,
              name: str = "") -> ProcletRef:
        """Place *proclet* on *machine* and return its reference.

        Charges the proclet's footprint against the machine's DRAM;
        raises :class:`repro.cluster.OutOfMemory` if it cannot fit.
        Runs the proclet's ``on_start`` hook as its first invocation.
        """
        if proclet._id is not None:
            raise ValueError(f"{proclet!r} was already spawned")
        if not machine.up:
            raise MachineFailed(
                f"cannot spawn {type(proclet).__name__} on crashed "
                f"machine {machine.name}")
        machine.memory.reserve(proclet.footprint)
        pid = self._next_id
        self._next_id += 1
        return self._start(proclet, machine, pid, name, "spawn")

    def destroy(self, ref: ProcletRef) -> None:
        """Tear down a proclet, releasing its DRAM immediately.  A gated
        proclet's gate opens, so its blocked callers see it DEAD and
        fail with :class:`DeadProclet`."""
        proclet = self._proclets.get(ref.proclet_id)
        if proclet is None or proclet._status is ProcletStatus.DEAD:
            return  # destroy is idempotent
        proclet._machine.memory.release(proclet.footprint)
        proclet._status = ProcletStatus.DEAD
        self.ungate(proclet, outcome="destroyed")
        self.locator.remove(proclet.id)
        del self._proclets[proclet.id]
        self.metrics.count("runtime.destroys")
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("lifecycle", f"destroy {proclet._name}",
                       parent=proclet._span,
                       track=f"machine:{proclet._machine.name}")
            tr.end(proclet._span, outcome="destroyed")

    # -- lookup ----------------------------------------------------------------
    def get_proclet(self, proclet_id: int) -> Proclet:
        proclet = self._proclets.get(proclet_id)
        if proclet is None:
            if proclet_id in self._lost:
                raise ProcletLost(
                    f"proclet #{proclet_id} was lost to a machine failure")
            raise DeadProclet(f"proclet #{proclet_id} does not exist")
        return proclet

    def proclets_on(self, machine: Machine) -> List[Proclet]:
        return [self._proclets[pid]
                for pid in self.locator.proclets_on(machine)]

    @property
    def proclet_count(self) -> int:
        return len(self._proclets)

    # -- failure bookkeeping (public surface) --------------------------------
    def is_lost(self, proclet_id: int) -> bool:
        """True while *proclet_id* is dead due to a machine failure (as
        opposed to destroyed or never spawned).  A recovery manager may
        later clear this by respawning the id."""
        return proclet_id in self._lost

    def lost_proclets(self) -> List[int]:
        """Sorted ids of all proclets currently lost to machine
        failures."""
        return sorted(self._lost)

    def incarnation_of(self, proclet_id: int) -> int:
        """How many times *proclet_id* has been respawned (0 = the
        original incarnation)."""
        return self._incarnations.get(proclet_id, 0)

    def respawn(self, proclet: Proclet, machine: Machine,
                proclet_id: int, name: str = "") -> ProcletRef:
        """Bring a lost proclet id back to life as a new incarnation.

        *proclet* is a fresh (never-spawned) object that takes over
        *proclet_id*, so existing :class:`ProcletRef`\\ s transparently
        resolve to the new incarnation.  Only ids lost to machine
        failures can be respawned — at most one incarnation of an id is
        ever live.  State restoration (checkpoint install, replica
        promotion, lineage replay) is the caller's job; see
        :mod:`repro.ft`.
        """
        if proclet._id is not None:
            raise ValueError(f"{proclet!r} was already spawned")
        if proclet_id not in self._lost:
            raise ValueError(
                f"proclet #{proclet_id} is not lost; only proclets lost "
                f"to machine failures can be respawned")
        if not machine.up:
            raise MachineFailed(
                f"cannot respawn proclet #{proclet_id} on crashed "
                f"machine {machine.name}")
        machine.memory.reserve(proclet.footprint)
        self._lost.discard(proclet_id)
        incarnation = self._incarnations.get(proclet_id, 0) + 1
        self._incarnations[proclet_id] = incarnation
        return self._start(proclet, machine, proclet_id, name, "respawn",
                           incarnation=incarnation)

    def _start(self, proclet: Proclet, machine: Machine, pid: int,
               name: str, verb: str, **span_args) -> ProcletRef:
        """The body :meth:`spawn` and :meth:`respawn` share: wire
        *proclet* (its DRAM already reserved on *machine*) in as *pid*,
        register and place it, count and trace the *verb*, and run its
        ``on_start`` hook as its first invocation."""
        proclet._runtime = self
        proclet._id = pid
        proclet._name = name or f"{type(proclet).__name__}#{pid}"
        proclet._machine = machine
        proclet._status = ProcletStatus.RUNNING
        self._proclets[pid] = proclet
        self.locator.place(pid, machine)
        self.metrics.count(f"runtime.{verb}s")
        tr = self.sim.tracer
        if tr is not None:
            proclet._span = tr.begin(
                "proclet", proclet._name, track=f"proclet:{proclet._name}",
                machine=machine.name, footprint=proclet.footprint,
                **span_args)
            tr.instant("lifecycle", f"{verb} {proclet._name}",
                       parent=proclet._span, track=f"machine:{machine.name}")
        ref = ProcletRef(self, pid, proclet._name)
        if type(proclet).on_start is not Proclet.on_start:
            self.invoke(ref, "on_start", caller_machine=machine,
                        retryable=False)
        return ref

    # -- gating ---------------------------------------------------------------
    def gate(self, proclet: Proclet, kind: str, parent=None) -> Event:
        """Close *proclet*'s gate and return it: new invocations block
        until :meth:`ungate` (or a crash of its machine) opens it.

        Migration, shard split/merge, compute split and checkpoint
        restore all hold a proclet dark this way; *kind* names which
        (``migration``, ``reshard.split``, ``reshard.merge``,
        ``compute.split`` or ``restore``) in the gate ledger.  The
        ``gate`` span nests under *parent*, or under the proclet's
        lifetime span when none is given.
        """
        proclet._status = ProcletStatus.MIGRATING
        gate = proclet._migration_gate = self.sim.event()
        span = None
        tr = self.sim.tracer
        if tr is not None:
            span = tr.begin(
                "gate", f"gated:{proclet.name}",
                parent=proclet._span if parent is None else parent,
                track=f"proclet:{proclet.name}")
        self.gates[proclet.id] = (kind, self.sim._now, gate, span)
        self._notify_proclet_state(proclet.id)
        return gate

    def ungate(self, proclet: Proclet, **outcome) -> None:
        """Open *proclet*'s gate, waking blocked callers; a live proclet
        runs again.  The window's duration is filed under its kind, and
        *outcome* becomes the ``gate`` span's end args.  Does nothing
        when the proclet is not gated (a crash of its machine already
        opened the gate)."""
        gate = proclet._migration_gate
        if gate is None:
            return
        proclet._migration_gate = None
        if proclet._status is ProcletStatus.MIGRATING:
            proclet._status = ProcletStatus.RUNNING
        if not gate.triggered:
            gate.succeed()
        kind, opened, _gate, span = self.gates.pop(proclet.id)
        self.gate_windows.setdefault(kind, []).append(self.sim._now - opened)
        self._notify_proclet_state(proclet.id)
        tr = self.sim.tracer
        if tr is not None:
            tr.end(span, **outcome)

    def gate_summary(self) -> Dict[str, Summary]:
        """The closed gate windows' durations (seconds), summarised per
        kind."""
        return {kind: Summary.of(windows)
                for kind, windows in sorted(self.gate_windows.items())}

    # -- invocation -------------------------------------------------------------
    def invoke(self, ref: ProcletRef, method: str, *args,
               caller_machine: Optional[Machine] = None,
               caller_proclet_id: Optional[int] = None,
               priority: Priority = Priority.NORMAL,
               req_bytes: float = 0.0, retryable: bool = True,
               **kwargs) -> Process:
        """Invoke *method* on the proclet behind *ref*.

        Returns a process event whose value is the method's return value.
        Colocated caller -> cheap function call; remote caller -> RPC
        round trip (plus bulk transfers for ``req_bytes`` and any
        :class:`Payload` response).  Invocations issued while the target
        is migrating block until the migration completes (§3.3).

        When a :mod:`repro.ft` recovery manager covers the target,
        losing it to a machine failure does not surface
        :class:`ProcletLost` immediately: the call backs off (budgeted
        exponential delay + seeded jitter) and transparently retries
        against the respawned incarnation (at-least-once semantics).
        Pass ``retryable=False`` for calls that must not re-execute,
        e.g. worker-loop drivers restarted by ``on_start`` instead.
        """
        return self.sim.process(
            self._invoke_proc(ref, method, args, kwargs, caller_machine,
                              caller_proclet_id, priority, req_bytes,
                              retryable),
            name=f"call:{ref._name}.{method}",
        )

    # -- decisions ------------------------------------------------------------
    def decide(self, category: str, message: str, span=None,
               **fields) -> None:
        """Record one control-plane decision in :attr:`decisions`.

        The only writer of a decision.  With a span tracer attached, the
        decision also closes *span* (the span of the operation it
        concludes) with *fields* as end args, or, given no span, is
        recorded as an instant span of the same category and message.
        """
        self.decisions.append(Decision(self.sim._now, category, message,
                                       fields))
        tr = self.sim.tracer
        if tr is not None:
            if span is None:
                tr.instant(category, message, **fields)
            else:
                tr.end(span, **fields)

    def _invoke_proc(self, ref: ProcletRef, method: str, args, kwargs,
                     caller_machine: Optional[Machine],
                     caller_proclet_id: Optional[int], priority: Priority,
                     req_bytes: float, retryable: bool = True) -> Generator:
        # One generator per call: each attempt runs inline in the retry
        # loop, so every resume of the method body passes through one
        # frame fewer than with a nested per-attempt generator.
        attempt = 0
        while True:
            try:
                proclet = self.get_proclet(ref.proclet_id)

                # Block while the target is mid-migration (possibly
                # repeatedly).
                while proclet._status is ProcletStatus.MIGRATING:
                    yield proclet._migration_gate
                if proclet._status is ProcletStatus.DEAD:
                    raise DeadProclet(f"{ref!r} was destroyed")

                target = proclet._machine
                # Where does the caller *believe* the proclet lives?
                # The request first travels to the host in the caller's
                # location cache and pays a forwarding hop when the
                # proclet has moved since (Nu's lazy cache-refresh
                # protocol).
                believed = target
                if caller_machine is not None:
                    believed = self.locator.cached_lookup(caller_machine,
                                                          proclet._id)
                remote = caller_machine is not None and (
                    caller_machine is not target or believed is not target)
                for listener in self._invocation_listeners:
                    listener(caller_proclet_id, proclet._id, remote)
                if remote:
                    self.remote_calls += 1
                    hops = []
                    if believed is not caller_machine:
                        hops.append((caller_machine, believed))
                    if believed is not target:
                        # Stale cache: the believed host forwards to the
                        # actual one and the caller's cache is refreshed.
                        hops.append((believed, target))
                        self.locator.note_forwarded(caller_machine,
                                                    proclet._id)
                    for src, dst in hops:
                        yield self.sim.timeout(self.fabric.oneway_delay())
                        if req_bytes > 0 and src is not dst:
                            yield self.fabric.transfer(
                                src, dst, req_bytes, priority=int(priority),
                                name=f"req:{method}")
                else:
                    self.local_calls += 1
                    yield self.sim.timeout(
                        self.fabric.spec.local_call_overhead)

                fn = getattr(proclet, method, None)
                if fn is None or not callable(fn):
                    raise UnknownMethod(f"{type(proclet).__name__}.{method}")

                ctx = Context(self, proclet, priority)
                proclet._inflight += 1
                try:
                    result = fn(ctx, *args, **kwargs)
                    if inspect.isgenerator(result):
                        result = yield from result
                finally:
                    proclet._inflight -= 1

                resp_bytes = 0.0
                if isinstance(result, Payload):
                    resp_bytes = result.nbytes
                    result = result.value

                if remote:
                    # The proclet may have moved while executing; the
                    # response flows from wherever it lives now.
                    source = proclet._machine if proclet._status is not \
                        ProcletStatus.DEAD else target
                    yield self.sim.timeout(self.fabric.oneway_delay())
                    if resp_bytes > 0 and caller_machine is not source:
                        yield self.fabric.transfer(
                            source, caller_machine, resp_bytes,
                            priority=int(priority), name=f"resp:{method}")
                return result
            except (ProcletLost, MachineFailed) as exc:
                # Transparent retry: only when a recovery manager covers
                # the target and the failure is the *target* being lost
                # (a MachineFailed from the caller's own resources must
                # surface — the callee may be perfectly healthy).
                recovery = self.recovery
                if recovery is None or not retryable:
                    raise
                if not (isinstance(exc, ProcletLost)
                        or ref.proclet_id in self._lost):
                    raise
                delay = recovery.retry_delay(ref.proclet_id, attempt, exc)
                if delay is None:
                    raise
                attempt += 1
                self.metrics.count("ft.call_retries")
                yield self.sim.timeout(delay)

    # -- migration ----------------------------------------------------------------
    def migrate(self, ref_or_proclet, dst: Machine) -> Process:
        """Migrate a proclet to *dst*; returns the completion event
        (value: migration latency in seconds)."""
        proclet = (ref_or_proclet if isinstance(ref_or_proclet, Proclet)
                   else self.get_proclet(ref_or_proclet.proclet_id))
        return self.migration.migrate(proclet, dst)

    # -- failure injection --------------------------------------------------------
    def fail_machine(self, machine: Machine) -> List[Proclet]:
        """Crash *machine*: every hosted proclet dies, its DRAM is gone,
        and work in flight there fails with :class:`MachineFailed`.

        Models fail-stop node loss for fault-injection tests; returns
        the proclets that were lost.  The rest of the cluster keeps
        running (granular fault isolation, §5).  Afterwards the machine
        is marked down (``machine.up`` is False): it refuses spawns and
        placement, its cores and NIC are gone, and in-flight migrations
        targeting it abort with :class:`MigrationFailed` at their next
        checkpoint.  A later :meth:`restore_machine` brings it back
        empty.  Idempotent on an already-down machine.
        """
        if not machine.up:
            return []
        lost = self.proclets_on(machine)
        exc = MachineFailed(f"machine {machine.name} failed")
        tr = self.sim.tracer
        for proclet in lost:
            proclet._status = ProcletStatus.DEAD
            # Blocked callers re-check and see DEAD.
            self.ungate(proclet, outcome="machine-failed")
            self.locator.remove(proclet.id)
            del self._proclets[proclet.id]
            self._lost.add(proclet.id)
            if tr is not None:
                tr.end(proclet._span, outcome="machine-failed")
        # Fail all in-flight work on the machine's resources (method
        # bodies and remote waiters observe MachineFailed).
        machine.cpu.sched.fail_all(exc)
        machine.nic.tx.fail_all(exc)
        if machine.gpus is not None:
            machine.gpus.sched.fail_all(exc)
        if machine.storage is not None:
            machine.storage.iops.fail_all(exc)
            machine.storage.read_bw.fail_all(exc)
            machine.storage.write_bw.fail_all(exc)
        # Fail-stop the hardware: cores offline, NIC down, DRAM wiped.
        machine.fail()
        self.metrics.count("runtime.machine_failures")
        self.decide("failure", f"machine {machine.name} crashed",
                    lost_proclets=len(lost))
        # Recovery bookkeeping hooks run last, against the settled
        # post-crash state (machine down, proclets deregistered).
        for listener in self._failure_listeners:
            listener(machine, lost)
        return lost

    def restore_machine(self, machine: Machine) -> None:
        """Bring a crashed machine back online, empty and at full spec
        capacity.  Proclets lost in the crash stay dead (fail-stop, no
        disk-backed resurrection); placement simply starts considering
        the machine again.  Idempotent on an up machine."""
        if machine.up:
            return
        machine.restore()
        self.metrics.count("runtime.machine_restores")
        self.decide("failure", f"machine {machine.name} restored")
        for listener in self._restore_listeners:
            listener(machine)

    # -- heap-change notifications (split/merge controller hook) -----------------
    def on_heap_change(self, fn: Callable[[Proclet], None]) -> None:
        self._heap_listeners.append(fn)

    def on_invocation(self, fn: Callable) -> None:
        """Subscribe to every invocation (affinity-tracking hook)."""
        self._invocation_listeners.append(fn)

    def on_machine_failure(self, fn: Callable) -> None:
        """Subscribe ``fn(machine, lost_proclets)`` to machine crashes
        (called synchronously at the end of :meth:`fail_machine`)."""
        self._failure_listeners.append(fn)

    def on_machine_restore(self, fn: Callable) -> None:
        """Subscribe ``fn(machine)`` to machine restores (called
        synchronously at the end of :meth:`restore_machine`)."""
        self._restore_listeners.append(fn)

    def _notify_heap_change(self, proclet: Proclet) -> None:
        for fn in self._heap_listeners:
            fn(proclet)

    def _notify_proclet_state(self, proclet_id: int) -> None:
        for fn in self._proclet_state_listeners:
            fn(proclet_id)

    def _notify_reservation(self, machine: Machine) -> None:
        for fn in self._reservation_listeners:
            fn(machine)
