"""Proclet migration: the mechanism that makes applications fungible.

Timeline (matching Nu's design, §2 of the paper):

1. mark the proclet MIGRATING — new invocations block on a gate;
2. detach its running CPU work items from the source machine (threads
   pause, their remaining work is preserved);
3. reserve DRAM at the destination; a *transient* failure (destination
   momentarily out of memory, or an injected chaos fault) backs off and
   retries up to ``max_retries`` times before surfacing
   :class:`MigrationFailed`;
4. copy the heap over the fabric (tx-bandwidth contention applies) plus
   a fixed control overhead;
5. release source DRAM, flip the locator entry;
6. reattach CPU items at the destination and open the gate.

With the default constants a proclet with 10 MiB of heap migrates in
about one millisecond over a 100 Gbit/s NIC, matching the number the
paper quotes for Nu.

Crash safety: either endpoint may fail-stop mid-migration.  If the
source dies the proclet dies with it (the runtime's fail path triggers
the gate and fails paused work so callers never hang); if the
destination dies the migration aborts back to the source with
:class:`MigrationFailed` and the destination reservation is reconciled
against the machine's *incarnation* counter (a reservation made against
a wiped DRAM must not be double-released).  In-flight destination
reservations are tracked so the chaos invariant checker can account for
every reserved byte at any instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Tuple

from ..cluster import Machine, OutOfMemory
from ..units import US
from .errors import MigrationFailed
from .proclet import Proclet, ProcletStatus


@dataclass(frozen=True)
class MigrationConfig:
    """Tunable constants of the migration mechanism."""

    #: Control-plane cost paid before the copy (pause, unmap, messages).
    fixed_overhead: float = 50 * US
    #: Control-plane cost paid after the copy (remap, resume, update).
    resume_overhead: float = 50 * US
    #: Transient destination failures retried this many times before the
    #: migration surfaces :class:`MigrationFailed`.
    max_retries: int = 2
    #: Delay before the first retry; each further retry multiplies it.
    retry_backoff: float = 200 * US
    backoff_multiplier: float = 2.0
    #: Fraction of the current backoff added as seeded random jitter
    #: (drawn from the ``runtime.migration.jitter`` stream, so replays
    #: stay deterministic).  Pure exponential backoff synchronizes
    #: concurrent retries into a stampede against a just-restored
    #: machine; any jitter > 0 desynchronizes them.  The default 0
    #: preserves the historical bit-identical trajectories.
    retry_jitter: float = 0.0

    def __post_init__(self):
        if self.fixed_overhead < 0 or self.resume_overhead < 0:
            raise ValueError("migration overheads must be non-negative")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be non-negative")


class MigrationEngine:
    """Executes proclet migrations for the runtime."""

    def __init__(self, runtime, config: MigrationConfig = MigrationConfig()):
        self.runtime = runtime
        self.config = config
        self.migrations_started = 0
        self.migrations_completed = 0
        self.migrations_failed = 0
        self.migrations_retried = 0
        #: Chaos hook, called once per reservation attempt as
        #: ``fn(proclet, dst) -> bool``; returning True injects a
        #: transient failure into that attempt (retried like OOM).
        self.fault_hook: Optional[Callable[[Proclet, Machine], bool]] = None
        # Destination DRAM held by in-flight migrations:
        # proclet id -> (dst, bytes, dst incarnation at reserve time).
        self._inflight: Dict[int, Tuple[Machine, float, int]] = {}

    def inflight_reserved_on(self, machine: Machine) -> float:
        """Bytes of *machine*'s DRAM reserved by in-flight migrations
        (for accounting invariants)."""
        return self.inflight_reserved().get(machine.id, 0.0)

    def inflight_reserved(self) -> Dict[int, float]:
        """:meth:`inflight_reserved_on` for every destination holding a
        reservation, keyed by machine id, in one pass over the in-flight
        migrations."""
        totals: Dict[int, float] = {}
        for dst, nbytes, inc in self._inflight.values():
            if inc == dst.incarnation:
                totals[dst.id] = totals.get(dst.id, 0.0) + nbytes
        return totals

    def migrate(self, proclet: Proclet, dst: Machine):
        """Start migrating *proclet* to *dst*; returns the completion
        process event (value: migration latency in seconds)."""
        tr = self.runtime.sim.tracer
        # The span parent must be captured *here*, synchronously: the
        # generator body only starts on a later event-queue pop, by which
        # time the scheduler region that requested this migration has
        # already been exited.
        parent = tr.current if tr is not None else None
        return self.runtime.sim.process(
            self._migrate_proc(proclet, dst, parent),
            name=f"migrate:{proclet.name}",
        )

    def _release_inflight(self, proclet: Proclet) -> None:
        """Drop the in-flight reservation, returning the DRAM unless the
        destination crashed (wiping it) since the reservation was made."""
        entry = self._inflight.pop(proclet.id, None)
        if entry is None:
            return
        dst, nbytes, inc = entry
        self.runtime._notify_reservation(dst)
        if dst.up and dst.incarnation == inc:
            dst.memory.release(nbytes)

    def _migrate_proc(self, proclet: Proclet, dst: Machine,
                      parent=None) -> Generator:
        sim = self.runtime.sim
        config = self.config
        src = proclet.machine
        if proclet.status is ProcletStatus.DEAD:
            raise MigrationFailed(f"{proclet!r} is dead")
        if proclet.status is ProcletStatus.MIGRATING:
            raise MigrationFailed(f"{proclet!r} is already migrating")
        if dst is src:
            return 0.0
        if not dst.up:
            raise MigrationFailed(f"destination {dst.name} is down")

        self.migrations_started += 1
        t0 = sim.now
        # Heap size is snapshotted once for the reservation and the copy;
        # the commit settles any heap change made mid-flight.
        nbytes = proclet.footprint

        tr = sim.tracer
        mig_span = phase = None
        if tr is not None:
            mig_span = tr.begin(
                "migration", f"{proclet.name} {src.name}->{dst.name}",
                parent=parent, track=f"proclet:{proclet.name}",
                bytes=int(nbytes), path=f"{src.name}->{dst.name}")
        self.runtime.gate(proclet, "migration", parent=mig_span)
        if tr is not None:
            # Checkpoint phase: pause, destination reservation (with any
            # retries), and the pre-copy control overhead.
            phase = tr.begin("checkpoint", "checkpoint", parent=mig_span,
                             track=f"machine:{src.name}")

        # Pause: detach running CPU work (threads freeze mid-computation).
        paused = list(proclet._active_cpu)
        for item in paused:
            if item.active:
                item._sched.detach(item)

        def _abort_to_src():
            # Reopen shop at the source.  Only reachable while the
            # proclet still lives there — if the source died, the
            # runtime's fail path already killed proclet and gate.
            for item in paused:
                if not item.active and not item.triggered:
                    src.cpu.sched.attach(item)
            self.runtime.ungate(proclet, outcome="aborted")

        def _fail(msg: str, cause: Optional[BaseException] = None):
            self.migrations_failed += 1
            if proclet._status is ProcletStatus.MIGRATING:
                _abort_to_src()
            if tr is not None:
                tr.end(phase, outcome="failed")
                tr.end(mig_span, outcome="failed", error=msg)
            exc = MigrationFailed(msg)
            exc.__cause__ = cause
            return exc

        # Reserve at destination, retrying transient failures with
        # exponential backoff (the proclet stays gated while backing off).
        attempt = 0
        backoff = config.retry_backoff
        while True:
            if proclet._status is ProcletStatus.DEAD:
                raise _fail(f"{proclet.name}: source machine died "
                            f"mid-migration")
            if not dst.up:
                raise _fail(f"destination {dst.name} went down")
            transient: Optional[BaseException] = None
            try:
                dst.memory.reserve(nbytes)
            except OutOfMemory as exc:
                transient = exc
            if transient is None and self.fault_hook is not None \
                    and self.fault_hook(proclet, dst):
                dst.memory.release(nbytes)
                transient = MigrationFailed(
                    f"injected transient fault migrating {proclet.name} "
                    f"to {dst.name}")
            if transient is None:
                break
            if attempt >= config.max_retries:
                raise _fail(f"{transient} (after {attempt} retries)",
                            cause=transient)
            attempt += 1
            self.migrations_retried += 1
            self.runtime.metrics.count("runtime.migration.retries")
            delay = backoff
            if config.retry_jitter > 0.0:
                rng = sim.random.stream("runtime.migration.jitter")
                delay += backoff * config.retry_jitter * rng.random()
            yield sim.timeout(delay)
            backoff *= config.backoff_multiplier

        self._inflight[proclet.id] = (dst, nbytes, dst.incarnation)
        self.runtime._notify_reservation(dst)
        try:
            yield sim.timeout(config.fixed_overhead)
            self._checkpoint(proclet, dst)
            if tr is not None:
                tr.end(phase)
                phase = tr.begin("transfer", "transfer", parent=mig_span,
                                 track=f"machine:{src.name}",
                                 bytes=int(nbytes), nic=src.name)
            xfer = self.runtime.fabric.transfer(
                src, dst, nbytes, name=f"mig:{proclet.name}",
            )
            yield xfer
            self._checkpoint(proclet, dst)
            if tr is not None:
                tr.end(phase)
                phase = tr.begin("commit", "commit", parent=mig_span,
                                 track=f"machine:{dst.name}")
            yield sim.timeout(config.resume_overhead)
            self._checkpoint(proclet, dst)
        except MigrationFailed as exc:
            self._release_inflight(proclet)
            raise _fail(str(exc), cause=exc.__cause__ or exc.__context__)
        except GeneratorExit:
            # The process was abandoned (simulation ended mid-copy and
            # the generator is being finalized).  Raising anything other
            # than GeneratorExit here would surface during GC — at an
            # arbitrary point in the host program — so just reconcile
            # the reservation and let close() complete.
            self._release_inflight(proclet)
            raise
        except BaseException as exc:
            # e.g. MachineFailed thrown into the copy when the source's
            # NIC work was failed by a crash.
            self._release_inflight(proclet)
            raise _fail(f"{proclet.name}: {exc}", cause=exc)

        # Commit: move accounting and location.  Heap changes made while
        # the proclet was in flight were charged to the source; they move
        # with it.
        grown = proclet.footprint - nbytes
        if grown > 0 and not dst.memory.can_fit(grown):
            self._release_inflight(proclet)
            raise _fail(f"{proclet.name}: heap grew {grown:.0f} B "
                        f"mid-migration and {dst.name} cannot fit it")
        self._inflight.pop(proclet.id, None)
        self.runtime._notify_reservation(dst)
        src.memory.release(nbytes + grown)
        if grown > 0:
            dst.memory.reserve(grown)
        elif grown < 0:
            dst.memory.release(-grown)
        proclet._machine = dst
        self.runtime.locator.move(proclet.id, dst)

        # Resume threads at the destination.
        for item in paused:
            if not item.active and not item.triggered:
                dst.cpu.sched.attach(item)

        proclet.migrations += 1
        self.runtime.ungate(proclet)

        latency = sim.now - t0
        if tr is not None:
            tr.end(phase)
        self.migrations_completed += 1
        m = self.runtime.metrics
        m.count("runtime.migrations")
        m.observe("runtime.migration.latency", latency)
        m.observe("runtime.migration.bytes", nbytes)
        self.runtime.decide(
            "migration", f"{proclet.name} {src.name}->{dst.name}",
            span=mig_span, bytes=int(nbytes),
            latency_us=round(latency * 1e6, 1),
        )
        proclet.on_migrated(src, dst)
        return latency

    def _checkpoint(self, proclet: Proclet, dst: Machine) -> None:
        """Abort the copy if either endpoint failed since the last yield.

        The destination check compares *incarnations*, not just ``up``:
        a crash-and-restart between checkpoints leaves the machine up
        but its DRAM (including our reservation) wiped, so committing
        against it would place the proclet on unaccounted memory.
        """
        if proclet._status is ProcletStatus.DEAD:
            raise MigrationFailed(
                f"{proclet.name}: source machine died mid-migration")
        entry = self._inflight.get(proclet.id)
        if not dst.up or (entry is not None
                          and entry[2] != dst.incarnation):
            raise MigrationFailed(
                f"{proclet.name}: destination {dst.name} died mid-migration")
