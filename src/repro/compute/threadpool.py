"""Distributed thread pool over compute proclets (§3.2).

A :class:`ComputePool` is a set of compute proclets acting as one
elastic executor, and the one home of compute resizing (§3.3): ``grow``
splits a member's task queue with a twin on a machine with idle cores,
``shrink`` merges a member away, and both roll back when a machine
crashes under them (docs/api.md lists the outcomes).  The
:class:`repro.core.ComputeAutoscaler` drives ``grow``/``shrink``
automatically in the Fig. 3 pipeline.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..cluster import Machine
from ..core.computeproclet import (
    TASK_WIRE_BYTES,
    ComputeProclet,
    Task,
    TaskSource,
)
from ..runtime import ProcletRef, ProcletStatus
from ..runtime.errors import MachineFailed
from ..sim import Event


class ComputePool:
    """Elastic group of compute proclets with one submission interface."""

    def __init__(self, qs, name: str = "pool", parallelism: int = 1,
                 source: Optional[TaskSource] = None,
                 initial_members: int = 1,
                 machine: Optional[Machine] = None):
        if initial_members < 1:
            raise ValueError("a pool needs at least one member")
        self.qs = qs
        self.name = name
        self.parallelism = parallelism
        self.source = source
        self.members: List[ProcletRef] = []
        self.total_done = 0
        self._pending_growth = 0
        # Tasks submitted but not yet finished, per member proclet id.
        # Routing balances on this rather than on queue_length, which
        # only updates once the simulated submission lands.
        self._assigned: dict = {}
        for i in range(initial_members):
            self._spawn_member(machine)

    # -- membership -----------------------------------------------------------
    def _spawn_member(self, machine: Optional[Machine] = None) -> ProcletRef:
        proclet = ComputeProclet(parallelism=self.parallelism,
                                 source=self.source)
        proclet.on_task_done = self._on_task_done
        proclet.shard_owner = self
        ref = self.qs.spawn(proclet, machine,
                            name=f"{self.name}.w{len(self.members)}")
        self.members.append(ref)
        return ref

    def _on_task_done(self, proclet, _task, _result) -> None:
        self.total_done += 1
        pid = proclet.id
        if self._assigned.get(pid, 0) > 0:
            self._assigned[pid] -= 1

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def effective_size(self) -> int:
        """Members plus splits already in flight (autoscaler's view —
        prevents over-issuing splits while one is mid-flight)."""
        return len(self.members) + self._pending_growth

    @property
    def backlog(self) -> int:
        return sum(p.queue_length for p in self._live())

    def _live(self) -> List[ComputeProclet]:
        """Member proclets not lost to a crash (``heal`` replaces those)."""
        proclets = self.qs.runtime._proclets
        live = (proclets.get(r.proclet_id) for r in self.members)
        return [p for p in live if p is not None]

    # -- resizing (§3.3) ----------------------------------------------------
    def grow(self, count: int = 1) -> int:
        """Add up to *count* members by splitting (§3.3); returns how
        many splits were actually initiated (0 when the cluster has no
        idle CPU — the paper's admission rule).

        Each member seeds at most one split per call: a split gates its
        seed, so a second concurrent split of the same proclet would
        abort against the gate.
        """
        started = 0
        seeds = sorted(
            (p for p in self._live() if p.status is ProcletStatus.RUNNING),
            key=lambda p: -p.queue_length,
        )
        for src in seeds[:count]:
            if self.qs.placement.best_for_compute(self.parallelism) is None:
                break
            ev = self.qs.sim.spawn(self._split(src), name=f"split:{src.name}")
            self._pending_growth += 1
            ev.subscribe(self._on_grow_done)
            started += 1
        return started

    def _on_grow_done(self, event: Event) -> None:
        self._pending_growth -= 1
        if event.value is not None:
            self.members.append(event.value)

    def shrink(self, count: int = 1) -> int:
        """Retire up to *count* members by merging them away."""
        removed = 0
        while removed < count and len(self.members) > 1:
            donor = self.members.pop()
            survivor = self.members[0]
            self.qs.sim.spawn(self._merge(survivor, donor),
                              name=f"merge:{donor.name}->{survivor.name}")
            removed += 1
        return removed

    def _split(self, src: ComputeProclet) -> Generator:
        """Divide *src*'s task queue with a twin; the value is the
        twin's ref, or None (no CPU headroom, or a machine crashed)."""
        if src.status is not ProcletStatus.RUNNING:
            return None
        dst = self.qs.placement.best_for_compute(src.parallelism)
        if dst is None:
            return None  # no CPU headroom anywhere
        qs = self.qs
        runtime = qs.runtime
        tr = qs.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("split", f"split {src.name}",
                            track=f"proclet:{src.name}", kind="compute")
        runtime.gate(src, "compute.split")
        yield qs.sim.timeout(qs.config.split_overhead)
        if src.status is not ProcletStatus.DEAD and dst.up:
            twin = src.twin()
            twin_ref = runtime.spawn(twin, dst, name=f"{src.name}.split")
            n = len(src._queue) // 2
            moved = [src._queue.pop() for _ in range(n)]
            moved.reverse()
            if (yield from self._handoff(src, twin, moved,
                                         f"split:{src.name}")):
                runtime.ungate(src)
                qs.splits += 1
                qs.metrics.count("quicksand.splits.compute")
                runtime.decide(
                    "split", f"{src.name} queue-division -> {twin.name}",
                    span=span, moved_tasks=n, dst=dst.name,
                )
                return twin_ref
            runtime.destroy(twin_ref)
        runtime.ungate(src)
        if tr is not None:
            tr.end(span, outcome="machine-failed")
        return None

    def _merge(self, survivor_ref: ProcletRef,
               donor_ref: ProcletRef) -> Generator:
        """Hand the donor's queue to the survivor and destroy the donor
        once its workers exit; the value is True, or None when the merge
        declined or a machine crashed (a live donor stays a member)."""
        qs = self.qs
        runtime = qs.runtime
        survivor = runtime._proclets.get(survivor_ref.proclet_id)
        donor = runtime._proclets.get(donor_ref.proclet_id)
        if (survivor is None or donor is None
                or survivor.status is not ProcletStatus.RUNNING
                or donor.status is not ProcletStatus.RUNNING):
            self.members.append(donor_ref)
            return None
        tr = qs.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("merge", f"merge {donor.name} -> {survivor.name}",
                            track=f"proclet:{survivor.name}", kind="compute")
        yield qs.sim.timeout(qs.config.split_overhead)
        pending = []
        handed = False
        if (donor.status is not ProcletStatus.DEAD
                and survivor.status is not ProcletStatus.DEAD):
            pending = list(donor._queue)
            donor._queue.clear()
            handed = yield from self._handoff(donor, survivor, pending,
                                              f"merge:{donor.name}")
        if not handed:
            if donor.status is not ProcletStatus.DEAD:
                self.members.append(donor_ref)
            if tr is not None:
                tr.end(span, outcome="machine-failed")
            return None
        yield donor.request_stop()  # workers finish their in-flight tasks
        runtime.destroy(donor_ref)
        qs.merges += 1
        qs.metrics.count("quicksand.merges.compute")
        if tr is not None:
            tr.end(span, moved_tasks=len(pending))
        return True

    def _handoff(self, src: ComputeProclet, dst: ComputeProclet,
                 tasks: List[Task], name: str) -> Generator:
        """Move *tasks* from *src* to *dst*'s queue (``TASK_WIRE_BYTES``
        each over the fabric between machines).  False when a machine
        crashed meanwhile: a surviving *src* then has them back."""
        if tasks and dst.machine is not src.machine:
            try:
                yield self.qs.cluster.fabric.transfer(
                    src.machine, dst.machine,
                    TASK_WIRE_BYTES * len(tasks), name=name,
                )
                ok = (src.status is not ProcletStatus.DEAD
                      and dst.status is not ProcletStatus.DEAD)
            except MachineFailed:
                ok = False
            if not ok:
                if src.status is not ProcletStatus.DEAD:
                    for task in tasks:
                        src._enqueue(task)
                return False
        for task in tasks:
            dst._enqueue(task)
        return True

    # -- work submission ------------------------------------------------------------
    def submit(self, task: Task) -> Event:
        """Submit one task; returns its completion event."""
        if task.done is None:
            task.done = self.qs.sim.event()
        target = min(
            self.members,
            key=lambda r: self._assigned.get(r.proclet_id, 0),
        )
        self._assigned[target.proclet_id] = \
            self._assigned.get(target.proclet_id, 0) + 1
        target.call("cp_submit", task)
        return task.done

    def submit_fn(self, fn: Callable, key: Any = None) -> Event:
        """Submit a generator function ``fn(ctx, task)`` as a task
        (the ``Run(lambda)`` API of §3.1)."""
        return self.submit(Task(fn=fn, key=key))

    def run(self, work: float, key: Any = None) -> Event:
        """Submit a plain CPU burn of *work* core-seconds."""
        return self.submit(Task(work=work, key=key))

    def heal(self) -> int:
        """Replace members lost to machine failures.

        Dead members are dropped from the pool and fresh proclets with
        the same source are spawned in their place (their *queued* tasks
        died with the machine — redo logic is the application's policy).
        Returns the number of members replaced.
        """
        dead = [
            ref for ref in self.members
            if self.qs.runtime._proclets.get(ref.proclet_id) is None
            or ref.proclet.status is ProcletStatus.DEAD
        ]
        for ref in dead:
            self.members.remove(ref)
            self._assigned.pop(ref.proclet_id, None)
        for _ in dead:
            self._spawn_member()
        return len(dead)

    def stop(self) -> Event:
        """Stop all members; the event fires when every worker exited."""
        stops = [ref.proclet.request_stop() for ref in self.members]
        return self.qs.sim.all_of(stops)

    def machines(self) -> List[Machine]:
        """Multiset of machines hosting members (placement diagnostics)."""
        return [ref.machine for ref in self.members]

    def __repr__(self) -> str:
        return (f"<ComputePool {self.name!r} members={len(self.members)} "
                f"backlog={self.backlog} done={self.total_done}>")
