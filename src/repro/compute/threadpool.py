"""Distributed thread pool over compute proclets (§3.2).

A :class:`ComputePool` is a set of compute proclets acting as one
elastic executor.  Growing the pool uses the §3.3 split mechanism (queue
division + placement on a machine with idle cores); shrinking merges a
member away.  The :class:`repro.core.ComputeAutoscaler` drives
``grow``/``shrink`` automatically in the Fig. 3 pipeline.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..cluster import Machine
from ..core.computeproclet import ComputeProclet, Task, TaskSource
from ..runtime import ProcletRef
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
        self._retired: List[ProcletRef] = []
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
        return sum(ref.proclet.queue_length for ref in self.members)

    def grow(self, count: int = 1) -> int:
        """Add up to *count* members by splitting (§3.3); returns how
        many splits were actually initiated (0 when the cluster has no
        idle CPU — the paper's admission rule).

        Each member seeds at most one split per call: a split gates its
        seed, so a second concurrent split of the same proclet would
        abort against the gate.
        """
        from repro.runtime import ProcletStatus

        started = 0
        seeds = sorted(
            (r for r in self.members
             if r.proclet.status is ProcletStatus.RUNNING),
            key=lambda r: -r.proclet.queue_length,
        )
        for seed in seeds[:count]:
            if self.qs.placement.best_for_compute(self.parallelism) is None:
                break
            ev = self.qs.split_compute(seed)
            self._pending_growth += 1
            ev.subscribe(self._on_grow_done)
            started += 1
        return started

    def _on_grow_done(self, event: Event) -> None:
        self._pending_growth -= 1
        if not event.ok:
            raise event.value
        new_ref = event.value
        if new_ref is not None:
            self.members.append(new_ref)

    def shrink(self, count: int = 1) -> int:
        """Retire up to *count* members by merging them away."""
        removed = 0
        while removed < count and len(self.members) > 1:
            victim = self.members.pop()
            survivor = self.members[0]
            self._retired.append(victim)
            ev = self.qs.merge_compute(survivor, victim)
            ev.subscribe(self._raise_on_failure)
            removed += 1
        return removed

    @staticmethod
    def _raise_on_failure(event: Event) -> None:
        if not event.ok:
            raise event.value

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
        from repro.runtime import ProcletStatus

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
