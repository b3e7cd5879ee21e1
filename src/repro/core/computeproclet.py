"""Compute proclets: granular executors specialized to consume CPU.

A compute proclet owns a task queue and ``parallelism`` worker threads;
its heap stays nearly empty (§3.2: "the heaps within each shard are left
empty, except for any objects temporarily allocated by threads"), which
is what makes it cheap to migrate and split.  Oversized compute proclets
split by dividing their task queue (§3.3) and undersized ones merge;
:class:`repro.compute.ComputePool` runs both.

Tasks either carry a plain CPU cost or a generator ``fn(ctx, task)`` for
work that touches other proclets (reading images from memory proclets,
pushing results into a sharded queue, ...).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional

from ..runtime import ProcletRef
from ..units import US
from .resource import ResourceKind, ResourceProclet

#: Per-task dispatch overhead (queue pop, accounting).
_DISPATCH_CPU = 0.5 * US
#: Nominal wire size of a queued task descriptor.
TASK_WIRE_BYTES = 256.0


@dataclass
class Task:
    """One schedulable unit of compute work."""

    work: float = 0.0
    key: Any = None
    fn: Optional[Callable] = None   # generator fn(ctx, task) -> result
    done: Any = None                # Event, attached by the submitter

    def __post_init__(self):
        if self.work < 0:
            raise ValueError(f"negative task work: {self.work}")


class TaskSource:
    """Protocol for streaming task producers (pull model).

    ``pull`` is a generator receiving the worker's ctx; it returns the
    next :class:`Task` or ``None`` when the stream is exhausted.
    """

    def pull(self, ctx):  # pragma: no cover - interface
        raise NotImplementedError
        yield  # make it a generator


class ComputeProclet(ResourceProclet):
    """Task executor specialized to consume CPU cycles."""

    kind = ResourceKind.COMPUTE

    def __init__(self, parallelism: int = 1,
                 source: Optional[TaskSource] = None):
        super().__init__()
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1: {parallelism}")
        self.parallelism = int(parallelism)
        self.source = source
        self._queue: Deque[Task] = collections.deque()
        self._stopped = False
        self._wakeups: List = []  # events of idle workers
        self._live_workers = 0
        self._stop_event = None  # fires when all workers have exited
        self.tasks_done = 0
        self.busy_workers = 0
        #: Optional callback(proclet, task, result) after each task.
        self.on_task_done: Optional[Callable] = None

    # -- introspection ------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def idle(self) -> bool:
        return self.busy_workers == 0 and not self._queue

    def self_ref(self) -> ProcletRef:
        return ProcletRef(self._runtime, self._id, self._name)

    # -- lifecycle -------------------------------------------------------------
    def twin(self) -> "ComputeProclet":
        twin = super().twin()
        twin.parallelism = self.parallelism
        twin.source = self.source
        twin.on_task_done = self.on_task_done
        return twin

    def on_start(self, ctx):
        ref = self.self_ref()
        self._live_workers = self.parallelism
        for wid in range(self.parallelism):
            # Never transparently retried: a respawned incarnation's own
            # on_start restarts its worker loops, so a retry would stack
            # duplicate workers onto the new incarnation.
            self._runtime.invoke(ref, "cp_worker", wid,
                                 caller_machine=self.machine,
                                 priority=ctx.priority, retryable=False)

    def request_stop(self):
        """Stop accepting work; returns an event that fires once every
        worker has finished its in-flight task and exited."""
        self._stop_event = self._runtime.sim.event()
        self._stopped = True
        self._wake_all()
        if self._live_workers == 0 and not self._stop_event.triggered:
            self._stop_event.succeed()
        return self._stop_event

    # -- proclet methods ---------------------------------------------------------
    def cp_submit(self, ctx, task: Task):
        """Enqueue one task (wakes an idle worker)."""
        yield ctx.cpu(_DISPATCH_CPU)
        self._enqueue(task)

    # -- the worker loop --------------------------------------------------------
    def cp_worker(self, ctx, wid: int):
        try:
            yield from self._worker_loop(ctx, wid)
        finally:
            self._live_workers -= 1
            if (self._live_workers == 0 and self._stop_event is not None
                    and not self._stop_event.triggered):
                self._stop_event.succeed()

    def _worker_loop(self, ctx, wid: int):
        while True:
            task = self._next_task()
            if task is None:
                if self._stopped:
                    return
                if self.source is not None:
                    pulled = yield from self.source.pull(ctx)
                    if pulled is None:
                        return  # stream exhausted
                    task = pulled
                else:
                    wakeup = ctx.sim.event()
                    self._wakeups.append(wakeup)
                    yield wakeup
                    continue
            self.busy_workers += 1
            try:
                yield ctx.cpu(_DISPATCH_CPU)
                if task.fn is not None:
                    result = yield from task.fn(ctx, task)
                elif task.work > 0:
                    yield ctx.cpu(task.work)
                    result = None
                else:
                    result = None
            finally:
                self.busy_workers -= 1
            self.tasks_done += 1
            if task.done is not None and not task.done.triggered:
                task.done.succeed(result)
            if self.on_task_done is not None:
                self.on_task_done(self, task, result)

    # -- internals ------------------------------------------------------------------
    def _next_task(self) -> Optional[Task]:
        if self._queue:
            return self._queue.popleft()
        return None

    def _enqueue(self, task: Task) -> None:
        self._queue.append(task)
        self._wake_one()

    def _wake_one(self) -> None:
        while self._wakeups:
            ev = self._wakeups.pop()
            if not ev.triggered:
                ev.succeed()
                return

    def _wake_all(self) -> None:
        wakeups, self._wakeups = self._wakeups, []
        for ev in wakeups:
            if not ev.triggered:
                ev.succeed()
