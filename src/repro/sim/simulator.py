"""The virtual-time event loop at the heart of the reproduction.

Everything in this repository — CPU scheduling, network transfers, proclet
migration, the Quicksand controllers — executes on this single-threaded
deterministic simulator.  Time is a ``float`` in *seconds* of virtual time;
no wall-clock API is consulted anywhere, so runs are exactly reproducible
given a seed.

Dispatch order is total: time first, then priority (URGENT before
NORMAL), then scheduling order.  The queue holding that order has two
parts.  A binary heap of ``(when, priority, seq, event)`` tuples holds
everything due later than now and every URGENT event; a *ready FIFO*
(a ``deque`` of bare events) holds the NORMAL events due at now, in the
order they were scheduled — most events (process starts and ends,
succeeded events, fluid completions) have zero delay, and their place
in the order is already known, so they skip the heap push and pop.

The two parts read as one heap.  Dispatch takes the heap head when its
time equals now, else the FIFO head, else the heap head (advancing the
clock).  That is the heap order: a NORMAL heap entry due at now was
pushed before the clock reached now (a NORMAL event scheduled at now
goes to the FIFO), so it precedes every FIFO entry in scheduling order;
an URGENT entry at now precedes them by priority; and the clock only
advances once the FIFO is empty, so every FIFO entry is due at now.

Scheduled events can be *cancelled* (:meth:`Simulator.cancel`): the
entry is tombstoned rather than removed and skipped for free when it
reaches the head, and both parts are compacted in one pass once the
dead/live ratio crosses :data:`_COMPACT_DEAD_RATIO`.  The fluid
scheduler uses this to retire superseded completion timers instead of
letting them bloat the heap.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Dict, Generator, Iterable, Optional

from .errors import StopSimulation
from .events import NORMAL, PENDING, Event, Timeout
from .process import Process
from .rand import RandomStreams

#: Never bother compacting heaps with fewer dead entries than this.
_COMPACT_MIN_DEAD = 64

#: Compact once dead entries exceed this multiple of live entries.  The
#: trigger is a *ratio* so that long runs with huge heaps don't compact
#: pathologically often: the amortized reclaim cost stays proportional
#: to useful work regardless of queue size.
_COMPACT_DEAD_RATIO = 1.0

#: Called as ``fn(sim)`` on every new Simulator (see set_tracer_factory).
_tracer_factory = None

#: Process-wide kernel totals, accumulated in bulk whenever a
#: Simulator's run()/step() exits.  ``repro.exec`` workers snapshot
#: these around a task to report how much simulation the task did
#: without hooking any experiment's internals.
_KERNEL_TOTALS = {
    "events": 0,
    "cancellations": 0,
    "tombstones_popped": 0,
    "compactions": 0,
}


def kernel_totals() -> Dict[str, int]:
    """A copy of the process-wide kernel counters (see ``repro.exec``)."""
    return dict(_KERNEL_TOTALS)


def set_tracer_factory(fn) -> None:
    """Install *fn* to be called with every newly built Simulator.

    :func:`repro.obs.capture` uses this to attach a
    :class:`~repro.obs.SpanTracer` to simulators it did not construct
    itself (experiments build their own).  Pass ``None`` to uninstall.
    """
    global _tracer_factory
    _tracer_factory = fn


def get_tracer_factory():
    return _tracer_factory


def _raise_failure(proc: Process) -> None:
    """Re-raise a spawned process's exception (see Simulator.spawn)."""
    if not proc._ok:
        raise proc._value


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial virtual time (seconds).
    seed:
        Master seed for the simulator's named RNG streams.
    """

    __slots__ = ("_now", "_queue", "_ready", "_seq", "_processed_events",
                 "_dead", "_cancellations", "_tombstones_popped",
                 "_compactions", "_running", "_pending_flushes",
                 "_observers", "random", "tracer", "__weakref__")

    def __init__(self, start: float = 0.0, seed: int = 0):
        self._now = float(start)
        self._queue: list = []  # (time, priority, seq, event)
        # NORMAL events due at now, in scheduling order (see module doc).
        self._ready: deque = deque()
        self._seq = 0
        self._processed_events = 0
        self._dead = 0          # tombstoned entries still queued
        self._cancellations = 0
        self._tombstones_popped = 0
        self._compactions = 0
        self._running = False   # True while run()/step() is executing
        # Fluid schedulers with a coalesced reassignment pending; always
        # drained before virtual time advances (see _drain_flushes).
        self._pending_flushes: list = []
        # Called as fn(self) after every processed event (see add_observer).
        self._observers: list = []
        self.random = RandomStreams(seed)
        #: Span tracer (:mod:`repro.obs`), or None when tracing is off.
        #: Instrumentation sites read this once and skip all work when it
        #: is None — the zero-overhead disabled path.
        self.tracer = None
        if _tracer_factory is not None:
            _tracer_factory(self)

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events processed so far (for diagnostics)."""
        return self._processed_events

    # -- queue diagnostics --------------------------------------------------
    @property
    def queued(self) -> int:
        """Live (non-tombstoned) events waiting in the queue."""
        return len(self._queue) + len(self._ready) - self._dead

    @property
    def dead_entries(self) -> int:
        """Tombstoned entries awaiting pop or compaction."""
        return self._dead

    @property
    def compactions(self) -> int:
        """Number of heap compaction passes performed so far."""
        return self._compactions

    @property
    def cancellations(self) -> int:
        """Total events tombstoned via :meth:`cancel` so far."""
        return self._cancellations

    @property
    def tombstones_popped(self) -> int:
        """Dead entries discarded by dispatch (vs compaction)."""
        return self._tombstones_popped

    def stats(self) -> Dict[str, int]:
        """Event-queue diagnostics as a dict (see
        ``MetricsRecorder.record_stats``)."""
        return {
            "queued": self.queued,
            "dead_entries": self._dead,
            "compactions": self._compactions,
            "cancellations": self._cancellations,
            "tombstones_popped": self._tombstones_popped,
        }

    # -- observation --------------------------------------------------------
    def add_observer(self, fn) -> None:
        """Call ``fn(self)`` after every processed event.

        Observers must be read-only with respect to simulation state:
        they run synchronously inside the event loop, after the event's
        callbacks, and anything they mutate perturbs the run.  The chaos
        :class:`~repro.chaos.InvariantChecker` uses this hook to assert
        global invariants at every step of a simulation.
        """
        self._observers.append(fn)

    def remove_observer(self, fn) -> None:
        """Detach a previously added observer (no-op if absent)."""
        try:
            self._observers.remove(fn)
        except ValueError:
            pass

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after *delay* seconds of virtual time."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start *generator* as a simulation process; its failure
        reaches only those waiting on it (compare :meth:`spawn`)."""
        return Process(self, generator, name=name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start *generator* as a background process whose raise fails
        the run: the exception propagates out of :meth:`run`.  Control
        loops and drivers, which nobody waits on, start this way."""
        proc = Process(self, generator, name=name)
        proc.callbacks = [_raise_failure]
        return proc

    def all_of(self, events: Iterable[Event]) -> Event:
        from .events import AllOf

        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> Event:
        from .events import AnyOf

        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        """Enqueue *event* for processing at ``now + delay``.

        A NORMAL event due at now joins the ready FIFO; anything else is
        pushed on the heap.  ``Event.succeed``/``fail``, ``Timeout`` and
        ``Process`` append zero-delay events to the FIFO directly.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        when = self._now + delay
        if when == self._now and priority == NORMAL:
            self._ready.append(event)
            return
        self._seq += 1
        heapq.heappush(self._queue, (when, priority, self._seq, event))

    def call_at(self, when: float, fn, *args) -> Event:
        """Run ``fn(*args)`` at absolute virtual time *when*."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.subscribe(lambda _ev: fn(*args))
        return ev

    def call_in(self, delay: float, fn, *args) -> Event:
        """Run ``fn(*args)`` after *delay* seconds."""
        ev = self.timeout(delay)
        ev.subscribe(lambda _ev: fn(*args))
        return ev

    # -- cancellation --------------------------------------------------------
    def cancel(self, event: Event) -> bool:
        """Tombstone a scheduled-but-unprocessed *event*.

        The event's callbacks will never run; its queue entry is skipped
        when it reaches the head (or reclaimed in bulk by compaction).
        Returns True if the event was live and is now cancelled, False
        if it was never scheduled, already processed, or already
        cancelled.

        Compaction is batched: a cancel issued from inside the dispatch
        loop (the common case — schedulers retiring superseded timers
        from event callbacks) only marks the tombstone; the loop itself
        compacts at most once per dispatch when the dead/live ratio
        crosses :data:`_COMPACT_DEAD_RATIO`.  Cancels issued outside a
        run compact eagerly.
        """
        if (event._value is PENDING or event._processed
                or event._cancelled):
            return False
        event._cancelled = True
        self._cancellations += 1
        self._dead += 1
        if not self._running and self._needs_compact():
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop tombstoned entries from the heap and the ready FIFO and
        re-heapify (in place, so aliases held by the run loop stay
        valid)."""
        self._queue[:] = [e for e in self._queue if not e[3]._cancelled]
        heapq.heapify(self._queue)
        ready = self._ready
        live = [e for e in ready if not e._cancelled]
        if len(live) != len(ready):
            ready.clear()
            ready.extend(live)
        self._dead = 0
        self._compactions += 1

    # -- execution ----------------------------------------------------------
    def _drain_flushes(self) -> None:
        """Run every pending coalesced reassignment (FIFO).

        Called whenever virtual time is about to advance, so deferred
        water-fills are always observationally complete within the
        timestamp that made them necessary.  Flushing may enqueue new
        events at the current time and may re-mark schedulers dirty;
        both are handled by the callers' re-check loops.
        """
        pending = self._pending_flushes
        while pending:
            pending.pop(0)._run_pending_flush()

    def _needs_compact(self) -> bool:
        """True once tombstones outnumber live entries enough to
        compact (see :data:`_COMPACT_DEAD_RATIO`)."""
        dead = self._dead
        return (dead > _COMPACT_MIN_DEAD and dead > _COMPACT_DEAD_RATIO
                * (len(self._queue) + len(self._ready) - dead))

    def step(self) -> None:
        """Process the single next live event (skipping tombstones)."""
        queue = self._queue
        ready = self._ready
        self._running = True
        try:
            while True:
                if ready and (not queue or queue[0][0] != self._now):
                    if self._needs_compact():
                        self._compact()
                        continue
                    event = ready.popleft()
                    if event._cancelled:
                        self._dead -= 1
                        self._tombstones_popped += 1
                        continue
                else:
                    if not queue:
                        if self._pending_flushes:
                            self._drain_flushes()
                            continue
                        return
                    head = queue[0]
                    if self._pending_flushes and head[0] > self._now:
                        self._drain_flushes()
                        continue
                    if self._needs_compact():
                        self._compact()
                        continue
                    heapq.heappop(queue)
                    event = head[3]
                    if event._cancelled:
                        self._dead -= 1
                        self._tombstones_popped += 1
                        continue
                    when = head[0]
                    assert when >= self._now, "event queue went backwards"
                    self._now = when
                self._processed_events += 1
                event._process()
                if self._observers:
                    for fn in self._observers:
                        fn(self)
                _KERNEL_TOTALS["events"] += 1
                return
        finally:
            self._running = False

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none."""
        queue = self._queue
        ready = self._ready
        while True:
            if ready and (not queue or queue[0][0] != self._now):
                if not ready[0]._cancelled:
                    return self._now
                ready.popleft()
            elif queue:
                if not queue[0][3]._cancelled:
                    return queue[0][0]
                heapq.heappop(queue)
            else:
                return float("inf")
            self._dead -= 1
            self._tombstones_popped += 1

    def run(self, until: Optional[float] = None,
            until_event: Optional[Event] = None) -> Any:
        """Run the event loop.

        ``until`` is an absolute virtual time at which to stop (the clock
        is advanced to exactly that time).  ``until_event`` stops the loop
        once that event has been processed and returns its value;
        a failed ``until_event`` re-raises its exception.  If the queue
        drains without the event triggering, ``run`` raises
        ``RuntimeError`` (the event is deadlocked) — unless ``until`` was
        also given, which makes the wait an ordinary bounded one.
        With neither, runs until the event queue drains.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is in the past")

        stop_hit = []
        if until_event is not None:
            until_event.subscribe(stop_hit.append)

        # Hot loop: local aliases avoid repeated attribute lookups on the
        # schedule->pop->_process path.  The ready FIFO is served unless
        # the heap head is due at now (see the module docstring for why
        # that is the heap order); only a heap pop advances the clock.
        # Pending coalesced reassignments are drained whenever time is
        # about to advance (or the queue drains), so they are
        # observationally equivalent to eager per-mutation
        # recomputation.  Dead entries accumulated by in-loop cancels
        # are reclaimed here, at most one batched compaction per
        # dispatch, once the dead/live ratio crosses the threshold.
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        pop = heapq.heappop
        flushes = self._pending_flushes
        observers = self._observers
        horizon = float("inf") if until is None else until
        now = self._now  # only this loop moves the clock
        events_before = self._processed_events
        cancels_before = self._cancellations
        compactions_before = self._compactions
        popped_before = self._tombstones_popped
        self._running = True
        try:
            while True:
                if stop_hit:
                    break
                if ready and (not queue or queue[0][0] != now):
                    if (self._dead > _COMPACT_MIN_DEAD
                            and self._dead > _COMPACT_DEAD_RATIO
                            * (len(queue) + len(ready) - self._dead)):
                        self._compact()
                        continue
                    event = popleft()
                    if event._cancelled:
                        self._dead -= 1
                        self._tombstones_popped += 1
                        continue
                else:
                    if not queue:
                        if flushes:
                            self._drain_flushes()
                            continue
                        break
                    head = queue[0]
                    if flushes and head[0] > now:
                        self._drain_flushes()
                        continue  # flushing may have enqueued new events
                    if (self._dead > _COMPACT_MIN_DEAD
                            and self._dead > _COMPACT_DEAD_RATIO
                            * (len(queue) + len(ready) - self._dead)):
                        self._compact()
                        continue
                    if head[0] > horizon:
                        break
                    pop(queue)
                    event = head[3]
                    if event._cancelled:
                        self._dead -= 1
                        self._tombstones_popped += 1
                        continue
                    now = self._now = head[0]
                self._processed_events += 1
                # Inlined Event._process (no subclass overrides it): one
                # method call per event is real money at ~10^5 events/s.
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                if observers:
                    for fn in observers:
                        fn(self)
        except StopSimulation as exc:
            return exc.value
        finally:
            self._running = False
            totals = _KERNEL_TOTALS
            totals["events"] += self._processed_events - events_before
            totals["cancellations"] += self._cancellations - cancels_before
            totals["tombstones_popped"] += \
                self._tombstones_popped - popped_before
            totals["compactions"] += self._compactions - compactions_before

        if until is not None and not stop_hit:
            self._now = max(self._now, until)

        if until_event is not None and until_event.triggered:
            if not until_event.ok:
                raise until_event.value
            return until_event.value
        if until_event is not None and until is None:
            # The queue drained with the awaited event untriggered:
            # whatever it depends on is deadlocked (e.g. blocked on a
            # gate nobody will open).  Returning None here would let the
            # caller mistake a hung operation for a completed one.
            raise RuntimeError(
                f"run(until_event={until_event!r}) deadlocked: the event "
                f"queue drained at t={self._now:.6f}s without it "
                f"triggering")
        return None

    def stop(self, value: Any = None) -> None:
        """Abort :meth:`run` from inside a callback or process."""
        raise StopSimulation(value)

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.6f}s queued={self.queued} "
                f"dead={self.dead_entries} compactions={self._compactions} "
                f"processed={self._processed_events}>")
