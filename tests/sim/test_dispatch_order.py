"""Dispatch order of the two-part event queue against one reference heap.

The simulator keeps NORMAL events due at now in a ready FIFO and
everything else on a heap (see :mod:`repro.sim.simulator`).  These
tests drive it with drawn programs — zero and positive delays, URGENT
and NORMAL, process starts, cancels (including FIFO entries, and bursts
large enough to compact), scheduling from callbacks and from outside a
run, ``run(until=...)`` splits, ``step()``, ``peek()`` and ``stop()`` —
and replay each program on :class:`RefKernel`, a test-local single heap
of ``(when, priority, seq)`` entries with the kernel's tombstone and
compaction rules.  The dispatch sequence and every queue counter must
agree after every operation.
"""

import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim import simulator as kernel
from repro.sim.errors import StopSimulation
from repro.sim.events import NORMAL, URGENT


class RefKernel:
    """One heap, one sequence counter: the order contract spelled out.

    Entries are dicts: ``push`` queues one, ``cancel`` tombstones one,
    and dispatch calls its ``fire``.
    """

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.running = False
        self.processed_events = 0
        self.cancellations = 0
        self.tombstones_popped = 0
        self.compactions = 0
        self.dead = 0

    @property
    def queued(self):
        return len(self.heap) - self.dead

    def push(self, entry, delay, priority):
        self.seq += 1
        entry["state"] = "queued"
        heapq.heappush(self.heap, (self.now + delay, priority, self.seq,
                                   entry))

    def cancel(self, entry):
        if entry["state"] != "queued":
            return False
        entry["state"] = "cancelled"
        self.cancellations += 1
        self.dead += 1
        if not self.running and self._needs_compact():
            self._compact()
        return True

    def _needs_compact(self):
        return (self.dead > kernel._COMPACT_MIN_DEAD
                and self.dead > kernel._COMPACT_DEAD_RATIO
                * (len(self.heap) - self.dead))

    def _compact(self):
        self.heap = [e for e in self.heap if e[3]["state"] != "cancelled"]
        heapq.heapify(self.heap)
        self.dead = 0
        self.compactions += 1

    def _next(self, horizon):
        """Pop the next live entry due by *horizon*, or None."""
        while self.heap:
            if self._needs_compact():
                self._compact()
                continue
            when, _prio, _seq, entry = self.heap[0]
            if when > horizon:
                return None
            heapq.heappop(self.heap)
            if entry["state"] == "cancelled":
                self.dead -= 1
                self.tombstones_popped += 1
                continue
            self.now = when
            self.processed_events += 1
            entry["state"] = "processed"
            return entry
        return None

    def run(self, until=None):
        horizon = math.inf if until is None else until
        self.running = True
        try:
            while True:
                entry = self._next(horizon)
                if entry is None:
                    break
                entry["fire"]()
        except StopSimulation:
            return
        finally:
            self.running = False
        if until is not None:
            self.now = max(self.now, until)

    def step(self):
        self.running = True
        try:
            entry = self._next(math.inf)
            if entry is not None:
                entry["fire"]()
        finally:
            self.running = False

    def peek(self):
        while self.heap and self.heap[0][3]["state"] == "cancelled":
            heapq.heappop(self.heap)
            self.dead -= 1
            self.tombstones_popped += 1
        return self.heap[0][0] if self.heap else math.inf


class Harness:
    """Runs one drawn program on the simulator or on the reference.

    Every scheduled event gets a label in program order; its dispatch
    appends the label to ``log`` and runs the event's child ops.
    """

    def __init__(self, ref: bool):
        self.ref = ref
        self.k = RefKernel() if ref else Simulator()
        self.log = []
        self.handles = []   # cancel targets, by label

    # -- scheduling ------------------------------------------------------
    def sched(self, kind, delay, children):
        label = len(self.handles)

        def fire(_ev=None):
            self.log.append(label)
            self.run_ops(children, in_process=False)

        if kind == "process":
            self._process(label, children)
            return
        if self.ref:
            handle = {"fire": fire}
            self.k.push(handle, delay, URGENT if kind == "urgent" else NORMAL)
        elif kind == "timeout":
            handle = self.k.timeout(delay)
        elif kind == "succeed":
            handle = self.k.event().succeed(delay=delay)
        elif kind == "fail":
            handle = self.k.event().fail(RuntimeError("x"), delay=delay)
        else:  # urgent
            handle = self.k.event()
            handle._value = None
            self.k._schedule(handle, delay, priority=URGENT)
        if not self.ref:
            handle.subscribe(fire)
        self.handles.append(handle)

    def _process(self, label, children):
        """A process runs *children* when it starts (at now, whatever
        the drawn delay) and ends at the same instant; cancelling it
        tombstones its end once that is scheduled."""
        def end(_ev=None):
            self.log.append(("end", label))

        if self.ref:
            handle = {"fire": end, "state": "unscheduled"}

            def start():
                self.log.append(label)
                self.run_ops(children, in_process=True)
                self.k.push(handle, 0.0, NORMAL)

            self.k.push({"fire": start}, 0.0, NORMAL)
        else:
            def body():
                self.log.append(label)
                self.run_ops(children, in_process=True)
                return
                yield  # a generator function

            handle = self.k.process(body())
            handle.subscribe(end)
        self.handles.append(handle)

    def cancel(self, index):
        if not self.handles:
            return None
        return self.k.cancel(self.handles[index % len(self.handles)])

    def run_ops(self, ops, in_process):
        for op in ops:
            name = op[0]
            if name == "sched":
                self.sched(*op[1:])
            elif name == "cancel":
                self.cancel(op[1])
            elif name == "burst":
                for _ in range(op[1]):
                    self.sched("timeout", op[2], ())
            elif name == "storm":
                # Schedule a burst and cancel all of it: enough
                # tombstones to cross the compaction threshold (or,
                # next to a live burst, to just miss it).
                first = len(self.handles)
                for _ in range(op[1]):
                    self.sched("timeout", op[2], ())
                for index in range(first, len(self.handles)):
                    self.cancel(index)
            elif name == "stop" and not in_process:
                # (Raised in a process body it would fail the process.)
                raise StopSimulation(None)

    # -- control -----------------------------------------------------------
    def control(self, op):
        """Apply a top-level op; returns what it returned, for comparison."""
        name = op[0]
        k = self.k
        if name == "run":
            return k.run()
        if name == "run_until":
            return k.run(until=k.now + op[1])
        if name == "step":
            try:
                k.step()
            except StopSimulation:
                return "stopped"
            return None
        if name == "peek":
            return k.peek()
        if name == "cancel":
            return self.cancel(op[1])
        self.run_ops([op], in_process=False)
        return None

    def state(self):
        k = self.k
        return (list(self.log), k.now, k.processed_events, k.cancellations,
                k.tombstones_popped, k.compactions, k.queued,
                k.dead if self.ref else k.dead_entries)


# -- strategies ---------------------------------------------------------------
_delays = st.sampled_from([0.0, 0.0, 0.0, 1e-300, 0.25, 0.5, 1.0])
_kinds = st.sampled_from(["timeout", "timeout", "succeed", "fail", "urgent",
                          "process"])
_cancel = st.tuples(st.just("cancel"), st.integers(0, 10**6))
_storm = st.tuples(st.just("storm"), st.integers(40, 90), _delays)
_burst = st.tuples(st.just("burst"), st.integers(40, 90), _delays)
_leaf = st.tuples(st.just("sched"), _kinds, _delays, st.just(()))
_inner = st.one_of(_leaf, _cancel, st.tuples(st.just("stop")))
_child = st.one_of(
    st.tuples(st.just("sched"), _kinds, _delays,
              st.lists(_inner, max_size=3).map(tuple)),
    _cancel, _storm, _burst)
_top_sched = st.tuples(st.just("sched"), _kinds, _delays,
                       st.lists(_child, max_size=3).map(tuple))
_control = st.one_of(
    st.just(("run",)), st.just(("step",)), st.just(("peek",)),
    st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.25, 0.5, 1.0])))
_programs = st.lists(st.one_of(_top_sched, _top_sched, _cancel, _storm,
                               _burst, _control), max_size=30)


def _check(program):
    sim, ref = Harness(ref=False), Harness(ref=True)
    for op in program:
        assert sim.control(op) == ref.control(op), op
        assert sim.state() == ref.state(), op
    while ref.k.heap:  # a stop() can leave events queued
        sim.control(("run",))
        ref.control(("run",))
        assert sim.state() == ref.state()
    assert sim.k.queued == 0 and sim.k.dead_entries == 0
    assert not sim.k._ready and not sim.k._queue


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_dispatch_matches_reference_heap(program):
    _check(program)


def test_ready_entries_follow_earlier_heap_entries_at_now():
    """A NORMAL heap entry due at now was pushed before the clock got
    there, so it runs before the zero-delay events pushed since; an
    URGENT entry at now runs before both."""
    _check([
        ("sched", "timeout", 1.0, (("sched", "timeout", 0.0, ()),)),
        ("sched", "timeout", 1.0, ()),
        ("sched", "succeed", 1.0, (("sched", "urgent", 0.0, ()),
                                   ("sched", "process", 0.0, ()))),
        ("run",),
    ])


def test_compaction_reclaims_cancelled_ready_entries():
    """A storm of zero-delay events cancelled inside a callback leaves
    its tombstones in the ready FIFO; the in-loop compaction drops them
    there, and the counters match the single heap's."""
    _check([("sched", "timeout", 0.5, (("storm", 90, 0.0),
                                       ("sched", "timeout", 0.0, ()))),
            ("run",)])
    sim = Harness(ref=False)
    sim.control(("sched", "timeout", 0.5, (("storm", 90, 0.0),)))
    sim.control(("run",))
    assert sim.k.compactions == 1
