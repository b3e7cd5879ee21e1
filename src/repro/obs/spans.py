"""Span-based tracing in virtual time, and the control-plane decision
record.

A :class:`Span` is an *interval*: a start and end in virtual time, a
category, an owning track (machine, proclet, scheduler), and a parent —
so a migration nests under the scheduler round that triggered it and
its checkpoint/transfer/commit phases nest under the migration.

A :class:`Decision` is one control-plane decision (migration, split,
merge, eviction, autoscale action, fault, recovery shed).
``NuRuntime.decide`` is its only writer: it appends the record to
``runtime.decisions`` on every run, traced or not, and with a tracer
attached also closes the decision's span (or records an instant span of
the same category and message).

The tracer attaches to a :class:`~repro.sim.Simulator` as
``sim.tracer``.  Every instrumentation site in the runtime follows the
same pattern::

    tr = sim.tracer
    if tr is not None:
        span = tr.begin("migration", name, parent=parent, ...)

so with tracing off (``sim.tracer is None``, the default) the cost is
one attribute read and a branch — nothing allocates, nothing is
recorded, and ``benchmarks/bench_kernel.py`` numbers are unaffected.

Tracing must never perturb the simulation: the tracer schedules no
events, draws no randomness, and only reads ``sim.now``.  A traced run
therefore takes the exact same trajectory as an untraced one, and two
same-seed traced runs produce identical spans (see :meth:`digest`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..units import fmt_time


@dataclass(frozen=True)
class Decision:
    """One control-plane decision, as ``NuRuntime.decide`` records it."""

    time: float
    category: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        # The chaos replay digest hashes this line: keep it byte-stable.
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return (f"[{fmt_time(self.time):>12}] {self.category:<12} "
                f"{self.message}" + (f" ({extras})" if extras else ""))


class Span:
    """One traced interval of virtual time."""

    __slots__ = ("sid", "parent_id", "category", "name", "track",
                 "start", "end", "args")

    def __init__(self, sid: int, parent_id: Optional[int], category: str,
                 name: str, track: str, start: float,
                 args: Dict[str, Any]):
        self.sid = sid
        self.parent_id = parent_id
        self.category = category
        self.name = name
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.args = args

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Virtual seconds covered (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def canonical(self) -> str:
        """Stable one-line serialization (digest input).

        Floats are rendered with ``repr`` so the line is bit-faithful to
        the virtual timestamps; args are sorted by key.
        """
        args = ",".join(f"{k}={self.args[k]!r}" for k in sorted(self.args))
        return (f"{self.sid}|{self.parent_id}|{self.category}|{self.name}|"
                f"{self.track}|{self.start!r}|{self.end!r}|{args}")

    def __repr__(self) -> str:
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (f"<Span #{self.sid} {self.category}:{self.name!r} "
                f"[{self.start:.6f}, {end}] track={self.track}>")


class SpanTracer:
    """Records spans against one simulator's virtual clock.

    Constructing a tracer attaches it as ``sim.tracer``; the
    instrumentation sites throughout the runtime then start recording.
    ``max_spans`` bounds memory on very long runs — past the cap new
    spans are counted in :attr:`dropped` instead of recorded.
    """

    def __init__(self, sim, label: str = "", max_spans: int = 500_000):
        self.sim = sim
        self.label = label
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._open = 0
        self._next_sid = 0
        # Synchronous nesting stack: regions push here so spans begun
        # inside (including by code several calls down) parent onto them.
        self._stack: List[Span] = []
        sim.tracer = self

    # -- recording ----------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """Innermost open region (default parent for new spans)."""
        return self._stack[-1] if self._stack else None

    def begin(self, category: str, name: str,
              parent: Optional[Span] = None, track: str = "",
              **args) -> Optional[Span]:
        """Open a span at the current virtual time.

        *parent* defaults to the innermost active region.  Returns None
        (and counts a drop) past the ``max_spans`` cap — ``end`` accepts
        None so call sites need no extra guard.
        """
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        if parent is None:
            parent = self.current
        span = Span(self._next_sid,
                    parent.sid if parent is not None else None,
                    category, name, track or "main", self.sim.now, args)
        self._next_sid += 1
        self.spans.append(span)
        self._open += 1
        return span

    def end(self, span: Optional[Span], **args) -> None:
        """Close *span* at the current virtual time (no-op on None, and
        idempotent on an already-closed span)."""
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        if args:
            span.args.update(args)
        self._open -= 1

    def instant(self, category: str, name: str,
                parent: Optional[Span] = None, track: str = "",
                **args) -> Optional[Span]:
        """A zero-duration span (scheduler decisions, fault injections)."""
        span = self.begin(category, name, parent=parent, track=track, **args)
        self.end(span)
        return span

    @contextmanager
    def region(self, category: str, name: str, track: str = "",
               **args) -> Iterator[Optional[Span]]:
        """Span covering a *synchronous* section, pushed on the nesting
        stack so everything begun inside parents onto it.

        Only for sections that cannot yield virtual time — processes that
        suspend must carry their span explicitly (the stack is global and
        interleaved processes would corrupt it).
        """
        span = self.begin(category, name, track=track, **args)
        if span is not None:
            self._stack.append(span)
        try:
            yield span
        finally:
            if span is not None:
                self._stack.pop()
            self.end(span)

    def finish(self) -> "SpanTracer":
        """Close every still-open span at the current virtual time.

        Called at end-of-run: lifecycle spans of proclets alive at the
        horizon (and fault windows never healed) are legitimately open
        until here.  Idempotent.
        """
        if self._open:
            for span in self.spans:
                if span.end is None:
                    span.end = self.sim.now
                    span.args["unclosed"] = True
            self._open = 0
        del self._stack[:]
        return self

    def detach(self) -> "SpanTracer":
        """Stop recording: detach from the simulator (and finish)."""
        self.finish()
        if self.sim.tracer is self:
            self.sim.tracer = None
        return self

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    @property
    def open_count(self) -> int:
        """Spans begun but not yet ended."""
        return self._open

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def categories(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.category] = out.get(s.category, 0) + 1
        return out

    def stats(self) -> Dict[str, int]:
        """Span, open and dropped counts plus one ``category.<cat>``
        count per span category."""
        out = {"spans": len(self.spans), "open": self._open,
               "dropped": self.dropped}
        for cat, count in self.categories().items():
            out[f"category.{cat}"] = count
        return out

    def digest(self) -> str:
        """sha256 over the canonical serialization of every span.

        Same seed ⇒ same digest (the determinism acceptance check, same
        idiom as the chaos replay digest); any change to span structure,
        timing, or args changes it.
        """
        h = hashlib.sha256()
        for span in self.spans:
            h.update(span.canonical().encode())
            h.update(b"\n")
        h.update(f"dropped={self.dropped}\n".encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return (f"<SpanTracer {self.label!r} spans={len(self.spans)} "
                f"open={self._open} dropped={self.dropped}>")


class Capture:
    """Collects the tracers attached while a :func:`capture` is active."""

    def __init__(self):
        self.tracers: List[SpanTracer] = []

    def _attach(self, sim) -> None:
        self.tracers.append(SpanTracer(sim, label=f"sim{len(self.tracers)}"))

    def digest(self) -> str:
        """Combined digest over every captured simulator, in creation
        order (itself deterministic for a deterministic driver)."""
        h = hashlib.sha256()
        for tracer in self.tracers:
            h.update(tracer.digest().encode())
            h.update(b"\n")
        return h.hexdigest()

    @property
    def spans(self) -> List[Span]:
        return [s for tr in self.tracers for s in tr.spans]


@contextmanager
def capture() -> Iterator[Capture]:
    """Attach a :class:`SpanTracer` to every Simulator built inside the
    block (experiments construct their own simulators, so tracing hooks
    in at construction time)::

        with capture() as cap:
            result = run_fig1(Fig1Config(duration=0.06))
        print(cap.digest())

    Tracers are finished (all spans closed) on exit; nesting captures is
    not supported (the inner one wins for its duration).
    """
    from ..sim import simulator as _simulator

    cap = Capture()
    prev = _simulator.get_tracer_factory()
    _simulator.set_tracer_factory(cap._attach)
    try:
        yield cap
    finally:
        _simulator.set_tracer_factory(prev)
        for tracer in cap.tracers:
            tracer.finish()
