"""repro.obs — span-based tracing & profiling in virtual time.

The observability layer for the reproduction: attach a
:class:`SpanTracer` to a :class:`~repro.sim.Simulator` (or wrap a whole
experiment in :func:`capture`) and the runtime records structured,
parent-linked spans for proclet lifecycle, migration phases, scheduler
rounds, split/merge, and chaos fault windows.  Export with
:func:`chrome_trace` (Perfetto) or :func:`flame_profile` (text), and
pin determinism with :meth:`SpanTracer.digest`.

Every control-plane decision is one :class:`Decision` in
``runtime.decisions``, written by ``NuRuntime.decide``; with a tracer
attached the same call closes or records the decision's span.

See ``docs/observability.md`` for the span taxonomy and formats.
"""

from .export import (chrome_trace, flame_profile, flame_totals,
                     write_chrome_trace)
from .spans import Capture, Decision, Span, SpanTracer, capture

__all__ = [
    "Decision",
    "Span",
    "SpanTracer",
    "Capture",
    "capture",
    "chrome_trace",
    "write_chrome_trace",
    "flame_profile",
    "flame_totals",
]
