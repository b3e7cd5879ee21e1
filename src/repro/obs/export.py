"""Exporters for :class:`~repro.obs.SpanTracer` traces.

Two human-facing formats plus the machine-checkable digest:

* :func:`chrome_trace` — Chrome ``trace_event`` JSON (the "JSON Array
  with metadata" flavour), loadable in Perfetto / ``chrome://tracing``.
  Virtual seconds map to microseconds; each simulator becomes a *pid*
  and each span track (machine, proclet, scheduler) a *tid*.
* :func:`flame_profile` — a plain-text, collapsed-stack-style profile
  of virtual time by category path, grouped per track.  *Self* time is
  a span's duration minus the time covered by its children, so the
  totals per track add up instead of double-counting nested phases.

Exporters only read spans — they can be run repeatedly, on live or
finished tracers, without affecting the trace or the simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .spans import Capture, Span, SpanTracer

#: trace_event timestamps are integer-ish microseconds.
_US = 1e6


def _tracer_list(source) -> List[SpanTracer]:
    if isinstance(source, SpanTracer):
        return [source]
    if isinstance(source, Capture):
        return source.tracers
    return list(source)


def chrome_trace(source, label: str = "repro") -> dict:
    """Render *source* (a SpanTracer, Capture, or iterable of tracers)
    as a Chrome ``trace_event`` dict — ``json.dump`` it to a file and
    load that in Perfetto.

    Spans become complete ("ph": "X") events; open spans are closed at
    the tracer's current virtual time for display purposes only (the
    trace itself is not modified).  Metadata ("ph": "M") events name
    processes and threads.
    """
    events: List[dict] = []
    for pid, tracer in enumerate(_tracer_list(source)):
        pname = tracer.label or f"sim{pid}"
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": pname},
        })
        tids: Dict[str, int] = {}
        for span in tracer.spans:
            tid = tids.get(span.track)
            if tid is None:
                tid = tids[span.track] = len(tids) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid, "args": {"name": span.track},
                })
            end = span.end if span.end is not None else tracer.sim.now
            args = dict(span.args)
            args["sid"] = span.sid
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": pid,
                "tid": tid,
                "ts": span.start * _US,
                "dur": (end - span.start) * _US,
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": label, "clock": "virtual"},
    }


def write_chrome_trace(source, path: str, label: str = "repro") -> dict:
    """:func:`chrome_trace` + write to *path*; returns the dict."""
    import json  # here, so that importing the runtime stays free of json

    doc = chrome_trace(source, label=label)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def _category_path(span: Span, by_sid: Dict[int, Span]) -> str:
    """``parentcat;childcat`` chain for the collapsed-stack profile."""
    parts = [span.category]
    cur = span
    while cur.parent_id is not None:
        cur = by_sid[cur.parent_id]
        parts.append(cur.category)
    return ";".join(reversed(parts))


def flame_totals(tracer: SpanTracer) -> Dict[str, Dict[str, float]]:
    """Self-time by (track, category-path), in virtual seconds.

    Self time is a span's duration minus the portions covered by its
    children (clamped at zero — phases may legitimately extend past a
    parent closed early by a failure path), so summing a track's paths
    recovers its total traced time without double counting.
    """
    by_sid = {s.sid: s for s in tracer.spans}
    child_time: Dict[int, float] = {}
    now = tracer.sim.now
    for span in tracer.spans:
        if span.parent_id is not None:
            end = span.end if span.end is not None else now
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + (end - span.start))
    totals: Dict[str, Dict[str, float]] = {}
    for span in tracer.spans:
        end = span.end if span.end is not None else now
        self_time = max(0.0, (end - span.start)
                        - child_time.get(span.sid, 0.0))
        path = _category_path(span, by_sid)
        track = totals.setdefault(span.track, {})
        track[path] = track.get(path, 0.0) + self_time
    return totals


def flame_profile(source, top: Optional[int] = None) -> str:
    """Plain-text flamegraph-style profile: per track (machine, proclet,
    scheduler), category paths sorted by descending self virtual time.

    One line per path, collapsed-stack style (``a;b;c  <seconds>``), so
    the output also feeds standard flamegraph tooling.  *top* limits the
    paths shown per track.
    """
    lines: List[str] = []
    for tracer in _tracer_list(source):
        title = tracer.label or "sim"
        lines.append(f"== {title}: virtual time by category "
                     f"({len(tracer.spans)} spans"
                     + (f", {tracer.dropped} dropped" if tracer.dropped
                        else "") + ") ==")
        totals = flame_totals(tracer)
        for track in sorted(totals):
            lines.append(f"-- {track} --")
            paths = sorted(totals[track].items(),
                           key=lambda kv: (-kv[1], kv[0]))
            if top is not None:
                paths = paths[:top]
            for path, secs in paths:
                lines.append(f"  {path:<48s} {secs * 1e3:12.4f} ms")
        lines.append("")
    return "\n".join(lines)
