"""Unit tests for the repro.obs exporters and metrics integration."""

import json

from repro.metrics import MetricsRecorder
from repro.obs import (SpanTracer, chrome_trace, flame_profile, flame_totals,
                       write_chrome_trace)
from repro.sim import Simulator


def build_trace():
    """A hand-built trace with known self-times:

    parent [0, 10] on track "t"
      child [2, 5]  (3s)
      child [6, 8]  (2s)
    root instant at 1 on track "u"
    """
    sim = Simulator()
    tracer = SpanTracer(sim, label="unit")
    parent = tracer.begin("work", "parent", track="t")
    sim.call_at(1.0, lambda: tracer.instant("mark", "m", track="u"))
    sim.call_at(2.0, lambda: None)
    sim.run(until=2.0)
    c1 = tracer.begin("sub", "c1", parent=parent, track="t")
    sim.run(until=5.0)
    tracer.end(c1)
    sim.run(until=6.0)
    c2 = tracer.begin("sub", "c2", parent=parent, track="t")
    sim.run(until=8.0)
    tracer.end(c2)
    sim.run(until=10.0)
    tracer.end(parent)
    return sim, tracer


class TestFlameProfile:
    def test_self_time_subtracts_children(self):
        _sim, tracer = build_trace()
        totals = flame_totals(tracer)
        assert totals["t"]["work"] == 5.0  # 10 - 3 - 2
        assert totals["t"]["work;sub"] == 5.0  # 3 + 2
        assert totals["u"]["mark"] == 0.0

    def test_profile_text_lists_tracks_and_paths(self):
        _sim, tracer = build_trace()
        text = flame_profile(tracer)
        assert "-- t --" in text and "-- u --" in text
        assert "work;sub" in text

    def test_top_limits_paths_per_track(self):
        _sim, tracer = build_trace()
        text = flame_profile(tracer, top=1)
        assert "work;sub" not in text.split("-- u --")[0].split("-- t --")[1]


class TestChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        _sim, tracer = build_trace()
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["otherData"]["clock"] == "virtual"

    def test_timestamps_are_microseconds(self):
        _sim, tracer = build_trace()
        doc = chrome_trace(tracer)
        parent = next(e for e in doc["traceEvents"]
                      if e.get("name") == "parent")
        assert parent["ts"] == 0.0
        assert parent["dur"] == 10.0 * 1e6

    def test_parent_links_exported_in_args(self):
        _sim, tracer = build_trace()
        doc = chrome_trace(tracer)
        by_name = {e["name"]: e for e in doc["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["c1"]["args"]["parent"] == \
            by_name["parent"]["args"]["sid"]

    def test_open_spans_rendered_to_now_without_mutation(self):
        sim = Simulator()
        tracer = SpanTracer(sim)
        span = tracer.begin("c", "open")
        sim.call_at(3.0, lambda: None)
        sim.run()
        doc = chrome_trace(tracer)
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["dur"] == 3.0 * 1e6
        assert span.end is None  # exporting didn't close it


class TestRecorderIntegration:
    def test_record_trace_stats_snapshots_counters(self):
        sim = Simulator()
        tracer = SpanTracer(sim)
        tracer.instant("alpha", "a")
        tracer.begin("beta", "b")
        rec = MetricsRecorder(sim)
        stats = rec.record_stats(tracer, "obs.trace")
        assert stats["spans"] == 2 and stats["open"] == 1
        assert stats["category.alpha"] == 1
        assert rec.gauge("obs.trace.spans").level == 2
        assert rec.gauge("obs.trace.category.beta").level == 1

    def test_detach_stops_recording(self):
        sim = Simulator()
        tracer = SpanTracer(sim)
        tracer.instant("c", "before")
        tracer.detach()
        assert sim.tracer is None
        assert tracer.open_count == 0
