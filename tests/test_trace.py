"""Tests for control-plane tracing."""

import pytest

from repro import Proclet, Task
from repro.cluster import Priority
from repro.sim import Simulator
from repro.trace import TraceEvent, Tracer
from repro.units import KiB, MiB, MS

from .conftest import make_qs


class TestTracerUnit:
    def test_emit_and_query(self):
        sim = Simulator()
        tr = Tracer(sim)
        tr.emit("a", "first", x=1)
        sim.timeout(1.0)
        sim.run()
        tr.emit("b", "second")
        assert len(tr) == 2
        assert [e.message for e in tr.by_category("a")] == ["first"]
        assert len(tr.since(0.5)) == 1
        assert tr.categories() == {"a": 1, "b": 1}

    def test_grep(self):
        tr = Tracer(Simulator())
        tr.emit("x", "hello world", target="m0")
        assert tr.grep("world")
        assert tr.grep("m0")
        assert not tr.grep("nope")

    def test_disabled_tracer_is_silent(self):
        tr = Tracer(Simulator(), enabled=False)
        tr.emit("x", "msg")
        assert len(tr) == 0

    def test_cap_drops_and_reports(self):
        tr = Tracer(Simulator(), max_events=2)
        for i in range(5):
            tr.emit("x", f"e{i}")
        assert len(tr) == 2
        assert tr.dropped == 3
        assert "dropped" in tr.dump()

    def test_event_str(self):
        e = TraceEvent(time=0.0012, category="migration",
                       message="p m0->m1", fields={"bytes": 10})
        s = str(e)
        assert "migration" in s and "bytes=10" in s

    def test_dump_empty(self):
        assert "empty" in Tracer(Simulator()).dump()


class TestTraceIntegration:
    def test_migration_emits_trace(self, qs_quiet):
        qs = qs_quiet
        ref = qs.spawn_memory(machine=qs.machines[0])
        qs.run(until_event=ref.call("mp_put", 0, 1 * MiB, None))
        qs.run(until_event=qs.runtime.migrate(ref.proclet,
                                              qs.machines[1]))
        events = qs.runtime.tracer.by_category("migration")
        assert len(events) == 1
        assert "m0->m1" in events[0].message
        assert events[0].fields["bytes"] > 1 * MiB

    def test_local_scheduler_decision_traced(self):
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0 = qs.machines[0]
        ref = qs.spawn_compute(machine=m0)
        ref.call("cp_submit", Task(work=100.0, done=qs.sim.event()))
        qs.run(until=2 * MS)
        m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        qs.run(until=qs.sim.now + 5 * MS)
        decisions = qs.runtime.tracer.by_category("sched-local")
        assert decisions
        assert "cpu-starvation" in decisions[0].message

    def test_split_traced_with_cause_chain(self):
        """The trace answers 'why is this data on two machines?'"""
        qs = make_qs(max_shard_bytes=1 * MiB, min_shard_bytes=64 * KiB,
                     enable_local_scheduler=False,
                     enable_global_scheduler=False)
        m = qs.sharded_map()
        for i in range(48):
            qs.run(until_event=m.put(f"k{i:03d}", None, 64 * KiB))
        qs.run(until=qs.sim.now + 0.1)
        splits = [e for e in qs.runtime.tracer.by_category("reshard")
                  if e.message.startswith("split ")]
        assert splits
        assert any("moved_bytes" in e.fields for e in splits)
