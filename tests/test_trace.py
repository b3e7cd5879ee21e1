"""Control-plane decisions recorded in ``runtime.decisions`` by real
runs: each answers "why did this happen?"."""

from repro import Task
from repro.cluster import Priority
from repro.units import KiB, MiB, MS

from .conftest import make_qs


def decisions(qs, category):
    return [d for d in qs.runtime.decisions if d.category == category]


class TestTraceIntegration:
    def test_migration_emits_trace(self, qs_quiet):
        qs = qs_quiet
        ref = qs.spawn_memory(machine=qs.machines[0])
        qs.run(until_event=ref.call("mp_put", 0, 1 * MiB, None))
        qs.run(until_event=qs.runtime.migrate(ref.proclet,
                                              qs.machines[1]))
        events = decisions(qs, "migration")
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
        local = decisions(qs, "sched-local")
        assert local
        assert "cpu-starvation" in local[0].message

    def test_split_traced_with_cause_chain(self):
        """The trace answers 'why is this data on two machines?'"""
        qs = make_qs(max_shard_bytes=1 * MiB, min_shard_bytes=64 * KiB,
                     enable_local_scheduler=False,
                     enable_global_scheduler=False)
        m = qs.sharded_map()
        for i in range(48):
            qs.run(until_event=m.put(f"k{i:03d}", None, 64 * KiB))
        qs.run(until=qs.sim.now + 0.1)
        splits = [e for e in decisions(qs, "reshard")
                  if e.message.startswith("split ")]
        assert splits
        assert any("moved_bytes" in e.fields for e in splits)
