"""Unit tests for proclet spawn, heap accounting, and invocation."""

import pytest

from repro.cluster import Cluster, OutOfMemory, symmetric_cluster
from repro.core.memproclet import MemoryProclet
from repro.runtime import (
    DeadProclet,
    NuRuntime,
    Payload,
    Proclet,
    ProcletStatus,
    UnknownMethod,
)
from repro.units import GiB, KiB, MiB


class Counter(Proclet):
    def __init__(self):
        super().__init__()
        self.value = 0

    def increment(self, ctx, amount=1):
        yield ctx.cpu(1e-6)
        self.value += amount
        return self.value

    def get(self, ctx):
        return self.value  # plain method, no generator

    def read_blob(self, ctx, nbytes):
        yield ctx.cpu(1e-7)
        return Payload(b"", nbytes=nbytes)

    def store(self, ctx, nbytes):
        yield ctx.cpu(1e-7)
        ctx.alloc(nbytes)


@pytest.fixture
def rt():
    cluster = Cluster(symmetric_cluster(2, cores=8, dram_bytes=2 * GiB))
    return NuRuntime(cluster)


class TestSpawn:
    def test_spawn_assigns_identity_and_charges_memory(self, rt):
        m = rt.cluster.machine(0)
        free_before = m.memory.free
        ref = rt.spawn(Counter(), m, name="c")
        p = ref.proclet
        assert p.id == 0
        assert p.name == "c"
        assert p.machine is m
        assert p.status is ProcletStatus.RUNNING
        assert m.memory.free == free_before - Proclet.BASE_FOOTPRINT
        assert rt.proclet_count == 1

    def test_double_spawn_rejected(self, rt):
        p = Counter()
        rt.spawn(p, rt.cluster.machine(0))
        with pytest.raises(ValueError):
            rt.spawn(p, rt.cluster.machine(1))

    def test_spawn_oom(self, rt):
        m = rt.cluster.machine(0)
        m.memory.reserve(m.memory.free)
        with pytest.raises(OutOfMemory):
            rt.spawn(Counter(), m)

    def test_on_start_hook_runs(self, rt):
        class Starter(Proclet):
            def __init__(self):
                super().__init__()
                self.started_at = None

            def on_start(self, ctx):
                yield ctx.cpu(1e-6)
                self.started_at = ctx.now

        ref = rt.spawn(Starter(), rt.cluster.machine(0))
        rt.sim.run(until=1.0)
        assert ref.proclet.started_at is not None

    def test_proclets_on(self, rt):
        m0, m1 = rt.cluster.machines
        rt.spawn(Counter(), m0)
        rt.spawn(Counter(), m0)
        rt.spawn(Counter(), m1)
        assert len(rt.proclets_on(m0)) == 2
        assert len(rt.proclets_on(m1)) == 1


class TestHeap:
    def test_alloc_and_free_charge_machine(self, rt):
        m = rt.cluster.machine(0)
        ref = rt.spawn(Counter(), m)
        p = ref.proclet
        p.heap_alloc(10 * MiB)
        assert p.heap_bytes == 10 * MiB
        assert p.footprint == 10 * MiB + Proclet.BASE_FOOTPRINT
        p.heap_free(4 * MiB)
        assert p.heap_bytes == 6 * MiB

    def test_over_free_rejected(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        with pytest.raises(ValueError):
            ref.proclet.heap_free(1.0)

    def test_alloc_before_spawn_rejected(self):
        p = Counter()
        with pytest.raises(RuntimeError):
            p.heap_alloc(100)

    def test_heap_change_listener(self, rt):
        seen = []
        rt.on_heap_change(lambda p: seen.append(p.heap_bytes))
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        ref.proclet.heap_alloc(1 * KiB)
        assert seen == [1 * KiB]


class TestInvoke:
    def test_local_invocation_returns_value(self, rt):
        m = rt.cluster.machine(0)
        ref = rt.spawn(Counter(), m)
        ev = ref.call("increment", 5, caller_machine=m)
        result = rt.sim.run(until_event=ev)
        assert result == 5
        assert rt.local_calls >= 1
        assert rt.remote_calls == 0

    def test_plain_method_works(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        rt.sim.run(until_event=ref.call("increment", 3))
        v = rt.sim.run(until_event=ref.call("get"))
        assert v == 3

    def test_remote_invocation_charges_rpc(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Counter(), m1)
        ev = ref.call("increment", caller_machine=m0)
        rt.sim.run(until_event=ev)
        assert rt.remote_calls == 1
        # round trip is at least 2x one-way latency
        assert rt.sim.now >= 2 * rt.cluster.spec.network.latency

    def test_remote_is_slower_than_local(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Counter(), m0)
        t0 = rt.sim.now
        rt.sim.run(until_event=ref.call("increment", caller_machine=m0))
        local_time = rt.sim.now - t0
        t0 = rt.sim.now
        rt.sim.run(until_event=ref.call("increment", caller_machine=m1))
        remote_time = rt.sim.now - t0
        assert remote_time > local_time * 5

    def test_payload_response_charges_bandwidth(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Counter(), m1)
        nbytes = 100 * MiB
        t0 = rt.sim.now
        rt.sim.run(until_event=ref.call("read_blob", nbytes,
                                        caller_machine=m0))
        elapsed = rt.sim.now - t0
        assert elapsed >= nbytes / m1.nic.bandwidth

    def test_payload_free_for_local_caller(self, rt):
        m1 = rt.cluster.machine(1)
        ref = rt.spawn(Counter(), m1)
        t0 = rt.sim.now
        rt.sim.run(until_event=ref.call("read_blob", 100 * MiB,
                                        caller_machine=m1))
        assert rt.sim.now - t0 < 1e-3

    def test_req_bytes_charged_for_remote_writes(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Counter(), m1)
        nbytes = 50 * MiB
        t0 = rt.sim.now
        rt.sim.run(until_event=ref.call("store", nbytes,
                                        caller_machine=m0,
                                        req_bytes=nbytes))
        assert rt.sim.now - t0 >= nbytes / m0.nic.bandwidth

    def test_unknown_method_fails(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        ev = ref.call("nonexistent")
        with pytest.raises(UnknownMethod):
            rt.sim.run(until_event=ev)

    def test_method_cpu_contention_slows_execution(self, rt):
        m = rt.cluster.machine(0)
        from repro.cluster import Priority
        m.cpu.hold(threads=8.0, priority=Priority.HIGH)

        class Worker(Proclet):
            def work(self, ctx):
                yield ctx.cpu(0.001)
                return "done"

        ref = rt.spawn(Worker(), m)
        ev = ref.call("work", caller_machine=m)
        rt.sim.run(until=0.5)
        assert not ev.triggered  # starved by the HIGH hold


class TestDestroy:
    def test_destroy_releases_memory(self, rt):
        m = rt.cluster.machine(0)
        free0 = m.memory.free
        ref = rt.spawn(Counter(), m)
        ref.proclet.heap_alloc(1 * MiB)
        rt.destroy(ref)
        assert m.memory.free == free0
        assert rt.proclet_count == 0

    def test_call_after_destroy_fails(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        rt.destroy(ref)
        ev = ref.call("increment")
        with pytest.raises(DeadProclet):
            rt.sim.run(until_event=ev)

    def test_double_destroy_is_noop(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        rt.destroy(ref)
        rt.destroy(ref)

    def test_destroy_fails_callers_blocked_on_its_gate(self, rt):
        ref = rt.spawn(MemoryProclet(), rt.cluster.machine(0))
        proclet = ref.proclet
        rt.gate(proclet, "migration")
        ev = ref.call("mp_get", 0)
        rt.sim.run(until=rt.sim.now + 1e-3)
        assert not ev.triggered  # blocked on the closed gate
        rt.destroy(ref)
        assert proclet._migration_gate is None
        rt.sim.run(until=rt.sim.now + 1.0)
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, DeadProclet)


class TestRef:
    def test_ref_equality_and_hash(self, rt):
        from repro.runtime import ProcletRef

        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        same = ProcletRef(rt, ref.proclet_id, "alias")
        assert ref == same
        assert hash(ref) == hash(same)

    def test_ref_machine_tracks_location(self, rt):
        m0 = rt.cluster.machine(0)
        ref = rt.spawn(Counter(), m0)
        assert ref.machine is m0


class TestGate:
    def test_gate_holds_invocations_until_ungate(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        p = ref.proclet
        gate = rt.gate(p, "migration")
        assert p.status is ProcletStatus.MIGRATING
        assert p._migration_gate is gate
        ev = ref.call("increment")
        rt.sim.run(until=1.0)
        assert not ev.triggered
        rt.ungate(p)
        assert gate.triggered and p._migration_gate is None
        assert p.status is ProcletStatus.RUNNING
        assert rt.sim.run(until_event=ev) == 1

    def test_ungate_after_crash_is_a_noop(self, rt):
        """A crash opens the gate itself; a later ungate must not
        revive the dead proclet."""
        m = rt.cluster.machine(0)
        ref = rt.spawn(Counter(), m)
        p = ref.proclet
        gate = rt.gate(p, "migration")
        ev = ref.call("increment")
        rt.fail_machine(m)
        assert gate.triggered and p._migration_gate is None
        rt.ungate(p)
        assert p.status is ProcletStatus.DEAD
        with pytest.raises(DeadProclet):
            rt.sim.run(until_event=ev)

    def test_gate_span_nests_under_parent_and_records_outcome(self, rt):
        from repro.obs import SpanTracer

        tr = SpanTracer(rt.sim)
        p = rt.spawn(Counter(), rt.cluster.machine(0)).proclet
        rt.gate(p, "migration")
        rt.ungate(p, outcome="aborted")
        parent = tr.begin("op", "op")
        rt.gate(p, "migration", parent=parent)
        rt.ungate(p)
        first, second = [s for s in tr.spans if s.category == "gate"]
        assert first.parent_id == p._span.sid
        assert first.args == {"outcome": "aborted"}
        assert second.parent_id == parent.sid and second.closed


class TestTwin:
    def test_twin_is_an_unspawned_empty_copy(self, rt):
        ref = rt.spawn(Counter(), rt.cluster.machine(0))
        rt.sim.run(until_event=ref.call("increment"))
        twin = ref.proclet.twin()
        assert type(twin) is Counter
        assert twin.id is None and twin.value == 0
        assert twin.status is ProcletStatus.CREATED

    def test_compute_twin_keeps_its_wiring(self):
        from repro.core.computeproclet import ComputeProclet, TaskSource

        owner, source = object(), TaskSource()
        p = ComputeProclet(parallelism=3, source=source)
        p.shard_owner = owner
        p.on_task_done = print
        twin = p.twin()
        assert type(twin) is ComputeProclet
        assert (twin.parallelism, twin.source, twin.on_task_done,
                twin.shard_owner) == (3, source, print, owner)
