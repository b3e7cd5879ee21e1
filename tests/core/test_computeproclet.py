"""Unit tests for compute proclets: task execution, stop, streaming.

Queue division (split and merge) is the pool's: tests/compute/test_pool.py."""

import pytest

from repro import Task
from repro.cluster import Priority
from repro.core.computeproclet import ComputeProclet

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


def submit(qs, ref, task):
    if task.done is None:
        task.done = qs.sim.event()
    ref.call("cp_submit", task)
    return task.done


class TestBasics:
    def test_plain_cpu_task_completes(self, qs):
        ref = qs.spawn_compute()
        done = submit(qs, ref, Task(work=0.01))
        qs.sim.run(until_event=done)
        assert qs.sim.now >= 0.01
        assert ref.proclet.tasks_done == 1

    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            ComputeProclet(parallelism=0)

    def test_negative_task_work_rejected(self):
        with pytest.raises(ValueError):
            Task(work=-1.0)

    def test_fn_task_receives_ctx(self, qs):
        ref = qs.spawn_compute()
        seen = {}

        def fn(ctx, task):
            yield ctx.cpu(0.001)
            seen["machine"] = ctx.machine.name
            return 42

        done = submit(qs, ref, Task(fn=fn))
        result = qs.sim.run(until_event=done)
        assert result == 42
        assert seen["machine"] == ref.machine.name

    def test_tasks_run_concurrently_with_parallelism(self, qs):
        ref = qs.spawn_compute(parallelism=4)
        events = [submit(qs, ref, Task(work=0.1)) for _ in range(4)]
        qs.sim.run(until_event=qs.sim.all_of(events))
        # 4 tasks x 0.1s on 4 workers on an 8-core machine: ~0.1s total.
        assert qs.sim.now == pytest.approx(0.1, rel=0.05)

    def test_single_worker_serializes(self, qs):
        ref = qs.spawn_compute(parallelism=1)
        events = [submit(qs, ref, Task(work=0.1)) for _ in range(4)]
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert qs.sim.now == pytest.approx(0.4, rel=0.05)

    def test_queue_length_visible(self, qs):
        ref = qs.spawn_compute(parallelism=1)
        for _ in range(5):
            submit(qs, ref, Task(work=1.0))
        qs.sim.run(until=0.01)
        # one executing, four queued
        assert ref.proclet.queue_length == 4
        assert ref.proclet.busy_workers == 1

    def test_on_task_done_callback(self, qs):
        ref = qs.spawn_compute()
        calls = []
        ref.proclet.on_task_done = lambda p, t, r: calls.append(t.key)
        done = submit(qs, ref, Task(work=0.001, key="t1"))
        qs.sim.run(until_event=done)
        assert calls == ["t1"]


class TestStopAndDrain:
    def test_request_stop_fires_after_inflight_tasks(self, qs):
        ref = qs.spawn_compute(parallelism=1)
        running = submit(qs, ref, Task(work=0.05))
        qs.sim.run(until=0.01)
        stopped = ref.proclet.request_stop()
        assert not stopped.triggered
        qs.sim.run(until_event=stopped)
        assert running.triggered
        assert qs.sim.now == pytest.approx(0.05, rel=0.05)

    def test_stop_idle_proclet_fires_quickly(self, qs):
        ref = qs.spawn_compute(parallelism=2)
        qs.sim.run(until=0.01)  # workers are idle-waiting
        stopped = ref.proclet.request_stop()
        qs.sim.run(until_event=stopped)
        assert qs.sim.now < 0.02


class TestStreamingSource:
    def test_source_pull_drives_workers(self, qs):
        class CountingSource:
            def __init__(self, n):
                self.remaining = n
                self.pulled = 0

            def pull(self, ctx):
                yield ctx.cpu(1e-6)
                if self.remaining == 0:
                    return None
                self.remaining -= 1
                self.pulled += 1
                return Task(work=0.005)

        source = CountingSource(10)
        ref = qs.spawn_compute(parallelism=2, source=source)
        qs.sim.run(until=1.0)
        assert source.pulled == 10
        assert ref.proclet.tasks_done == 10
        # workers exited after exhaustion
        assert ref.proclet._live_workers == 0

    def test_priority_starvation_blocks_tasks(self, qs):
        m0 = qs.machines[0]
        hold = m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        ref = qs.spawn_compute(machine=m0)
        done = submit(qs, ref, Task(work=0.001))
        qs.sim.run(until=0.1)
        assert not done.triggered
        m0.cpu.release(hold)
        qs.sim.run(until_event=done)
