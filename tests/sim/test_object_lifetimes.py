"""Hot-path objects are freed by reference count, not by the cyclic GC.

Every proclet call is a :class:`Process` and every slice of CPU or NIC
work a :class:`FluidItem`; a run makes tens of thousands of each.  Once
one has finished and nothing holds it, it must not sit in a reference
cycle waiting for the cyclic collector.  The test runs a small cluster
with the collector disabled, then asks it what it would have reclaimed.
"""

import gc
import types

from repro.cluster import Cluster, symmetric_cluster
from repro.runtime import NuRuntime, Proclet
from repro.sim import FluidItem, Process
from repro.sim.process import _Start
from repro.units import GiB, KiB


class Worker(Proclet):
    def burn(self, ctx, work):
        yield ctx.cpu(work)
        yield ctx.cpu(0.0)  # zero work: finished at submit
        return work

    def fan(self, ctx, local, remote):
        yield ctx.cpu(1e-4, threads=2.0)
        a = yield ctx.call(local, "burn", 2e-4)
        b = yield ctx.call(remote, "burn", 3e-4, req_bytes=64 * KiB)
        return a + b


def _run_calls(rt, calls):
    m0, m1 = rt.cluster.machine(0), rt.cluster.machine(1)
    caller = rt.spawn(Worker(), m0, name="caller")
    local = rt.spawn(Worker(), m0, name="local")
    remote = rt.spawn(Worker(), m1, name="remote")
    done = rt.sim.all_of([
        rt.invoke(caller, "fan", local, remote, caller_machine=m0)
        for _ in range(calls)
    ])
    rt.sim.run(until_event=done)
    return rt.local_calls, rt.remote_calls


def _garbage_after(run):
    """Call *run* with the cyclic collector off and return the objects
    the collector would then reclaim."""
    was_enabled = gc.isenabled()
    old_debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(old_debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _count(garbage, classify):
    leaked = {}
    for obj in garbage:
        kind = classify(obj)
        if kind is not None:
            leaked[kind] = leaked.get(kind, 0) + 1
    return leaked


def test_finished_calls_and_work_items_leave_no_cyclic_garbage():
    rt = NuRuntime(Cluster(symmetric_cluster(2, cores=4,
                                             dram_bytes=2 * GiB)))

    def classify(obj):
        if isinstance(obj, FluidItem):
            return "FluidItem"
        if isinstance(obj, Process) and obj.triggered:
            return "finished Process"
        if isinstance(obj, _Start):
            return "process start entry"
        return None

    (local_calls, remote_calls), garbage = _garbage_after(
        lambda: _run_calls(rt, calls=8))
    # The run exercised both call paths before the check means anything.
    assert local_calls >= 8 and remote_calls >= 8
    assert _count(garbage, classify) == {}


class Faulty(Proclet):
    def boom(self, ctx):
        yield ctx.cpu(1e-4)
        raise ValueError("boom")


def test_failed_calls_leave_no_cyclic_garbage():
    """A failed process holds its exception, whose traceback must not
    reach back to the process through the frame that caught it."""
    rt = NuRuntime(Cluster(symmetric_cluster(2, cores=4,
                                             dram_bytes=2 * GiB)))
    m0 = rt.cluster.machine(0)
    target = rt.spawn(Faulty(), m0, name="faulty")
    errors = []

    def run():
        for _ in range(4):
            rt.invoke(target, "boom", caller_machine=m0,
                      retryable=False).subscribe(
                lambda ev: errors.append(type(ev.value)))
        rt.sim.run()

    def classify(obj):
        if isinstance(obj, Process) and not obj.ok:
            return "failed Process"
        if (isinstance(obj, types.FrameType)
                and obj.f_code is Process._resume.__code__):
            return "_resume frame"
        return None

    _, garbage = _garbage_after(run)
    assert errors == [ValueError] * 4
    assert _count(garbage, classify) == {}
