"""Hot-path objects are freed by reference count, not by the cyclic GC.

Every proclet call is a :class:`Process` and every slice of CPU or NIC
work a :class:`FluidItem`; a run makes tens of thousands of each.  Once
one has finished and nothing holds it, it must not sit in a reference
cycle waiting for the cyclic collector.  The test runs a small cluster
with the collector disabled, then asks it what it would have reclaimed.
"""

import gc

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


def test_finished_calls_and_work_items_leave_no_cyclic_garbage():
    rt = NuRuntime(Cluster(symmetric_cluster(2, cores=4,
                                             dram_bytes=2 * GiB)))
    was_enabled = gc.isenabled()
    old_debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        local_calls, remote_calls = _run_calls(rt, calls=8)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = {}
        for obj in gc.garbage:
            if isinstance(obj, FluidItem):
                kind = "FluidItem"
            elif isinstance(obj, Process) and obj.triggered:
                kind = "finished Process"
            elif isinstance(obj, _Start):
                kind = "process start entry"
            else:
                continue
            leaked[kind] = leaked.get(kind, 0) + 1
    finally:
        gc.set_debug(old_debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    # The run exercised both call paths before the check means anything.
    assert local_calls >= 8 and remote_calls >= 8
    assert leaked == {}
