"""Tests for per-machine location caches with lazy forwarding."""

import pytest

from repro import ClusterSpec, MachineSpec, Proclet, Quicksand
from repro import QuicksandConfig
from repro.units import GiB

from ..conftest import make_qs


class Echo(Proclet):
    def ping(self, ctx):
        yield ctx.cpu(1e-7)
        return ctx.machine.name


@pytest.fixture
def qs():
    return make_qs(machines=[
        MachineSpec(name="m0", cores=8, dram_bytes=4 * GiB),
        MachineSpec(name="m1", cores=8, dram_bytes=4 * GiB),
        MachineSpec(name="m2", cores=8, dram_bytes=4 * GiB),
    ], enable_local_scheduler=False, enable_global_scheduler=False,
        enable_split_merge=False)


class TestForwarding:
    def test_first_call_after_migration_pays_forwarding(self, qs):
        m0, m1, m2 = qs.machines
        ref = qs.spawn(Echo(), m1)
        # Prime m0's cache.
        qs.run(until_event=ref.call("ping", caller_machine=m0))
        assert qs.runtime.locator.forwarding_hops == 0
        # Move the proclet; m0's cache is now stale.
        qs.run(until_event=qs.runtime.migrate(ref.proclet, m2))
        t0 = qs.sim.now
        assert qs.run(until_event=ref.call("ping",
                                           caller_machine=m0)) == "m2"
        forwarded_time = qs.sim.now - t0
        assert qs.runtime.locator.forwarding_hops == 1
        # Second call uses the refreshed cache: no new hop, faster.
        t0 = qs.sim.now
        qs.run(until_event=ref.call("ping", caller_machine=m0))
        direct_time = qs.sim.now - t0
        assert qs.runtime.locator.forwarding_hops == 1
        assert forwarded_time > direct_time

    def test_local_call_after_proclet_moves_away(self, qs):
        """A caller colocated with the proclet believes it is local; when
        it moves away the 'local' call turns into a forwarded remote."""
        m0, m1, _m2 = qs.machines
        ref = qs.spawn(Echo(), m0)
        qs.run(until_event=ref.call("ping", caller_machine=m0))
        local_calls_before = qs.runtime.local_calls
        qs.run(until_event=qs.runtime.migrate(ref.proclet, m1))
        assert qs.run(until_event=ref.call("ping",
                                           caller_machine=m0)) == "m1"
        assert qs.runtime.locator.forwarding_hops == 1
        assert qs.runtime.local_calls == local_calls_before

    def test_each_machine_cache_is_independent(self, qs):
        m0, m1, m2 = qs.machines
        ref = qs.spawn(Echo(), m0)
        qs.run(until_event=ref.call("ping", caller_machine=m1))
        qs.run(until_event=ref.call("ping", caller_machine=m2))
        qs.run(until_event=qs.runtime.migrate(ref.proclet, m1))
        # Both m1 and m2 have stale caches; each pays one hop.
        qs.run(until_event=ref.call("ping", caller_machine=m1))
        qs.run(until_event=ref.call("ping", caller_machine=m2))
        assert qs.runtime.locator.forwarding_hops == 2

    def test_destroy_clears_cache_entries(self, qs):
        m0, m1, _m2 = qs.machines
        ref = qs.spawn(Echo(), m1)
        qs.run(until_event=ref.call("ping", caller_machine=m0))
        qs.runtime.destroy(ref)
        assert ref.proclet_id not in qs.runtime.locator._caches
