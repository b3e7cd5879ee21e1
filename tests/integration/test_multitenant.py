"""Whole-system stress: every application sharing one cluster.

The utility-computing end state the paper argues for — latency-critical
services, an elastic cache, a fungible filler, and a batch pipeline all
multiplexed onto the same machines, each consuming its own resource
kind — must compose without interference beyond what priorities imply.
"""

import pytest

from repro import MachineSpec, MigrationFailed, ProcletStatus
from repro.apps import ElasticCache, FillerApp, LatencyService
from repro.units import GiB, KiB, MS, MiB, US

from ..conftest import make_qs


class TestMultiTenant:
    def test_four_tenants_compose(self):
        qs = make_qs(machines=[
            MachineSpec(name="m0", cores=16, dram_bytes=8 * GiB),
            MachineSpec(name="m1", cores=16, dram_bytes=8 * GiB),
        ], enable_global_scheduler=False)

        # Tenant 1: latency-critical service on m0 (HIGH priority).
        svc = LatencyService(qs.machines[0], arrival_rate=4000.0,
                             service_cpu=500 * US)
        svc.start()

        # Tenant 2: elastic cache (memory-only).
        cache = ElasticCache(qs, budget_bytes=256 * MiB)
        for i in range(32):
            qs.run(until_event=cache.put(f"obj{i}", i, 4 * MiB))

        # Tenant 3: batch analytics over a sharded vector.
        vec = qs.sharded_vector(name="batch")
        events = [vec.append(i, 256 * KiB) for i in range(200)]
        qs.run(until_event=qs.sim.all_of(events))
        pool = qs.compute_pool(name="batch", initial_members=4)
        from repro.compute import for_each

        batch_done = for_each(pool, vec, work=1 * MS, task_elems=25)

        # Tenant 4: filler soaking up whatever is left.
        filler = FillerApp(qs, proclets=8, work_unit=100 * US)

        qs.run(until=0.5)

        # Everyone made progress.
        assert svc.requests_done > 1000
        assert svc.latency_summary().p99 < 3 * MS
        assert cache.hit_rate >= 0.0  # cache alive
        assert qs.run(until_event=cache.get("obj3")) == 3
        assert batch_done.triggered  # 200 ms of CPU across the cluster
        assert filler.units_done > 0

        # Accounting stayed coherent through all of it.
        reserved = sum(m.memory.used for m in qs.machines)
        footprints = sum(p.footprint
                         for p in qs.runtime._proclets.values())
        assert reserved == pytest.approx(footprints)

    def test_cluster_survives_tenant_teardown(self):
        qs = make_qs(enable_global_scheduler=False)
        cache = ElasticCache(qs, budget_bytes=64 * MiB)
        qs.run(until_event=cache.put("k", 1, 1 * MiB))
        vec = qs.sharded_vector(name="v")
        qs.run(until_event=vec.append(0, 1 * MiB))
        used_mid = sum(m.memory.used for m in qs.machines)
        assert used_mid > 0
        cache.destroy()
        vec.destroy()
        qs.run(until=qs.sim.now + 0.05)
        leftover = sum(m.memory.used for m in qs.machines)
        assert leftover < used_mid


class TestMigrationStorm:
    def test_storm_preserves_everything(self):
        """50 proclets, hundreds of forced migrations, constant reads:
        no lost data, no stuck gates, coherent ledger."""
        qs = make_qs(machines=[
            MachineSpec(name=f"m{i}", cores=8, dram_bytes=4 * GiB)
            for i in range(3)
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        rng = qs.sim.random.stream("storm")
        refs = []
        for i in range(50):
            ref = qs.spawn_memory(machine=qs.machines[i % 3])
            qs.run(until_event=ref.call("mp_put", 0, 1 * MiB, i))
            refs.append(ref)

        migrations = 0
        for round_ in range(6):
            movers = rng.sample(refs, 20)
            events = []
            for ref in movers:
                dst = qs.machines[rng.randrange(3)]
                if dst is not ref.machine:
                    events.append(qs.runtime.migrate(ref.proclet, dst))
            for ev in events:
                try:
                    qs.run(until_event=ev)
                    migrations += 1
                except MigrationFailed:
                    pass
            # Interleave reads mid-storm.
            probe = refs[rng.randrange(50)]
            idx = refs.index(probe)
            assert qs.run(until_event=probe.call("mp_get", 0)) == idx

        assert migrations > 50
        for i, ref in enumerate(refs):
            assert ref.proclet.status is ProcletStatus.RUNNING
            assert qs.run(until_event=ref.call("mp_get", 0)) == i
        reserved = sum(m.memory.used for m in qs.machines)
        footprints = sum(p.footprint
                         for p in qs.runtime._proclets.values())
        assert reserved == pytest.approx(footprints)
