"""Unit and property tests for the multi-tenant serving scenario.

The golden figure-shape numbers live in
:mod:`tests.experiments.test_serving_golden`; here the pieces are
checked in isolation: the admission controller's PS-derived cap, the
weighted water-filling allocator, static-mode apportionment, the
replica-fleet bookkeeping, the request path, and the scenario lifecycle
in both modes.
"""

import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    AdmissionController,
    ServingReplica,
    ServingScenario,
    TenantSpec,
    TraceSpec,
    default_tenants,
    weighted_water_fill,
)
from repro.runtime import ProcletStatus
from repro.sim.process import Process
from repro.units import MS


def _tenant(name="t0", rate=200.0, service=2.5 * MS, deadline=50 * MS,
            weight=1.0, **trace_kwargs):
    return TenantSpec(name=name,
                      trace=TraceSpec(base_rate=rate, **trace_kwargs),
                      service_mean=service, slo_deadline=deadline,
                      weight=weight)


def _scenario(mode, n=4, machines=6, duration=0.3, warmup=0.1, **kwargs):
    return ServingScenario(default_tenants(n), machines=machines,
                           mode=mode, seed=0, duration=duration,
                           warmup=warmup, **kwargs)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _tenant(service=0.0)
        with pytest.raises(ValueError):
            _tenant(service=10 * MS, deadline=10 * MS)
        with pytest.raises(ValueError):
            _tenant(weight=0.0)

    def test_mean_demand_cores(self):
        t = _tenant(rate=400.0, service=2.5 * MS)
        assert t.mean_demand_cores == pytest.approx(1.0)


class TestAdmissionController:
    def test_slack_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0.0)
        with pytest.raises(ValueError):
            AdmissionController(2.5)

    @given(st.floats(0.05, 2.0), st.floats(0.0, 64.0),
           st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_admit_iff_below_cap_and_cap_at_least_one(
            self, slack, capacity, inflight):
        spec = _tenant()
        ac = AdmissionController(slack)
        cap = ac.max_inflight(spec, capacity)
        assert cap >= 1
        assert ac.admit(spec, inflight, capacity) == (inflight < cap)

    @given(st.floats(0.05, 2.0), st.floats(0.0, 32.0), st.floats(0.0, 32.0))
    @settings(max_examples=100, deadline=None)
    def test_cap_monotone_in_capacity(self, slack, cap_a, cap_b):
        spec = _tenant()
        ac = AdmissionController(slack)
        lo, hi = sorted((cap_a, cap_b))
        assert ac.max_inflight(spec, lo) <= ac.max_inflight(spec, hi)

    def test_cap_scales_with_deadline_headroom(self):
        ac = AdmissionController(0.5)
        tight = _tenant(service=10 * MS, deadline=20 * MS)
        loose = _tenant(service=10 * MS, deadline=200 * MS)
        assert ac.max_inflight(loose, 4.0) == \
            10 * ac.max_inflight(tight, 4.0)


_demand_maps = st.dictionaries(
    st.sampled_from([f"t{i}" for i in range(6)]),
    st.floats(0.0, 50.0), min_size=1, max_size=6)


class TestWeightedWaterFill:
    @given(_demand_maps, st.floats(0.0, 100.0), st.floats(0.5, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_demand_bounded(self, demands, capacity, w):
        weights = {n: w if i % 2 else 1.0
                   for i, n in enumerate(sorted(demands))}
        alloc = weighted_water_fill(demands, weights, capacity)
        assert set(alloc) == set(demands)
        assert all(a >= 0.0 for a in alloc.values())
        for n in demands:
            assert alloc[n] <= demands[n] + 1e-9
        assert sum(alloc.values()) <= capacity + 1e-6

    @given(_demand_maps, st.floats(0.5, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_ample_capacity_satisfies_everyone(self, demands, w):
        weights = {n: w for n in demands}
        capacity = sum(demands.values()) + 1.0
        alloc = weighted_water_fill(demands, weights, capacity)
        for n in demands:
            assert alloc[n] == pytest.approx(demands[n])

    @given(_demand_maps, st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_work_conserving_under_contention(self, demands, capacity):
        """Either every demand is met or the capacity is fully used."""
        weights = {n: 1.0 for n in demands}
        alloc = weighted_water_fill(demands, weights, capacity)
        total_demand = sum(demands.values())
        assert sum(alloc.values()) == \
            pytest.approx(min(total_demand, capacity), abs=1e-6)

    def test_contended_split_follows_weights(self):
        demands = {"a": 100.0, "b": 100.0, "c": 1.0}
        weights = {"a": 2.0, "b": 1.0, "c": 1.0}
        alloc = weighted_water_fill(demands, weights, 31.0)
        # c is sated first (1 core); a and b split 30 in ratio 2:1.
        assert alloc["c"] == pytest.approx(1.0)
        assert alloc["a"] == pytest.approx(20.0)
        assert alloc["b"] == pytest.approx(10.0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            weighted_water_fill({"a": 1.0}, {"a": 1.0}, -1.0)


class TestScenarioConstruction:
    def test_mode_and_name_validation(self):
        with pytest.raises(ValueError):
            _scenario("elastic")
        with pytest.raises(ValueError):
            ServingScenario([_tenant("dup"), _tenant("dup")], machines=4)
        with pytest.raises(ValueError):
            ServingScenario([_tenant()], duration=1.0, warmup=1.0)

    def test_static_partition_covers_cluster_by_weight(self):
        sc = _scenario("static", n=4, machines=10)
        counts = {name: len(ms) for name, ms in sc.partitions.items()}
        assert sum(counts.values()) == 10
        assert all(c >= 1 for c in counts.values())
        # Even tenants over-reserve (weight 2): they own more machines.
        assert counts["t0"] > counts["t1"]
        owned = [m for ms in sc.partitions.values() for m in ms]
        assert len(set(owned)) == len(owned)  # disjoint

    def test_static_needs_a_machine_per_tenant(self):
        with pytest.raises(ValueError):
            _scenario("static", n=8, machines=4)

    def test_static_pins_one_replica_per_core(self):
        sc = _scenario("static", n=4, machines=8)
        for t in sc.tenants:
            owned_cores = sum(int(m.cpu.cores)
                              for m in sc.partitions[t.spec.name])
            assert len(t.live_replicas()) == owned_cores
        assert sc.scheduler is None

    def test_fungible_bootstraps_near_mean_demand(self):
        sc = _scenario("fungible", n=4, machines=8)
        assert sc.scheduler is not None
        for t in sc.tenants:
            assert len(t.live_replicas()) == \
                max(1, math.ceil(t.spec.mean_demand_cores))


class TestScenarioRuns:
    @pytest.fixture(scope="class", params=["fungible", "static"])
    def scenario(self, request):
        sc = _scenario(request.param, n=4, machines=8,
                       duration=0.4, warmup=0.1)
        sc.run()
        return sc

    def test_traffic_flows_and_slo_is_measured(self, scenario):
        r = scenario.results()
        assert r["offered"] > 100
        assert 0.0 < r["goodput"] <= 1.0
        assert r["slo_ok"] <= r["offered"]
        assert r["p999"] >= r["p99"] > 0.0
        assert 0.0 < r["utilization"] <= 1.0

    def test_no_tenant_starves_in_steady_state(self, scenario):
        assert scenario.check_no_starvation() == []

    def test_per_tenant_counters_are_consistent(self, scenario):
        for t in scenario.tenants:
            assert t.offered == t.admitted + t.rejected
            assert t.completed + t.failed + t.inflight == t.admitted
            assert t.slo_ok <= t.completed

    def test_static_mode_never_scales_or_migrates(self):
        sc = _scenario("static", n=4, machines=8, duration=0.3)
        spawned_before = [t.spawned for t in sc.tenants]
        sc.run()
        r = sc.results()
        assert r["migrations"] == r["scale_ups"] == r["scale_downs"] == 0
        assert [t.spawned for t in sc.tenants] == spawned_before

    def test_fungible_scheduler_reacts_to_demand(self):
        sc = _scenario("fungible", n=4, machines=8, duration=0.4)
        sc.run()
        assert sc.scheduler.rounds > 10
        # Diurnal swings across tenants force at least some rescaling.
        assert sc.scheduler.scale_ups + sc.scheduler.scale_downs > 0

    def test_same_seed_same_results(self):
        a = _scenario("fungible", n=4, machines=8, duration=0.3)
        a.run()
        b = _scenario("fungible", n=4, machines=8, duration=0.3)
        b.run()
        assert a.results() == b.results()


class TestReplicaProclet:
    def test_replica_is_a_unit_compute_proclet(self):
        r = ServingReplica("t7")
        assert r.parallelism == 1
        assert r.tenant_name == "t7"


def _at(sc, when, fn):
    """Run *fn()* inside the simulation at virtual time *when*."""
    def proc():
        yield sc.qs.sim.timeout(when)
        fn()
    sc.qs.sim.process(proc(), name="test-hook")


def _busiest_machine(sc):
    hosts = [p.machine for t in sc.tenants for _r, p in t.live_replicas()]
    return max(sc.qs.machines, key=hosts.count)


class TestReplicaFleet:
    """The fleet is kept current from locator removals, never by a scan."""

    def test_crash_drops_replicas_at_once_and_keeps_order(self):
        sc = _scenario("fungible", n=4, machines=8)
        sc.qs.run(until=0.15)
        victim = _busiest_machine(sc)
        before = {t.spec.name: list(t.live_replicas()) for t in sc.tenants}
        assert any(p.machine is victim
                   for pairs in before.values() for _r, p in pairs)
        # No event runs between the crash and the assertions: neither an
        # arrival nor a scheduler round can have pruned anything.
        sc.qs.runtime.fail_machine(victim)
        for t in sc.tenants:
            survivors = [(r, p) for r, p in before[t.spec.name]
                         if p.machine is not victim]
            assert t.live_replicas() == survivors
            assert t.stats()["replicas"] == len(survivors)

    def test_external_destroy_drops_the_replica(self):
        sc = _scenario("fungible", n=4, machines=8)
        t = max(sc.tenants, key=lambda t: len(t.live_replicas()))
        before = list(t.live_replicas())
        assert len(before) >= 3
        ref, _p = before[1]
        sc.qs.runtime.destroy(ref)
        assert t.live_replicas() == before[:1] + before[2:]

    def test_shrink_retires_newest_first(self):
        sc = _scenario("fungible", n=4, machines=8)
        t = max(sc.tenants, key=lambda t: len(t.live_replicas()))
        before = list(t.live_replicas())
        assert len(before) >= 3
        sc.scheduler._shrink(t, t.live_replicas(), 2)
        assert t.live_replicas() == before[:-2]
        assert sc.scheduler.scale_downs == 2
        for _ref, p in before[-2:]:
            assert p.status is ProcletStatus.DEAD

    def test_counters_add_up_after_a_mid_run_crash(self):
        sc = _scenario("fungible", n=4, machines=8, duration=0.4)

        def crash():
            for m in sc.qs.machines[:2]:
                sc.qs.runtime.fail_machine(m)

        def audit():
            for t in sc.tenants:
                assert t.completed + t.failed + t.inflight == t.admitted
                assert t.inflight == len(t.active_items)

        _at(sc, 0.2, crash)
        _at(sc, 0.2 + MS, audit)
        sc.run()
        audit()
        # The crash really hit in-flight requests.
        assert sum(t.failed for t in sc.tenants) > 0


class TestRequestPath:
    def test_unexpected_request_failure_escapes_the_run(self):
        sc = _scenario("fungible", n=4, machines=8)

        def sabotage():
            t = max(sc.tenants, key=lambda t: len(t.active_items))
            item = min(t.active_items, key=lambda i: i.submitted_at)
            item.fail(RuntimeError("request blew up"))

        _at(sc, 0.2, sabotage)
        with pytest.raises(RuntimeError, match="request blew up"):
            sc.run()

    @pytest.mark.parametrize("mode", ["fungible", "static"])
    def test_no_process_per_request(self, mode, monkeypatch):
        counted = []
        init = Process.__init__

        def counting(self, *args, **kwargs):
            counted.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        runs = []
        for duration in (0.2, 0.4):
            del counted[:]
            sc = _scenario(mode, n=4, machines=8, duration=duration)
            sc.run()
            runs.append((len(counted), sum(t.admitted for t in sc.tenants)))
        (procs_short, admitted_short), (procs_long, admitted_long) = runs
        assert admitted_long - admitted_short > 500
        if mode == "static":
            # The warmup marker alone: arrivals are timeout callbacks.
            assert procs_long == procs_short == 1
        else:
            # Only scheduler migrations add processes, a few per round.
            assert procs_long - procs_short < \
                (admitted_long - admitted_short) / 20

    def test_completed_request_retains_under_forty_bytes(self):
        """A completed request leaves its latency sample behind and
        little else: two doubles in the tenant's log, not a tuple of two
        boxed floats (about 118 B).  The marginal bytes per completed
        request between two horizons stay flat."""
        sc = _scenario("fungible", n=4, machines=6, duration=1.0)
        tracemalloc.start()
        try:
            marks = []
            for horizon in (0.4, 1.0):
                sc.qs.run(until=horizon)
                gc.collect()
                marks.append((sum(t.completed for t in sc.tenants),
                              tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()
        (done1, mem1), (done2, mem2) = marks
        assert done2 - done1 > 2000
        assert (mem2 - mem1) / (done2 - done1) <= 40
