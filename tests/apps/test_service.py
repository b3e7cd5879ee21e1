"""Tests for the latency-critical service and priority isolation."""

import pytest

from repro.apps import CloneService, FillerApp, LatencyService
from repro.hedge import Deterministic, Exponential
from repro.units import MS, US

from ..conftest import make_qs


def quiet_qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class TestServiceBasics:
    def test_requests_complete_with_low_latency_when_idle(self):
        qs = quiet_qs()
        svc = LatencyService(qs.machines[0], arrival_rate=1000.0,
                             service_cpu=500 * US)
        svc.start()
        qs.run(until=0.5)
        assert svc.requests_done > 300
        s = svc.latency_summary()
        # Idle machine: latency ~= service time.
        assert s.p50 < 2 * 500 * US

    def test_offered_load(self):
        qs = quiet_qs()
        svc = LatencyService(qs.machines[0], arrival_rate=2000.0,
                             service_cpu=1 * MS)
        assert svc.offered_load == pytest.approx(2.0)

    def test_validation(self):
        qs = quiet_qs()
        with pytest.raises(ValueError):
            LatencyService(qs.machines[0], arrival_rate=0.0)
        with pytest.raises(ValueError):
            LatencyService(qs.machines[0], arrival_rate=1.0,
                           service_cpu=0.0)

    def test_double_start_rejected(self):
        qs = quiet_qs()
        svc = LatencyService(qs.machines[0], arrival_rate=100.0)
        svc.start()
        with pytest.raises(RuntimeError):
            svc.start()

    def test_stop_halts_arrivals(self):
        qs = quiet_qs()
        svc = LatencyService(qs.machines[0], arrival_rate=1000.0)
        svc.start()
        qs.run(until=0.1)
        svc.stop()
        done = svc.requests_done
        qs.run(until=0.3)
        assert svc.requests_done <= done + 2  # at most in-flight ones


class TestPriorityIsolation:
    """The quantitative version of Fig. 1's premise: harvesting idle
    cycles must not hurt the HIGH-priority tenant's tail latency."""

    def _run_service(self, with_filler: bool):
        qs = quiet_qs()
        m0 = qs.machines[0]
        svc = LatencyService(m0, arrival_rate=4000.0,
                             service_cpu=500 * US,
                             rng_stream="svc")  # ~2 of 8 cores
        svc.start()
        filler = None
        if with_filler:
            filler = FillerApp(qs, proclets=8, work_unit=100 * US,
                               machine=m0)
        qs.run(until=0.5)
        return svc.latency_summary(), filler, qs

    def test_filler_does_not_inflate_service_tail(self):
        alone, _f, _qs = self._run_service(with_filler=False)
        shared, filler, qs = self._run_service(with_filler=True)
        # Same arrival seed, same service: the tail must be unaffected
        # by a filler saturating every leftover cycle.
        assert shared.p99 <= alone.p99 * 1.25 + 50e-6
        assert shared.p50 <= alone.p50 * 1.25 + 50e-6
        # ... while the filler actually harvested the leftovers.
        goodput = filler.goodput_cores(0.1, 0.5)
        assert goodput > 4.5  # ~6 cores are idle on average

    def test_filler_yields_instantly_to_bursts(self):
        """Mid-burst, the filler gets nothing; after, everything."""
        from repro.cluster import Priority

        qs = quiet_qs()
        m0 = qs.machines[0]
        filler = FillerApp(qs, proclets=8, work_unit=100 * US,
                           machine=m0)
        qs.run(until=0.05)
        hold = m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        burst_start = qs.sim.now
        qs.run(until=burst_start + 0.05)
        starved = filler.goodput_cores(burst_start + 1 * MS,
                                       qs.sim.now)
        m0.cpu.release(hold)
        resume_start = qs.sim.now
        qs.run(until=resume_start + 0.05)
        resumed = filler.goodput_cores(resume_start + 1 * MS, qs.sim.now)
        assert starved < 0.2
        assert resumed > 7.0


class TestCloneService:
    """The multi-server PS fleet with synchronized request cloning."""

    def test_validation(self):
        qs = quiet_qs()
        dist = Exponential(mean=1 * MS)
        with pytest.raises(ValueError):
            CloneService([], 100.0, dist)
        with pytest.raises(ValueError):
            CloneService(qs.machines, 0.0, dist)
        with pytest.raises(ValueError):
            # 3 does not divide 2 machines.
            CloneService(qs.machines, 100.0, dist, clone_factor=3)
        with pytest.raises(ValueError):
            CloneService(qs.machines, 100.0, dist, hedge_after=0.0)
        with pytest.raises(ValueError):
            CloneService(qs.machines, 100.0, dist, clone_budget=-1)

    def test_double_start_rejected(self):
        qs = quiet_qs()
        svc = CloneService(qs.machines, 100.0, Exponential(mean=1 * MS))
        svc.start()
        with pytest.raises(RuntimeError):
            svc.start()

    def test_cloned_requests_complete_and_cancel_losers(self):
        qs = quiet_qs()
        svc = CloneService(qs.machines, 200.0, Exponential(mean=1 * MS),
                           clone_factor=2)
        svc.start()
        qs.run(until=0.5)
        assert svc.requests_done > 50
        assert svc.failed_requests == 0
        # Every completed request launched 2 clones and cancelled 1
        # (minus any exact ties, which complete instead).
        assert svc.clones_launched >= 2 * svc.requests_done
        assert svc.clones_cancelled >= 0.9 * svc.requests_done
        assert len(svc.samples) == svc.requests_done
        arrivals = [arrived for arrived, _lat in svc.samples]
        assert all(t >= 0 for t in arrivals)

    def test_offered_load_matches_oracle_utilization(self):
        from repro.hedge import clone_utilization

        qs = quiet_qs()
        dist = Exponential(mean=1 * MS)
        svc = CloneService(qs.machines, 500.0, dist, clone_factor=2)
        assert svc.offered_load == pytest.approx(
            clone_utilization(500.0, 2, 2, dist))

    def test_hedging_fires_only_for_slow_requests(self):
        qs = quiet_qs()
        # Deterministic 5 ms service, 1 ms hedge: every request hedges.
        svc = CloneService(qs.machines, 50.0, Deterministic(value=5 * MS),
                           clone_factor=2, hedge_after=1 * MS)
        svc.start()
        qs.run(until=0.3)
        assert svc.requests_done > 5
        assert svc.hedges_fired >= 0.9 * svc.requests_done
        # A hedge timer that loses is cancelled through the kernel
        # machinery: once arrivals stop and the sim drains, every
        # tombstoned entry was reclaimed.
        svc.stop()
        qs.sim.run()
        assert qs.sim.stats()["dead_entries"] == 0

    def test_zero_budget_degrades_to_uncloned(self):
        qs = quiet_qs()
        svc = CloneService(qs.machines, 200.0, Exponential(mean=1 * MS),
                           clone_factor=2, clone_budget=0)
        svc.start()
        qs.run(until=0.3)
        assert svc.requests_done > 20
        # No extras ever launched: exactly one clone per request.
        assert svc.clones_launched == \
            svc.requests_done + svc.failed_requests
        assert svc.budget_denied >= svc.requests_done
        assert svc.clones_cancelled == 0

    def test_crashed_server_does_not_fail_cloned_requests(self):
        qs = quiet_qs()
        m0, _m1 = qs.machines
        svc = CloneService(qs.machines, 100.0, Exponential(mean=1 * MS),
                           clone_factor=2)
        svc.start()
        qs.run(until=0.1)
        qs.runtime.fail_machine(m0)
        qs.run(until=0.2)
        svc.stop()
        qs.run(until=0.3)
        # The surviving sibling serves every request alone.
        assert svc.requests_done > 10
        assert svc.failed_requests == 0

    def test_latency_summary_trims_warmup(self):
        qs = quiet_qs()
        svc = CloneService(qs.machines, 500.0, Exponential(mean=1 * MS))
        svc.start()
        qs.run(until=0.4)
        full = svc.latency_summary()
        trimmed = svc.latency_summary(since=0.2)
        assert trimmed.count < full.count
        assert trimmed.count > 0


class TestUnifiedLatencySummary:
    """Both services expose the same `since` (virtual-time) trimming
    contract; LatencyService keeps the legacy `since_index` form."""

    def _run(self):
        qs = quiet_qs()
        svc = LatencyService(qs.machines[0], arrival_rate=2000.0,
                             service_cpu=500 * US)
        svc.start()
        qs.run(until=0.4)
        return svc

    def test_since_trims_by_arrival_time(self):
        svc = self._run()
        full = svc.latency_summary()
        trimmed = svc.latency_summary(since=0.2)
        assert 0 < trimmed.count < full.count
        # Exactly the requests that arrived in the kept window.
        want = [lat for arr, lat in svc.samples if arr >= 0.2]
        assert trimmed.count == len(want)

    def test_since_index_still_works(self):
        svc = self._run()
        full = svc.latency_summary()
        legacy = svc.latency_summary(since_index=10)
        assert legacy.count == full.count - 10

    def test_since_zero_equals_untrimmed(self):
        svc = self._run()
        assert svc.latency_summary(since=0.0) == svc.latency_summary()

    def test_since_wins_over_since_index(self):
        svc = self._run()
        both = svc.latency_summary(since=0.2, since_index=10**6)
        assert both == svc.latency_summary(since=0.2)

    def test_matches_clone_service_shape(self):
        """The two services' samples lists are interchangeable."""
        svc = self._run()
        assert all(isinstance(arr, float) and isinstance(lat, float)
                   for arr, lat in svc.samples)
        assert svc.latencies == [lat for _arr, lat in svc.samples]
