"""Properties of the seeded arrival traces feeding the serving scenario.

The exact-thinning sampler is only exact while the envelope dominates
the instantaneous rate everywhere; burst windows must stay sorted and
disjoint for the moving-cursor probe; and the whole realization must be
a pure function of ``(spec, stream, horizon)`` — grid determinism rests
on it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ArrivalTrace, TraceSpec
from repro.sim import RandomStreams


def _trace(spec, horizon=2.0, seed=0, stream="trace"):
    return ArrivalTrace(spec, RandomStreams(seed).stream(stream), horizon)


_specs = st.builds(
    TraceSpec,
    base_rate=st.floats(10.0, 2000.0),
    period=st.floats(0.2, 2.0),
    amplitude=st.floats(0.0, 0.95),
    phase=st.floats(0.0, 1.0),
    burst_factor=st.floats(1.0, 4.0),
    bursts_per_period=st.floats(0.0, 4.0),
    burst_duration=st.floats(0.01, 0.2),
)


# Burst-heavy specs: up to 20 windows per period, so windows coalesce
# and the burst cursor crosses many of them; plus the flat and the
# burst-free edges.
_bursty_specs = st.builds(
    TraceSpec,
    base_rate=st.floats(10.0, 2000.0),
    period=st.floats(0.2, 2.0),
    amplitude=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    phase=st.floats(0.0, 1.0),
    burst_factor=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
    bursts_per_period=st.floats(0.0, 20.0),
    burst_duration=st.floats(0.001, 0.2),
)


def _reference_arrivals(trace, rng):
    """The plain thinning loop: ``expovariate`` gaps, ``rate_at``
    acceptance.  ``ArrivalTrace.arrivals`` inlines both."""
    peak = trace.spec.peak_rate
    t = 0.0
    out = []
    while True:
        t += rng.expovariate(peak)
        if t >= trace.horizon:
            return out
        if rng.random() * peak < trace.rate_at(t):
            out.append(t)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_rate": 0.0},
        {"base_rate": 10.0, "period": 0.0},
        {"base_rate": 10.0, "amplitude": 1.0},
        {"base_rate": 10.0, "amplitude": -0.1},
        {"base_rate": 10.0, "burst_factor": 0.5},
        {"base_rate": 10.0, "bursts_per_period": -1.0},
        {"base_rate": 10.0, "burst_duration": 0.0},
    ])
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TraceSpec(**kwargs)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            _trace(TraceSpec(base_rate=10.0), horizon=0.0)


class TestRateCurve:
    @given(_specs, st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_diurnal_stays_inside_its_band(self, spec, t):
        lo, hi = 1.0 - spec.amplitude, 1.0 + spec.amplitude
        assert lo - 1e-9 <= spec.diurnal(t) <= hi + 1e-9

    @given(_specs, st.integers(0, 2 ** 16), st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_envelope_dominates_rate_everywhere(self, spec, seed, t):
        """Thinning is exact iff ``rate_at(t) <= peak_rate`` always."""
        trace = _trace(spec, seed=seed)
        assert trace.rate_at(t) <= spec.peak_rate * (1 + 1e-12)
        assert trace.rate_at(t) >= 0.0

    @given(_specs, st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_rate_is_diurnal_times_burst(self, spec, seed):
        trace = _trace(spec, seed=seed)
        for t in (0.0, 0.3, 0.9, 1.7):
            want = spec.base_rate * spec.diurnal(t)
            if trace.in_burst(t):
                want *= spec.burst_factor
            assert trace.rate_at(t) == pytest.approx(want)

    def test_mean_rate_includes_burst_duty_cycle(self):
        flat = TraceSpec(base_rate=100.0)
        assert flat.mean_rate == pytest.approx(100.0)
        bursty = TraceSpec(base_rate=100.0, burst_factor=3.0,
                           bursts_per_period=2.0, burst_duration=0.05)
        # duty = 2 * 0.05 / 1.0 = 0.1; mean = 100 * (1 + 0.1 * 2) = 120.
        assert bursty.mean_rate == pytest.approx(120.0)


class TestBurstWindows:
    @given(_specs, st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_windows_sorted_disjoint_and_start_inside_horizon(
            self, spec, seed):
        trace = _trace(spec, seed=seed)
        for i, (start, end) in enumerate(trace.bursts):
            assert 0.0 <= start < trace.horizon
            assert end >= start + spec.burst_duration - 1e-12
            if i > 0:
                assert start >= trace.bursts[i - 1][1]

    @given(_specs, st.integers(0, 2 ** 16), st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_in_burst_agrees_with_windows(self, spec, seed, t):
        trace = _trace(spec, seed=seed)
        want = any(start <= t < end for start, end in trace.bursts)
        assert trace.in_burst(t) == want

    def test_no_bursts_without_burst_config(self):
        assert _trace(TraceSpec(base_rate=50.0)).bursts == []
        assert _trace(TraceSpec(base_rate=50.0, burst_factor=2.0)).bursts \
            == []  # factor without windows per period


class TestArrivals:
    @given(_specs, st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_and_inside_horizon(self, spec, seed):
        times = list(_trace(spec, horizon=1.0, seed=seed).arrivals())
        assert all(0.0 < t < 1.0 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))

    @given(_specs, st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_is_bit_identical(self, spec, seed):
        a = list(_trace(spec, seed=seed).arrivals())
        b = list(_trace(spec, seed=seed).arrivals())
        assert a == b

    @given(st.one_of(_specs, _bursty_specs), st.integers(0, 2 ** 16),
           st.floats(0.01, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_sampler_is_the_reference_thinning(self, spec, seed, horizon):
        """Same times, compared exactly, and the same number of draws."""
        trace = _trace(spec, horizon=horizon, seed=seed)
        ref_rng = RandomStreams(seed).stream("trace")
        ref_rng.setstate(trace.rng.getstate())  # past the burst draws
        want = _reference_arrivals(trace, ref_rng)
        assert list(trace.arrivals()) == want
        assert trace.rng.getstate() == ref_rng.getstate()

    def test_sampler_crosses_touching_windows(self):
        spec = TraceSpec(base_rate=400.0, amplitude=0.5, burst_factor=3.0,
                         bursts_per_period=1.0)
        trace = _trace(spec, horizon=2.0, seed=5)
        # Back-to-back windows, then a gap, then a late one.
        trace.bursts = [(0.1, 0.2), (0.2, 0.35), (0.35, 0.4), (0.9, 1.3)]
        ref_rng = RandomStreams(5).stream("trace")
        ref_rng.setstate(trace.rng.getstate())
        want = _reference_arrivals(trace, ref_rng)
        assert want and list(trace.arrivals()) == want
        assert trace.rng.getstate() == ref_rng.getstate()

    def test_different_streams_differ(self):
        spec = TraceSpec(base_rate=500.0)
        a = list(_trace(spec, seed=0, stream="a").arrivals())
        b = list(_trace(spec, seed=0, stream="b").arrivals())
        assert a != b

    def test_realized_count_tracks_the_mean_rate(self):
        # 500 req/s over 4 s: Poisson(2000), +/- 5 sigma ~= 225.
        spec = TraceSpec(base_rate=500.0, amplitude=0.8)
        n = len(list(_trace(spec, horizon=4.0, seed=3).arrivals()))
        assert 1775 < n < 2225

    def test_burst_windows_are_denser(self):
        spec = TraceSpec(base_rate=800.0, amplitude=0.0, burst_factor=3.0,
                         bursts_per_period=2.0, burst_duration=0.1)
        trace = _trace(spec, horizon=4.0, seed=1)
        assert trace.bursts, "seeded config must draw at least one burst"
        times = list(trace.arrivals())
        burst_time = sum(end - start for start, end in trace.bursts)
        in_burst = sum(1 for t in times if trace.in_burst(t))
        outside = len(times) - in_burst
        rate_in = in_burst / burst_time
        rate_out = outside / (trace.horizon - burst_time)
        assert rate_in > 2.0 * rate_out
