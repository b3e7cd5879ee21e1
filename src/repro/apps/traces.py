"""Seeded arrival traces: diurnal load curves with bursts.

The serving scenario (:mod:`repro.apps.serving`) stands in for millions
of users with *traces*, not with per-user state: each tenant's request
stream is a nonhomogeneous Poisson process whose rate follows a scaled
"day" — a sinusoidal diurnal curve — with seeded burst windows layered
on top (a release, a news spike).  DCSim-style datacenter simulators
drive their schedulers the same way; what matters for the scheduler is
that *when one tenant peaks, another is idle*, which is exactly the
fungibility opportunity the paper's §1 pitch claims static VM carve-ups
waste.

Determinism: bursts are pre-drawn from one named stream at construction
and arrivals come from thinning against a fixed envelope rate, so the
same ``(spec, rng stream)`` pair always yields byte-identical arrival
sequences — grid cells stay digest-stable under ``repro.exec`` fan-out.

:meth:`TraceSpec.diurnal`, :meth:`ArrivalTrace.rate_at` and
:meth:`ArrivalTrace.in_burst` are the reference definitions of the
curve.  The thinning loop in :meth:`ArrivalTrace.arrivals` inlines
them, and ``random.Random.expovariate``, operation for operation (it
runs once per candidate), and a test pins it to the plain
``expovariate``/``rate_at`` loop: same times, same number of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, List, Tuple


@dataclass(frozen=True)
class TraceSpec:
    """Shape of one tenant's arrival-rate curve.

    ``rate(t) = base_rate * diurnal(t) * burst(t)`` where ``diurnal``
    swings sinusoidally in ``[1 - amplitude, 1 + amplitude]`` over
    *period* (phase-shifted per tenant so peaks stagger) and ``burst``
    is ``burst_factor`` inside seeded burst windows, 1 elsewhere.
    """

    #: Mean request rate (req/s of virtual time) around which the
    #: diurnal curve swings.
    base_rate: float
    #: Length of the scaled "day" in virtual seconds.
    period: float = 1.0
    #: Diurnal swing in [0, 1): 0 = flat, 0.9 = peaks at 1.9x the mean.
    amplitude: float = 0.6
    #: Peak position as a fraction of *period* (staggering knob).
    phase: float = 0.0
    #: Rate multiplier inside a burst window (1 = bursts disabled).
    burst_factor: float = 1.0
    #: Expected number of burst windows per period.
    bursts_per_period: float = 0.0
    #: Length of each burst window in virtual seconds.
    burst_duration: float = 0.05

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if self.bursts_per_period < 0:
            raise ValueError("bursts_per_period must be >= 0")
        if self.burst_duration <= 0:
            raise ValueError("burst_duration must be positive")

    # -- analytic helpers ---------------------------------------------------
    def diurnal(self, t: float) -> float:
        """The diurnal multiplier at virtual time *t* (burst-free)."""
        x = 2.0 * math.pi * (t / self.period - self.phase)
        return 1.0 + self.amplitude * math.sin(x)

    @property
    def peak_rate(self) -> float:
        """Envelope rate: diurnal peak times a burst (thinning bound)."""
        return self.base_rate * (1.0 + self.amplitude) * self.burst_factor

    @property
    def mean_rate(self) -> float:
        """Long-run mean rate (sin integrates to zero; bursts add their
        expected duty cycle)."""
        duty = min(1.0, (self.bursts_per_period * self.burst_duration)
                   / self.period)
        return self.base_rate * (1.0 + duty * (self.burst_factor - 1.0))


@dataclass
class ArrivalTrace:
    """A concrete, seeded realization of a :class:`TraceSpec`.

    Burst windows for ``[0, horizon)`` are drawn up front from *rng*
    (a named :class:`random.Random` stream), then :meth:`arrivals`
    thins a homogeneous Poisson stream at :attr:`TraceSpec.peak_rate`
    down to the instantaneous rate — the standard exact sampler for
    nonhomogeneous Poisson processes.
    """

    spec: TraceSpec
    rng: object
    horizon: float
    #: Burst windows as sorted, non-overlapping ``(start, end)`` pairs.
    bursts: List[Tuple[float, float]] = field(init=False)

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        self.bursts = self._draw_bursts()

    def _draw_bursts(self) -> List[Tuple[float, float]]:
        spec = self.spec
        if spec.bursts_per_period <= 0 or spec.burst_factor == 1.0:
            return []
        windows: List[Tuple[float, float]] = []
        burst_rate = spec.bursts_per_period / spec.period
        if burst_rate == 0.0:
            return []  # the rate underflowed: no burst is ever drawn
        t = self.rng.expovariate(burst_rate)
        while t < self.horizon:
            end = t + spec.burst_duration
            if windows and t < windows[-1][1]:
                # Overlapping draws coalesce: extend the open window.
                windows[-1] = (windows[-1][0], max(windows[-1][1], end))
            else:
                windows.append((t, end))
            t += self.rng.expovariate(burst_rate)
        return windows

    def in_burst(self, t: float) -> bool:
        # A linear scan from the first window: windows are few (a
        # handful per run) and the scan stops at the first window that
        # starts after *t*, so bisect would be overkill.
        for start, end in self.bursts:
            if t < start:
                return False
            if t < end:
                return True
        return False

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time *t*."""
        rate = self.spec.base_rate * self.spec.diurnal(t)
        if self.in_burst(t):
            rate *= self.spec.burst_factor
        return rate

    def arrivals(self) -> Generator[float, None, None]:
        """Yield arrival times in ``(0, horizon)``, strictly increasing.

        Exact thinning: candidates arrive at the constant envelope
        ``peak_rate``; each is kept with probability ``rate_at(t) /
        peak_rate``.  The envelope dominates the true rate everywhere,
        so the kept stream is distributed exactly as the target
        nonhomogeneous process.

        The loop runs once per candidate (about 2.8 per kept arrival in
        the serving cells), so it inlines its helpers with the same
        float operations in the same order: the gap is CPython's
        ``expovariate`` (``-log(1.0 - random()) / peak``), the rate is
        :meth:`rate_at`'s ``base * diurnal(t)`` with ``2.0 * math.pi``
        hoisted, and the burst test is :meth:`in_burst` as a forward
        cursor over the sorted windows (candidate times only grow).
        ``tests/apps/test_traces.py`` pins the output and the number of
        draws to the ``expovariate``/``rate_at`` loop it replaces.
        """
        spec = self.spec
        peak = spec.peak_rate
        base = spec.base_rate
        amplitude = spec.amplitude
        period = spec.period
        phase = spec.phase
        factor = spec.burst_factor
        two_pi = 2.0 * math.pi
        horizon = self.horizon
        bursts = self.bursts
        n_bursts = len(bursts)
        random = self.rng.random
        log = math.log
        sin = math.sin
        i = 0       # first window that has not ended by t
        t = 0.0
        while True:
            t += -log(1.0 - random()) / peak
            if t >= horizon:
                return
            rate = base * (1.0 + amplitude
                           * sin(two_pi * (t / period - phase)))
            while i < n_bursts and bursts[i][1] <= t:
                i += 1
            if i < n_bursts and bursts[i][0] <= t:
                rate *= factor
            if random() * peak < rate:
                yield t
