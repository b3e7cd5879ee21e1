"""Central registry of metrics for one simulation run."""

from __future__ import annotations

from typing import Dict, List

from .timeseries import Counter, Gauge, TimeSeries


class MetricsRecorder:
    """Owns every named metric produced during a run.

    Components look up (and lazily create) metrics by hierarchical name,
    e.g. ``machine.0.cpu.util`` or ``proclet.migrations.latency``.
    """

    def __init__(self, sim):
        self.sim = sim
        self._series: Dict[str, TimeSeries] = {}
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._samples: Dict[str, List[float]] = {}

    # -- factories ----------------------------------------------------------
    def series(self, name: str) -> TimeSeries:
        ts = self._series.get(name)
        if ts is None:
            ts = self._series[name] = TimeSeries(name)
        return ts

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str, initial: float = 0.0) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, initial, t0=self.sim.now)
        return g

    def samples(self, name: str) -> List[float]:
        """An unordered bag of scalar observations (e.g. latencies)."""
        s = self._samples.get(name)
        if s is None:
            s = self._samples[name] = []
        return s

    # -- convenience recording ------------------------------------------------
    def record(self, name: str, value: float) -> None:
        self.series(name).record(self.sim.now, value)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).add(self.sim.now, amount)

    def observe(self, name: str, value: float) -> None:
        self.samples(name).append(value)

    # -- inspection -------------------------------------------------------------
    def names(self) -> List[str]:
        out = set(self._series) | set(self._counters)
        out |= set(self._gauges) | set(self._samples)
        return sorted(out)

    def has(self, name: str) -> bool:
        return (name in self._series or name in self._counters
                or name in self._gauges or name in self._samples)

    # -- component stats ----------------------------------------------------
    def record_stats(self, source, prefix: str) -> Dict:
        """Snapshot ``source.stats()`` into one ``{prefix}.{key}`` gauge
        per key at the current virtual time; returns the stats dict.

        Every component that reports counters exposes ``stats() -> dict``
        of numbers: the simulator's event heap, an exec report, the
        recovery manager, the shard autoscaler and a span tracer.
        """
        stats = source.stats()
        now = self.sim.now
        for key, value in stats.items():
            self.gauge(f"{prefix}.{key}").set(now, value)
        return stats
