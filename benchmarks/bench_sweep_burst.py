"""EXT-SWEEP benchmark: fungibility gain vs burst period.

An extension beyond the paper's figures probing its headline claim
("resources transiently available for only a few milliseconds").
Shape assertions: near-2x gain at 10 ms bursts, monotone degradation as
the idle window shrinks toward the migration latency, and near-parity
when the window is only ~2x the migration time.
"""

from repro.exec import run_specs
from repro.experiments.sweep_burst import (build_specs, points_from_cells,
                                           report)
from repro.units import MS

from .conftest import record_report


def test_burst_period_sweep(benchmark):
    specs = build_specs(bursts=[0.5 * MS, 1 * MS, 2 * MS, 10 * MS],
                        periods_per_run=10)
    run = benchmark.pedantic(run_specs, args=(specs,), rounds=1,
                             iterations=1)
    points = points_from_cells(run.values())
    by_burst = {p.burst: p for p in points}
    # Long windows: the paper's ~2x.
    assert by_burst[10 * MS].gain > 1.8
    # Gains degrade monotonically as windows shrink.
    gains = [p.gain for p in sorted(points, key=lambda p: p.burst)]
    assert gains == sorted(gains)
    # At 0.5 ms windows (~2x the migration latency) the gain nearly
    # vanishes: the crossover where harvesting stops paying.
    assert by_burst[0.5 * MS].gain < 1.25
    record_report("EXT-SWEEP", report(points))
