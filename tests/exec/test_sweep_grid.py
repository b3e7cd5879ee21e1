"""The cache and fan-out contracts on a real experiment grid.

``test_cache_robustness.py`` checks the cache on toy specs; here the
``sweep_burst`` grid runs end to end, so the kernel counters of real
simulations are part of what serial and parallel runs must agree on.
"""

from repro.exec import ResultCache, run_specs
from repro.experiments.sweep_burst import build_specs
from repro.units import MS

_BURSTS = [0.5 * MS, 1 * MS, 2 * MS, 5 * MS]


def test_warm_cache_skips_unchanged_grid(tmp_path):
    specs = build_specs(bursts=_BURSTS, periods_per_run=6)
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_specs(specs, jobs=1, cache=cache)
    assert cold.misses == len(specs)

    warm = run_specs(specs, jobs=1, cache=cache)
    assert warm.hit_rate >= 0.90
    assert warm.misses == 0
    assert warm.digest() == cold.digest()
    assert warm.wall_s < cold.wall_s


def test_parallel_sweep_digest_matches_serial():
    specs = build_specs(bursts=_BURSTS, periods_per_run=6)
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert parallel.digest() == serial.digest()
    assert parallel.kernel_totals() == serial.kernel_totals()
