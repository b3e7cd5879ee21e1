"""Golden shapes for the DESIGN.md ablations, at the configurations the
``python -m repro ablations`` report runs (each runner's defaults).

``tests/integration/test_experiments.py`` runs scaled-down variants of
the same runners; the claims here are the report's: who wins, and by
roughly what factor.  ABL-SIGNAL reuses the Fig. 3 fixture in
``test_golden_shapes.py``.
"""

from repro.experiments.ablations import (
    run_migration_granularity,
    run_prefetch_ablation,
    run_split_ablation,
    run_two_level_ablation,
)
from repro.units import KiB, MS, MiB


def test_prefetching_hides_remote_access():
    """ABL-PREFETCH: synchronous element reads are >1.3x slower (§4)."""
    result = run_prefetch_ablation()
    assert result.slowdown > 1.3, (
        f"sync element reads should hurt; got {result.slowdown:.2f}x")


def test_migration_latency_scales_with_heap_size():
    """ABL-GRAN: sub-millisecond for small proclets, ~1 ms at 10 MiB
    (Nu's number), monotone, and 1 GiB costs >50x 1 MiB (§3.3)."""
    points = run_migration_granularity()
    by_size = dict(points)
    assert by_size[64 * KiB] < 0.5 * MS
    assert by_size[10 * MiB] < 3 * MS
    latencies = [lat for _sz, lat in points]
    assert latencies == sorted(latencies)
    assert by_size[1024 * MiB] > 50 * by_size[1 * MiB]


def test_split_rule_bounds_migration_time():
    """ABL-SPLIT: with the max-shard-size rule shards stay near 16 MiB
    and migrate in a few ms; without it one shard holds everything and
    migrates >5x slower (§3.3)."""
    result = run_split_ablation()
    assert result.with_split_max_shard_bytes <= 20 * MiB
    assert result.with_split_migration_s < 3 * MS
    assert result.without_split_shard_bytes > 200 * MiB
    assert (result.without_split_migration_s
            > 5 * result.with_split_migration_s)


def test_only_the_local_path_catches_10ms_bursts():
    """ABL-TWOLEVEL: local reactions harvest both machines; the 50 ms
    global cadence cannot track a 10 ms square wave (§5)."""
    result = run_two_level_ablation()
    assert result.local_goodput_cores > 6.0
    assert result.global_only_goodput_cores < 6.0
    assert result.none_goodput_cores < 5.0
