"""Integration tests: scaled-down versions of every experiment harness.

These exercise the full stack (apps -> data structures -> Quicksand ->
Nu runtime -> cluster -> DES kernel) and assert the paper's qualitative
claims hold at reduced scale, keeping them fast enough for every test
run.  The golden shapes at the report's configurations live in
``tests/experiments/``.
"""

import pytest

from repro.apps.dnn import DatasetSpec
from repro.experiments.ablations import (
    run_hybrid_ablation,
    run_migration_granularity,
    run_split_ablation,
    run_two_level_ablation,
)
from repro.experiments.fig1_filler import Fig1Config, run_fig1
from repro.experiments.fig2_imbalance import PAPER_CONFIGS, run_fig2_config
from repro.experiments.fig3_gpu_adapt import Fig3Config, run_fig3
from repro.units import KiB, MS, MiB


class TestFig1Integration:
    def test_fungible_doubles_static_goodput(self):
        fungible = run_fig1(Fig1Config(fungible=True, duration=60 * MS))
        static = run_fig1(Fig1Config(fungible=False, duration=60 * MS))
        assert fungible.mean_goodput_cores > 1.6 * static.mean_goodput_cores
        assert fungible.migration_latency.p99 < 1 * MS
        assert static.migrations == 0

    def test_filler_timeline_shows_bursts_filled(self):
        result = run_fig1(Fig1Config(fungible=True, duration=60 * MS))
        values = [v for _t, v in result.goodput_timeline]
        # Most 1 ms buckets run at (nearly) full machine capacity.
        full = sum(1 for v in values if v > 7.0)
        assert full > 0.7 * len(values)

    def test_determinism(self):
        a = run_fig1(Fig1Config(duration=40 * MS, seed=3))
        b = run_fig1(Fig1Config(duration=40 * MS, seed=3))
        assert a.mean_goodput_cores == b.mean_goodput_cores
        assert a.migrations == b.migrations


class TestFig2Integration:
    DATASET = DatasetSpec(count=240, mean_bytes=1 * MiB, mean_cpu=0.1)
    IDEAL = DATASET.total_cpu / 46.0
    _baseline_cache = {}

    def _baseline_time(self) -> float:
        """Measured single-machine time (class-level cache).

        The paper's claim is imbalanced ≈ baseline — the baseline itself
        carries whatever scheduling tail the scale implies, so ratios
        against it are the right comparison at any dataset size.
        """
        if "t" not in self._baseline_cache:
            row = run_fig2_config("baseline",
                                  dict(PAPER_CONFIGS)["baseline"],
                                  dataset=self.DATASET)
            self._baseline_cache["t"] = row.time_s
        return self._baseline_cache["t"]

    @pytest.mark.parametrize("name",
                             [n for n, _m in PAPER_CONFIGS
                              if n != "baseline"])
    def test_config_matches_baseline(self, name):
        machines = dict(PAPER_CONFIGS)[name]
        row = run_fig2_config(name, machines, dataset=self.DATASET)
        baseline = self._baseline_time()
        assert row.time_s < baseline * 1.05, (
            f"{name}: {row.time_s:.3f}s vs baseline {baseline:.3f}s"
        )

    def test_baseline_is_sane(self):
        # Baseline within 2x of the perfectly-parallel lower bound (the
        # gap is the self-balancing tail at this tiny scale).
        assert self.IDEAL <= self._baseline_time() < 2.0 * self.IDEAL

    def test_both_unbalanced_placement_shape(self):
        row = run_fig2_config("both-unbalanced",
                              dict(PAPER_CONFIGS)["both-unbalanced"],
                              dataset=self.DATASET)
        shards_on_memheavy = row.shard_machines.get("m0", 0)
        assert shards_on_memheavy > 0.8 * sum(row.shard_machines.values())
        assert row.worker_machines.get("m1", 0) >= 40


class TestFig3Integration:
    def test_adaptation_tracks_gpus(self):
        result = run_fig3(Fig3Config(duration=0.9))
        assert result.adaptation_success_rate == 1.0
        assert result.latency_summary.p90 < 25 * MS
        counts = {v for _t, v in result.member_trace}
        assert {4, 8} <= counts
        assert result.gpu_idle_fraction < 0.15

    def test_gpu_toggles_recorded(self):
        result = run_fig3(Fig3Config(duration=0.5))
        levels = [lvl for _t, lvl in result.toggles]
        assert levels[0] == 8
        assert set(levels) == {4, 8}


class TestAblationIntegration:
    def test_migration_latency_monotone_in_heap(self):
        points = run_migration_granularity(
            sizes=[64 * KiB, 1 * MiB, 16 * MiB])
        latencies = [lat for _sz, lat in points]
        assert latencies == sorted(latencies)
        assert latencies[0] < 0.5 * MS

    def test_split_rule_bounds_migration(self):
        result = run_split_ablation(total_bytes=64 * MiB)
        assert result.with_split_migration_s < \
            result.without_split_migration_s

    def test_hybrid_strands_decoupled_fits(self):
        result = run_hybrid_ablation()
        # Most hybrid units strand: the CPU-heavy machine runs out of
        # DRAM, the memory-heavy one out of cores.
        assert result.hybrid_failed > result.hybrid_placed
        assert result.decoupled_failed == 0
        assert result.decoupled_placed == 40

    def test_two_level_local_wins(self):
        result = run_two_level_ablation(duration=0.1)
        assert result.local_goodput_cores > \
            result.global_only_goodput_cores
