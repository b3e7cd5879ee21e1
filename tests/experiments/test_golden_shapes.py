"""Golden shape tests: the paper's reproduced figures, enforced.

EXPERIMENTS.md's claims about Figs. 1–3 live here as assertions, at
fast scale, so a regression in the *shape* of a result (not just a
crash) fails CI instead of waiting for someone to regenerate and read
the report:

* Fig. 1 — fungible placement sustains ≈1.9x the goodput of static
  placement, on ≈full cluster utilisation, with ≈1 ms migrations.
* Fig. 2 — Quicksand makes imbalanced clusters perform within 1% of a
  balanced baseline of identical aggregate capacity, placing data on
  the DRAM-rich machine and workers on the core-rich one, also when the
  same totals are split four ways.
* Fig. 3 — the training pool adapts to every GPU up/down toggle and
  returns to equilibrium latency; frozen at the low-GPU size it starves
  the GPUs.
* EXT-SWEEP — the fungibility gain shrinks monotonically with the burst
  period and nearly vanishes at 0.5 ms windows.

The bands are deliberately generous around the measured values (see
EXPERIMENTS.md) — tight enough to catch a broken mechanism, loose
enough to survive benign scheduling-order changes.
"""

import pytest

from repro import (ClusterSpec, GpuSpec, MachineSpec, Quicksand,
                   QuicksandConfig)
from repro.apps.dnn import (DatasetSpec, GpuAvailabilityDriver,
                            StreamingPipeline)
from repro.exec import run_specs
from repro.experiments.fig1_filler import Fig1Config, run_fig1
from repro.experiments.fig2_imbalance import (FOUR_WAY_CONFIG, run_fig2,
                                              run_fig2_config)
from repro.experiments.fig3_gpu_adapt import Fig3Config, run_fig3
from repro.experiments.sweep_burst import build_specs, points_from_cells
from repro.units import GiB, MS, MiB

# 240 images is too coarse for the 1% claim (quantisation noise alone is
# ~3%); 1200 matches the CLI's reduced scale and converges.
FIG2_DATASET = DatasetSpec(count=1200, mean_bytes=1 * MiB, mean_cpu=0.1)
#: The perfectly parallel lower bound: all CPU work spread over 46 cores.
FIG2_IDEAL_S = FIG2_DATASET.total_cpu / 46.0


@pytest.fixture(scope="module")
def fig1_pair():
    fungible = run_fig1(Fig1Config(duration=60 * MS, fungible=True, seed=0))
    static = run_fig1(Fig1Config(duration=60 * MS, fungible=False, seed=0))
    return fungible, static


@pytest.fixture(scope="module")
def fig2_rows():
    return run_fig2(dataset=FIG2_DATASET, seed=0)


@pytest.fixture(scope="module")
def fig3_result():
    return run_fig3(Fig3Config(duration=0.9, seed=0))


class TestFig1GoldenShape:
    def test_fungible_static_goodput_ratio_near_1_9x(self, fig1_pair):
        fungible, static = fig1_pair
        ratio = fungible.mean_goodput_cores / static.mean_goodput_cores
        # Measured 1.92x (paper: ~1.9x).  Below 1.75 the migration
        # machinery stopped reclaiming the idle machine; above 2.05
        # static placement broke, which is just as wrong.
        assert 1.75 <= ratio <= 2.05, f"fungible/static ratio {ratio:.3f}"

    def test_fungible_run_uses_nearly_the_whole_cluster(self, fig1_pair):
        fungible, static = fig1_pair
        assert fungible.mean_goodput_cores >= 0.90 * fungible.config.cores
        # Static placement is pinned to half the cluster (plus epsilon).
        assert 0.40 * static.config.cores < static.mean_goodput_cores \
            <= 0.56 * static.config.cores

    def test_migration_p99_under_a_millisecond(self, fig1_pair):
        fungible, _static = fig1_pair
        assert fungible.migrations > 0
        assert fungible.migration_latency.p99 < 1 * MS

    def test_fungible_actually_migrated(self, fig1_pair):
        fungible, static = fig1_pair
        assert fungible.migrations >= 8
        assert static.migrations == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shape_does_not_depend_on_the_seed(self, seed):
        # Seed 0 is the fixture above, under the tighter 1.75x floor.
        fungible = run_fig1(Fig1Config(duration=60 * MS, fungible=True,
                                       seed=seed))
        static = run_fig1(Fig1Config(duration=60 * MS, fungible=False,
                                     seed=seed))
        assert fungible.mean_goodput_cores > 1.6 * static.mean_goodput_cores


class TestFig2GoldenShape:
    def test_all_configs_within_1pct_of_baseline(self, fig2_rows):
        baseline = next(r for r in fig2_rows if r.name == "baseline")
        for row in fig2_rows:
            overhead = row.time_s / baseline.time_s
            assert overhead <= 1.01, (
                f"{row.name}: {row.time_s:.4f}s is "
                f"{(overhead - 1) * 100:.2f}% over baseline "
                f"{baseline.time_s:.4f}s (claim: <= 1%)")

    def test_every_paper_config_ran(self, fig2_rows):
        assert {r.name for r in fig2_rows} == {
            "baseline", "cpu-unbalanced", "mem-unbalanced",
            "both-unbalanced"}

    def test_imbalance_did_not_speed_things_up(self, fig2_rows):
        # Sanity on the sanity check: an "unbalanced faster than
        # balanced" result means the baseline regressed, not that
        # Quicksand improved.
        baseline = next(r for r in fig2_rows if r.name == "baseline")
        for row in fig2_rows:
            assert row.time_s >= baseline.time_s * 0.999

    def test_every_config_near_the_parallel_bound(self, fig2_rows):
        for row in fig2_rows:
            assert row.time_s < FIG2_IDEAL_S * 1.15, (
                f"{row.name}: {row.time_s:.2f}s vs ideal {FIG2_IDEAL_S:.2f}s")

    def test_placement_follows_each_resource(self, fig2_rows):
        rows = {r.name: r for r in fig2_rows}
        # Nearly all image shards sit on the 12 GiB machine ...
        mem = rows["mem-unbalanced"]
        assert mem.shard_machines.get("m1", 0) > \
            0.9 * sum(mem.shard_machines.values())
        # ... most workers on the 40-core machine ...
        for name in ("cpu-unbalanced", "both-unbalanced"):
            assert rows[name].worker_machines.get("m1", 0) >= 40
        # ... and when both are split, the data on the other one.
        both = rows["both-unbalanced"]
        assert both.shard_machines.get("m0", 0) > \
            0.9 * sum(both.shard_machines.values())

    def test_four_way_split_stays_near_the_parallel_bound(self):
        """EXT-SCALE: one memory-heavy 6-core node plus three CPU nodes
        with 1 GiB each; the paper stops at two machines."""
        name, machines = FOUR_WAY_CONFIG
        row = run_fig2_config(name, machines, dataset=FIG2_DATASET)
        assert row.time_s < FIG2_IDEAL_S * 1.15, (
            f"4-way: {row.time_s:.2f}s vs ideal {FIG2_IDEAL_S:.2f}s")
        # Data concentrates on the memory-heavy node.
        assert row.shard_machines.get("m0", 0) > \
            0.7 * sum(row.shard_machines.values())


class TestFig3GoldenShape:
    def test_adapts_to_every_gpu_toggle(self, fig3_result):
        assert fig3_result.toggles, "no GPU capacity toggles happened"
        assert fig3_result.adaptation_success_rate == 1.0

    def test_returns_to_equilibrium_latency(self, fig3_result):
        assert fig3_result.equilibrium_latencies
        assert fig3_result.latency_summary.p90 < 25 * MS

    def test_gpus_stay_busy(self, fig3_result):
        assert fig3_result.gpu_idle_fraction < 0.10
        assert fig3_result.batches_trained > 0

    def test_longer_run_reequilibrates_within_20ms(self):
        result = run_fig3(Fig3Config(duration=1.2, seed=0))
        assert result.adaptation_success_rate == 1.0
        summary = result.latency_summary
        assert summary.count >= 4
        assert summary.p90 < 20 * MS, (
            f"equilibrium p90 {summary.p90 * 1e3:.1f} ms; paper reports 10-15")
        # The proclet count visits both equilibria (4 and 8).
        counts = {v for _t, v in result.member_trace}
        cfg = result.config
        assert int(cfg.gpu_low * cfg.members_per_gpu) in counts
        assert int(cfg.gpu_high * cfg.members_per_gpu) in counts
        assert result.gpu_idle_fraction < 0.10
        assert result.batches_trained > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_adapts_at_other_seeds(self, seed):
        result = run_fig3(Fig3Config(duration=0.85, seed=seed))
        assert result.adaptation_success_rate == 1.0
        assert result.latency_summary.p90 < 20 * MS

    def test_frozen_pool_starves_the_gpus(self):
        """Counterfactual: with the pool frozen at the low-GPU size, the
        8-GPU phases starve."""
        qs = Quicksand(ClusterSpec(machines=[
            MachineSpec(name="cpu0", cores=16, dram_bytes=8 * GiB),
            MachineSpec(name="cpu1", cores=16, dram_bytes=8 * GiB),
            MachineSpec(name="gpubox", cores=8, dram_bytes=8 * GiB,
                        gpus=GpuSpec(count=8, batch_time=10 * MS)),
        ]), config=QuicksandConfig(enable_global_scheduler=False))
        gpubox = qs.machine("gpubox")
        pipeline = StreamingPipeline(qs, gpubox, cpu_per_batch=10 * MS,
                                     initial_members=4, max_members=4)
        pipeline.preprocess.autoscaler.stop()  # freeze at 4 members
        driver = GpuAvailabilityDriver(gpubox, low=4, high=8,
                                       period=200 * MS)
        pipeline.start()
        driver.start()
        qs.run(until=qs.sim.now + 1.2)
        # GPU-seconds used over the 6 GPUs available on average.
        utilization = (pipeline.trainer.batches_trained * (10 * MS)
                       / (1.2 * 6))
        # 4 producers feed at most 400 batches/s against a mean
        # consumption capacity of 600/s: utilization near 2/3.
        assert utilization < 0.75

    def test_declared_demand_beats_queue_signals(self, fig3_result):
        """ABL-SIGNAL: the fixture's declared-demand signal against pure
        queue-side inference.  Queue signals still keep the GPUs mostly
        fed, but the declared signal feeds them at least as well."""
        inferred = run_fig3(Fig3Config(duration=0.9, seed=0,
                                       use_declared_demand=False))
        assert inferred.gpu_idle_fraction < 0.35
        assert fig3_result.gpu_idle_fraction < \
            inferred.gpu_idle_fraction + 0.05


class TestSweepGoldenShape:
    def test_gain_shrinks_with_the_burst_period(self):
        """EXT-SWEEP: ~2x at 10 ms bursts, monotone in the burst period,
        and near parity at 0.5 ms (about twice the migration time)."""
        specs = build_specs(bursts=[0.5 * MS, 1 * MS, 2 * MS, 10 * MS],
                            periods_per_run=10)
        points = points_from_cells(run_specs(specs).values())
        gains = {p.burst: p.gain for p in points}
        assert gains[10 * MS] > 1.8
        assert [gains[b] for b in sorted(gains)] == sorted(gains.values())
        assert gains[0.5 * MS] < 1.25
