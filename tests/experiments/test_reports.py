"""Smoke tests: every experiment report renders a complete summary."""

from repro.apps.dnn import DatasetSpec
from repro.exec import run_specs
from repro.experiments import fig1_filler, fig2_imbalance, fig3_gpu_adapt
from repro.experiments import sweep_burst
from repro.units import MS, MiB


class TestReports:
    def test_fig1_report(self):
        fungible = fig1_filler.run_fig1(
            fig1_filler.Fig1Config(duration=40 * MS))
        static = fig1_filler.run_fig1(
            fig1_filler.Fig1Config(duration=40 * MS, fungible=False))
        out = fig1_filler.report(fungible, static)
        assert "FIG1" in out
        assert "fungible" in out and "static" in out
        assert "goodput" in out
        assert "*" in out  # the plot rendered

    def test_fig2_report(self):
        ds = DatasetSpec(count=120, mean_bytes=1 * MiB, mean_cpu=0.1)
        rows = fig2_imbalance.run_fig2(
            dataset=ds,
            configs=fig2_imbalance.PAPER_CONFIGS[:2],
        )
        out = fig2_imbalance.report(rows)
        assert "FIG2" in out
        assert "baseline" in out
        assert "vs baseline" in out

    def test_fig3_report(self):
        result = fig3_gpu_adapt.run_fig3(
            fig3_gpu_adapt.Fig3Config(duration=0.45))
        out = fig3_gpu_adapt.report(result)
        assert "FIG3" in out
        assert "equilibrium" in out
        assert "GPU idle" in out

    def test_sweep_report(self):
        specs = sweep_burst.build_specs(bursts=[2 * MS, 10 * MS],
                                        periods_per_run=4)
        points = sweep_burst.points_from_cells(run_specs(specs).values())
        out = sweep_burst.report(points)
        assert "EXT-SWEEP" in out
        assert "gain" in out

    def test_fig2_row_properties(self):
        ds = DatasetSpec(count=120, mean_bytes=1 * MiB, mean_cpu=0.1)
        row = fig2_imbalance.run_fig2_config(
            "baseline", dict(fig2_imbalance.PAPER_CONFIGS)["baseline"],
            dataset=ds)
        assert row.slowdown_vs_paper_baseline_shape > 0
        assert row.paper_time_s == 26.1
