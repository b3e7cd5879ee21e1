"""Tests for the metrics recorder registry."""

import pytest

from repro.metrics import MetricsRecorder
from repro.sim import Simulator


@pytest.fixture
def rec():
    return MetricsRecorder(Simulator())


class TestRecorder:
    def test_series_lazily_created_and_cached(self, rec):
        a = rec.series("x.y")
        assert rec.series("x.y") is a

    def test_record_appends_at_now(self, rec):
        rec.sim.timeout(2.0)
        rec.sim.run()
        rec.record("lat", 5.0)
        assert list(rec.series("lat")) == [(2.0, 5.0)]

    def test_counter(self, rec):
        rec.count("events")
        rec.count("events", 2.0)
        assert rec.counter("events").total == 3.0

    def test_gauge_initial_at_now(self, rec):
        g = rec.gauge("level", initial=7.0)
        assert g.level == 7.0
        assert rec.gauge("level") is g

    def test_samples_bag(self, rec):
        rec.observe("lats", 0.1)
        rec.observe("lats", 0.2)
        assert rec.samples("lats") == [0.1, 0.2]

    def test_names_and_has(self, rec):
        rec.record("a", 1)
        rec.count("b")
        rec.gauge("c")
        rec.observe("d", 1.0)
        assert rec.names() == ["a", "b", "c", "d"]
        assert rec.has("a") and not rec.has("zz")


class TestRecordExecStats:
    def test_gauges_merged_in_spec_order(self, rec):
        from repro.exec import RunSpec, run_specs
        from repro.exec.tasks import kernel_churn_task

        specs = [RunSpec(kernel_churn_task, {"seed": i, "rounds": 5},
                         name=f"cell.{i}") for i in range(3)]
        report = run_specs(specs, jobs=2)
        stats = rec.record_stats(report, "exec")
        assert stats["runs"] == 3
        assert stats["misses"] == 3 and stats["hits"] == 0
        # Kernel gauges hold the spec-order sum of per-run deltas,
        # never a single worker's last write.
        totals = report.kernel_totals()
        assert totals["events"] > 0
        assert rec.gauge("exec.kernel.events").level == totals["events"]
        assert stats["kernel.events"] == totals["events"]
        assert rec.gauge("exec.runs").level == 3

    def test_merge_is_deterministic_across_jobs(self, rec):
        from repro.exec import RunSpec, run_specs
        from repro.exec.tasks import kernel_churn_task

        specs = [RunSpec(kernel_churn_task, {"seed": 7 + i, "rounds": 5},
                         name=f"cell.{i}") for i in range(3)]
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert serial.kernel_totals() == parallel.kernel_totals()

    def test_custom_prefix(self, rec):
        from repro.exec import RunSpec, run_specs
        from repro.exec.tasks import rng_walk_task

        report = run_specs([RunSpec(rng_walk_task, {"seed": 1})], jobs=1)
        rec.record_stats(report, "sweep")
        assert rec.has("sweep.runs")
        assert rec.has("sweep.kernel.events")
        assert not rec.has("exec.runs")


class TestDashboard:
    def test_snapshot_renders(self):
        from repro.metrics import machine_rows, snapshot
        from repro.units import MiB

        from ..conftest import make_qs

        qs = make_qs(enable_local_scheduler=False,
                     enable_global_scheduler=False,
                     enable_split_merge=False)
        ref = qs.spawn_memory(machine=qs.machines[0])
        qs.run(until_event=ref.call("mp_put", 0, 10 * MiB, None))
        rows = machine_rows(qs)
        assert len(rows) == 2
        assert rows[0]["dram_used"] >= 10 * MiB
        assert rows[0]["kinds"].get("memory") == 1
        out = snapshot(qs)
        assert "m0" in out and "proclets=1" in out
