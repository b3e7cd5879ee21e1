"""Golden figure shapes for the serving experiment.

The headline of the paper's §1 pitch, pinned as a regression test: on
the canonical reservation-mismatched tenant population, fungible
Quicksand must deliver at least :data:`GOODPUT_RATIO_FLOOR` (1.3x) the
goodput of the static VM carve-up at equal p99 SLO — measured margins
are ~1.44-1.49 across seeds, so the floor trips on real regressions,
not noise.  Digest equality across ``--jobs`` is the exec-engine
contract CI diffs.
"""

import pytest

from repro.exec import run_specs
from repro.experiments.serving import (
    GOODPUT_RATIO_FLOOR,
    build_specs,
    by_mode,
    cells_digest,
    goodput_ratio,
    report,
)

GRID_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def grid():
    return run_specs(build_specs(seeds=GRID_SEEDS), jobs=2).values()


class TestHeadlineRatio:
    def test_fungible_beats_static_by_the_pinned_floor(self, grid):
        ratio = goodput_ratio(grid)
        assert ratio >= GOODPUT_RATIO_FLOOR, (
            f"goodput ratio {ratio:.3f} fell below the "
            f"{GOODPUT_RATIO_FLOOR}x golden floor")

    def test_every_seed_clears_the_floor_individually(self, grid):
        split = by_mode(grid)
        static_by_seed = {c["seed"]: c for c in split["static"]}
        for cell in split["fungible"]:
            stat = static_by_seed[cell["seed"]]
            assert cell["goodput"] >= \
                GOODPUT_RATIO_FLOOR * stat["goodput"]

    def test_equal_or_better_tail_at_higher_goodput(self, grid):
        """The win is not bought with latency: the fungible p99 must
        stay at or below the static p99 in every cell pair."""
        split = by_mode(grid)
        static_by_seed = {c["seed"]: c for c in split["static"]}
        for cell in split["fungible"]:
            assert cell["p99"] <= static_by_seed[cell["seed"]]["p99"]

    def test_fungible_runs_hotter(self, grid):
        """Borrowed troughs show up as higher cluster utilization."""
        split = by_mode(grid)
        static_by_seed = {c["seed"]: c for c in split["static"]}
        for cell in split["fungible"]:
            assert cell["utilization"] > \
                static_by_seed[cell["seed"]]["utilization"]


class TestConformance:
    def test_no_cell_starves(self, grid):
        for cell in grid:
            assert cell["starvation_violations"] == []

    def test_only_the_fungible_mode_moves_proclets(self, grid):
        for cell in grid:
            if cell["mode"] == "static":
                assert cell["migrations"] == 0
                assert cell["scale_ups"] == 0
            else:
                assert cell["scale_ups"] + cell["scale_downs"] > 0

    def test_grid_covers_both_modes_per_seed(self, grid):
        assert len(grid) == 2 * len(GRID_SEEDS)
        split = by_mode(grid)
        assert len(split["fungible"]) == len(split["static"])
        for cell in grid:
            assert cell["offered"] > 1000
            assert sum(t["goodput"] > 0 for t in cell["tenants"]) \
                == len(cell["tenants"])

    def test_report_renders_the_verdict(self, grid):
        text = report(grid)
        assert "PASS" in text
        assert "goodput ratio" in text


class TestGridDeterminism:
    def test_serial_and_parallel_digests_match(self):
        specs = build_specs(seeds=(0,), duration=0.6)
        s_report = run_specs(specs, jobs=1)
        p_report = run_specs(specs, jobs=2)
        assert cells_digest(s_report.values()) \
            == cells_digest(p_report.values())
        assert s_report.digest() == p_report.digest()

    def test_seed_streams_are_grid_position_independent(self):
        full = {s.name: s.kwargs["seed"]
                for s in build_specs(seeds=(0, 1, 2))}
        subset = {s.name: s.kwargs["seed"]
                  for s in build_specs(seeds=(2,))}
        for name, seed in subset.items():
            assert full[name] == seed

    def test_both_modes_of_a_seed_share_the_workload(self):
        specs = build_specs(seeds=(0,))
        seeds = {s.kwargs["mode"]: s.kwargs["seed"] for s in specs}
        assert seeds["fungible"] == seeds["static"]
