"""Tests for the terminal-plot helpers and the CLI."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.viz import histogram, sparkline, step_plot


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "███"

    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == " " and s[-1] == "█"

    def test_explicit_bounds(self):
        s = sparkline([5.0], lo=0.0, hi=10.0)
        assert s in "▄▅"


class TestStepPlot:
    def test_empty(self):
        assert "empty" in step_plot([])

    def test_degenerate(self):
        assert "degenerate" in step_plot([(1.0, 2.0)])

    def test_shape(self):
        series = [(i * 0.001, float(i % 4)) for i in range(100)]
        out = step_plot(series, width=40, height=5, label="test")
        lines = out.splitlines()
        assert lines[0] == "test"
        assert len(lines) == 1 + 5 + 2  # label + rows + axis + footer
        assert "*" in out

    def test_square_wave_visible(self):
        series = []
        for i in range(200):
            series.append((i * 0.001, 8.0 if (i // 50) % 2 == 0 else 4.0))
        out = step_plot(series, width=60, height=6)
        top_row = out.splitlines()[0]
        # the top row must alternate: stars where value is 8
        assert "*" in top_row
        assert " " in top_row[10:]


class TestHistogram:
    def test_empty(self):
        assert "no samples" in histogram([])

    def test_single_value(self):
        assert "samples" in histogram([1.0, 1.0])

    def test_counts_sum(self):
        values = [0.1 * i for i in range(100)]
        out = histogram(values, bins=10)
        total = sum(int(line.rsplit(" ", 1)[-1])
                    for line in out.splitlines())
        assert total == 100


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for cmd in ("fig1", "fig2", "fig3", "ablations"):
            args = parser.parse_args([cmd] if cmd != "fig2"
                                     else ["fig2", "--images", "10"])
            assert args.command == cmd

    def test_fig1_runs(self, capsys):
        rc = main(["fig1", "--duration", "0.04"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIG1" in out
        assert "fungible" in out

    def test_fig3_runs(self, capsys):
        rc = main(["fig3", "--duration", "0.45"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIG3" in out

    def test_fig2_runs_tiny(self, capsys):
        rc = main(["fig2", "--images", "120"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIG2" in out
        assert "baseline" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


#: Every subcommand's options as ``build_parser()`` declares them:
#: (option strings or positional dest, default, choices), in order.
#: Changing a flag or a default is a CLI contract change.
POLICIES = ("none", "restart", "checkpoint", "replicate", "lineage")
EXEC_OPTIONS = [(("--jobs",), 1, None), (("--cache-dir",), None, None),
                (("--budget",), 0.0, None)]
OPTION_SNAPSHOT = {
    "fig1": [(("--duration",), 0.2, None), (("--seed",), 0, None)],
    "fig2": [(("--images",), 1200, None), (("--full-scale",), False, None),
             (("--seed",), 0, None)],
    "fig3": [(("--duration",), 1.6, None), (("--seed",), 0, None)],
    "ablations": EXEC_OPTIONS,
    "sweep": [(("--seed",), 0, None)] + EXEC_OPTIONS,
    "chaos": [(("--seed",), 42, None), (("--seeds",), None, None),
              (("--differential",), None, None), (("--steps",), 25, None),
              (("--machines",), 4, None), (("--duration",), 2.0, None),
              (("--oracle",), False, None),
              (("--check-determinism",), False, None),
              (("--recovery",), None, POLICIES),
              (("--autoscale",), False, None)] + EXEC_OPTIONS,
    "cloning": [(("--seed",), 0, None), (("--seeds",), "0", None),
                (("--duration",), 6.0, None),
                (("--check-determinism",), False, None)] + EXEC_OPTIONS,
    "serving": [(("--seed",), 0, None), (("--seeds",), "0-2", None),
                (("--machines",), 24, None), (("--tenants",), 8, None),
                (("--duration",), 2.0, None), (("--min-ratio",), 0.0, None),
                (("--check-determinism",), False, None)] + EXEC_OPTIONS,
    "autoscale": [(("--seed",), 0, None), (("--seeds",), "1-3", None),
                  (("--duration",), 0.4, None),
                  (("--no-grid",), False, None),
                  (("--max-ratio",), 0.0, None)] + EXEC_OPTIONS,
    "recovery": [(("--seed",), 0, None), (("--kill-at",), 0.4, None),
                 (("--policy",), None, POLICIES)],
    "trace": [("experiment", None, ("fig1", "fig2", "fig3", "chaos")),
              (("--out",), None, None), (("--seed",), 0, None),
              (("--top",), 8, None), (("--no-profile",), False, None),
              (("--check-determinism",), False, None)],
    "all": [(("--out",), None, None), (("--full-scale",), False, None)],
}

#: ``serving`` on a grid small enough for the unit suite (~0.2 s a run).
SMALL_SERVING = ["serving", "--seeds", "0", "--machines", "6",
                 "--tenants", "2", "--duration", "0.3"]


def _options(parser):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(tuple(a.option_strings) or a.dest, a.default,
                tuple(a.choices) if a.choices else None)
               for a in p._actions if a.dest != "help"]
        for name, p in sub.choices.items()
    }


@pytest.fixture(scope="module")
def serving_cache(tmp_path_factory):
    """One result cache shared by the serving runs below, so only the
    first of them simulates (the determinism replay is never cached)."""
    return str(tmp_path_factory.mktemp("serving-cache"))


class TestCliContract:
    def test_option_snapshot(self):
        assert _options(build_parser()) == OPTION_SNAPSHOT

    def test_serving_digest_and_replay(self, capsys, serving_cache):
        rc = main(SMALL_SERVING + ["--check-determinism",
                                   "--cache-dir", serving_cache])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serving digest: 66b23411d765" in out
        assert "deterministic" in out

    def test_serving_goodput_gate_fails(self, capsys, serving_cache):
        rc = main(SMALL_SERVING + ["--min-ratio", "99",
                                   "--cache-dir", serving_cache])
        assert rc == 1
        assert "GOODPUT RATIO GATE FAILED" in capsys.readouterr().out

    def test_serving_budget_exceeded(self, capsys, serving_cache):
        rc = main(SMALL_SERVING + ["--budget", "1e-9",
                                   "--cache-dir", serving_cache])
        assert rc == 1
        assert "BUDGET EXCEEDED" in capsys.readouterr().out

    def test_chaos_grid_replay(self, capsys):
        rc = main(["chaos", "--seeds", "1-2", "--duration", "0.2",
                   "--machines", "3", "--check-determinism"])
        assert rc == 0
        assert "deterministic" in capsys.readouterr().out

    def test_trace_writes_json_and_digest(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        rc = main(["trace", "fig1", "--out", str(out_path),
                   "--no-profile"])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        digest = (tmp_path / "t.json.digest").read_text().strip()
        assert f"trace digest: {digest}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["cloning", "--seeds", "3-1"],
        ["chaos", "--seeds", "2-1"],
        ["chaos", "--differential", "5-0"],
        ["serving", "--seeds", "5-1"],
        ["autoscale", "--seeds", "3-1"],
        ["serving", "--seeds", ""],
        ["cloning", "--seeds", "0,x"],
        ["sweep", "--budget", "-1"],
        ["chaos", "--seed", "3", "--budget", "-0.5"],
        ["ablations", "--budget", "nan"],
    ])
    def test_bad_seeds_and_budgets_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_single_seed_chaos_checks_the_budget(self, capsys):
        rc = main(["chaos", "--seed", "3", "--duration", "0.3",
                   "--machines", "3", "--budget", "0.0001"])
        assert rc == 1
        assert "BUDGET EXCEEDED" in capsys.readouterr().out

    def test_differential_campaign_replays(self, capsys):
        rc = main(["chaos", "--differential", "0-3", "--steps", "5",
                   "--check-determinism"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 runs deterministic" in out
        assert "differential gate passed: 4/4 seeds agree" in out

    def test_experiments_import_stays_light(self):
        code = ("import sys, repro.experiments; "
                "print([m for m in ('repro.exec', 'repro.cli', "
                "'argparse', 'json') if m in sys.modules])")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
