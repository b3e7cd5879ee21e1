"""The benchmark's own tests.

    python3 -m pytest perfbench

The workload tests start real worker processes, so this file takes
about two minutes; it is not part of the repository's unit suite.
"""

import json
import os

import pytest

import run
from layers import LAYERS, LayerFolder, layer_of_module, repo_modules

REPRO = os.path.join(run.SRC, "repro")


def test_layer_table_covers_every_repro_module():
    unmapped = [m for m in repo_modules(REPRO) if layer_of_module(m) is None]
    assert not unmapped, f"map these modules in layers.LAYERS: {unmapped}"


@pytest.mark.parametrize("module, layer", [
    ("sim/fluid", "sim.fluid"),
    ("sim/simulator", "sim.loop"),
    ("core/scheduler/local", "core.scheduler"),
    ("core/quicksand", "core"),
    ("storage/sharded", "ds"),
    ("experiments/fig1_filler", "apps"),
    ("trace", "obs"),
    ("hedge/clone", "other"),
    ("no/such/module", None),
])
def test_longest_entry_wins(module, layer):
    assert layer_of_module(module) == layer


def test_fold_charges_outside_code_to_its_caller():
    loop = (os.path.join(REPRO, "sim", "simulator.py"), 1, "run")
    fluid = (os.path.join(REPRO, "sim", "fluid.py"), 1, "reassign")
    builtin = ("~", 0, "<built-in method builtins.min>")
    # (primitive calls, calls, self time, cumulative time, callers) with
    # caller edges (calls, primitive calls, self time, cumulative time).
    stats = {
        loop: (1, 1, 0.3, 1.0, {}),
        fluid: (4, 4, 0.5, 0.7, {loop: (4, 4, 0.5, 0.7)}),
        builtin: (9, 9, 0.2, 0.2, {fluid: (9, 9, 0.2, 0.2)}),
    }
    folded = LayerFolder(REPRO).fold(stats)
    assert folded["sim.fluid"]["self_s"] == pytest.approx(0.7)
    assert folded["sim.loop"]["self_s"] == pytest.approx(0.3)
    assert folded["sim.fluid"]["calls"] == 4
    assert folded["sim.loop"]["calls"] == 0
    assert sum(row["self_s"] for row in folded.values()) \
        == pytest.approx(1.0)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.HOST_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_and_digest_repeat_under_tracing(workload):
    plain, error = run.iterate(workload, 0, trace=False)
    assert error is None, error
    traced, error = run.iterate(workload, 0, trace=True)
    assert error is None, error
    assert run.verdict(plain, plain) is None
    assert run.verdict(traced, plain) is None  # digest, counts, modelled
    assert set(traced["layers"]) == set(LAYERS)
    total = sum(row["self_s"] for row in traced["layers"].values())
    assert total > 0
    assert traced["counts"]["sim.events"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_held_out_seed_keeps_golden_shapes(workload):
    record, error = run.iterate(workload, 7, trace=False)
    assert error is None, error
    assert run.verdict(record, record) is None
