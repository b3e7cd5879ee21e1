"""Command-line entry point: ``python -m repro <experiment> [options]``.

Every subcommand is one :class:`Experiment` record in
:data:`EXPERIMENTS`, and one driver, :func:`drive`, runs them all the
same way: build the record's :class:`repro.exec.RunSpec` list, execute
it through :func:`repro.exec.run_specs`, print the report, the exec
summary and the ``<name> digest:`` line, replay uncached under
``--check-determinism``, evaluate the record's gates and check
``--budget``.  Experiment modules (and :mod:`repro.exec`) are imported
only by the command that runs them.
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

POLICIES = ("none", "restart", "checkpoint", "replicate", "lineage")


def _seeds(text: str) -> List[int]:
    """argparse type: ``"1-5"`` / ``"0,3,7"`` / ``"4"`` -> seed list.

    An empty or reversed range is a usage error, not a zero-run grid
    whose gates would pass vacuously."""
    seeds = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part[1:]:  # allow negative singletons
                lo, hi = (int(x) for x in part.split("-", 1))
                if hi < lo:
                    raise argparse.ArgumentTypeError(
                        f"empty seed range {part!r}")
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed list {text!r}") from None
    return seeds


def _budget(text: str) -> float:
    """argparse type: a wall-clock budget in seconds (0 = no budget)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {text}")
    return value


def _arg(*flags, **kwargs):
    return flags, kwargs


#: The repro.exec knobs of every command that fans out a run grid.
EXEC_ARGS = (
    _arg("--jobs", type=int, default=1,
         help="worker processes for independent runs "
              "(1 = serial; results are identical)"),
    _arg("--cache-dir", default=None, metavar="DIR",
         help="content-addressed result cache; re-runs of unchanged "
              "grids are served from disk"),
    _arg("--budget", type=_budget, default=0.0, metavar="SECONDS",
         help="fail if the run-execution phase exceeds this wall-clock "
              "budget (0 = no budget)"),
)

#: A gate verdict: (name, passed, detail).
Gate = Tuple[str, bool, str]


def _no_gates(values, args) -> List[Gate]:
    return []


@dataclass(frozen=True)
class Experiment:
    """One ``python -m repro`` subcommand.

    ``arguments`` are its ``(flags, kwargs)`` pairs for
    ``add_argument``; ``specs(args)`` lists the runs the parsed
    arguments ask for; ``report(values, args)`` renders
    their results (in spec order); ``digest(values, args)``, when set,
    is printed as ``<name> digest:`` and compared on replay; ``gates``
    returns the verdicts that decide the exit status."""

    name: str
    help: str
    arguments: tuple
    specs: Callable
    report: Callable
    digest: Optional[Callable] = None
    gates: Callable = _no_gates


def drive(exp: Experiment, args) -> int:
    """Run one experiment record; returns the process exit status."""
    from .exec import run_specs

    specs = exp.specs(args)
    jobs = getattr(args, "jobs", 1)
    run = run_specs(specs, jobs=jobs, cache=getattr(args, "cache_dir", None))
    values = run.values()
    print(exp.report(values, args))
    print(run.summary())
    wall = run.wall_s
    failed = False
    if exp.digest is not None:
        digest = exp.digest(values, args)
        print(f"{exp.name} digest: {digest}")
        if getattr(args, "check_determinism", False):
            # Replay fresh: a cached replay would compare a result with
            # itself.  Serial-vs-parallel equivalence is CI's job.
            replay = run_specs(specs, jobs=jobs, cache=None)
            wall += replay.wall_s
            again = exp.digest(replay.values(), args)
            if again != digest:
                print(f"DETERMINISM FAILURE: replay digest {again} != "
                      f"{digest}")
                failed = True
            else:
                print(f"replay digest matches ({digest[:16]}...): "
                      f"{len(specs)} runs deterministic")
    for name, ok, detail in exp.gates(values, args):
        if ok:
            print(f"{name} gate passed: {detail}")
        else:
            print(f"{name.upper()} GATE FAILED: {detail}")
            failed = True
    budget = getattr(args, "budget", 0.0)
    if budget and wall > budget:
        print(f"WALL-CLOCK BUDGET EXCEEDED: {wall:.1f}s > "
              f"{budget:.1f}s budget")
        failed = True
    return int(failed)


def _mod(module: str):
    """``repro.experiments.<module>``, imported on first use."""
    return importlib.import_module(f"{__package__}.experiments.{module}")


def _spec(label: str, fn: Callable, /, **kwargs):
    from .exec import RunSpec

    return RunSpec(fn, kwargs, name=label)


def _report(module: str) -> Callable:
    """The report of ``repro.experiments.<module>`` over every value."""
    return lambda values, args: _mod(module).report(values)


def _results_digest(values, args) -> str:
    from .exec import results_digest

    return results_digest(values)


def _cells_digest(values, args) -> str:
    return _mod("serving").cells_digest(values)


def _fig1_specs(args):
    fig1 = _mod("fig1_filler")
    return [_spec(f"fig1.{mode}", fig1.run_fig1, config=fig1.Fig1Config(
        duration=args.duration, seed=args.seed, fungible=mode == "fungible"))
        for mode in ("fungible", "static")]


def _fig2_specs(args):
    from .apps.dnn import DatasetSpec
    from .units import MiB

    fig2 = _mod("fig2_imbalance")
    dataset = (DatasetSpec() if args.full_scale
               else DatasetSpec(count=args.images, mean_bytes=1 * MiB,
                                mean_cpu=0.1))
    return [_spec(f"fig2.{name}", fig2.run_fig2_config, name=name,
                  machines=machines, dataset=dataset, seed=args.seed)
            for name, machines in fig2.PAPER_CONFIGS]


def _fig3_specs(args):
    fig3 = _mod("fig3_gpu_adapt")
    return [_spec("fig3", fig3.run_fig3, config=fig3.Fig3Config(
        duration=args.duration, seed=args.seed))]


def _all_parts(args):
    """The default arguments of every command ``all`` joins."""
    parser = build_parser()
    return [parser.parse_args([name] + (["--full-scale"] if args.full_scale
                                        and name == "fig2" else []))
            for name in ("fig1", "fig2", "fig3", "ablations")]


def _all_report(values, args) -> str:
    """Join the parts' reports; ``--out`` also writes the text."""
    sections = []
    for part in _all_parts(args):
        n = len(part._experiment.specs(part))
        sections.append(part._experiment.report(values[:n], part))
        values = values[n:]
    text = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    if not args.out:
        return text
    with open(args.out, "w") as f:
        f.write(text + "\n")
    return f"{text}\n\n[report written to {args.out}]"


def _chaos_specs(args):
    """One detailed run, a seed grid, or the differential campaign."""
    from . import chaos

    if args.differential:
        return [_spec(f"chaos.diff.seed={seed}", chaos.differential_task,
                      seed=seed, steps=args.steps)
                for seed in args.differential]
    config = dict(machines=args.machines, duration=args.duration,
                  oracle=args.oracle, autoscale=args.autoscale)
    if args.seeds:
        return chaos.chaos_grid_specs(args.seeds, policies=(args.recovery,),
                                      **config)
    return [_spec(f"chaos.seed={args.seed}", chaos.run_chaos,
                  config=chaos.ChaosConfig(seed=args.seed,
                                           recovery_policy=args.recovery,
                                           **config))]


def _chaos_report(values, args) -> str:
    if args.differential:
        lines = [f"DIFFERENTIAL — fluid engine vs the brute-force "
                 f"water-fill oracle, {len(values)} seeds"]
        for row in values:
            if row["divergences"]:
                lines.append(f"seed {row['seed']}: ENGINE/ORACLE DIVERGENCE")
                lines += [f"  {line}" for line in row["divergences"]]
        return "\n".join(lines)
    if args.seeds:
        return "\n".join(
            f"seed {row['seed']:>4d}: digest {row['digest'][:16]}... "
            f"faults={row['injected']} crashes={row['machines_crashed']} "
            f"tasks={row['tasks_done']} checks={row['invariant_checks']}"
            for row in values)
    return values[0].report()


def _chaos_digest(values, args) -> str:
    if args.differential or args.seeds:
        return _results_digest(values, args)
    return values[0].digest()


def _chaos_gates(values, args) -> List[Gate]:
    if not args.differential:
        return []
    agree = sum(1 for row in values if not row["divergences"])
    return [("differential", agree == len(values),
             f"{agree}/{len(values)} seeds agree with the oracle")]


def _cloning_gates(values, args) -> List[Gate]:
    inside = len(values) - len(_mod("cloning").differential(values))
    return [("oracle", inside == len(values),
             f"{inside}/{len(values)} cells inside the oracle's band")]


def _serving_gates(values, args) -> List[Gate]:
    starved = [v for cell in values for v in cell["starvation_violations"]]
    gates = [("starvation", not starved,
              "; ".join(map(str, starved)) or "no tenant starved")]
    if args.min_ratio > 0:
        ratio = _mod("serving").goodput_ratio(values)
        ok = ratio >= args.min_ratio
        gates.append(("goodput ratio", ok, f"{ratio:.3f} "
                      f"{'>=' if ok else '<'} {args.min_ratio:g}"))
    return gates


def _autoscale_specs(args):
    """The Fig. 2 parity table, then (unless --no-grid) the autoscaled
    chaos fault grid."""
    from .chaos import chaos_grid_specs

    autoscale = _mod("autoscale")
    specs = [_spec(f"autoscale.{name}", autoscale.run_autoscale_config,
                   name=name, machines=machines, seed=args.seed)
             for name, machines in _mod("fig2_imbalance").PAPER_CONFIGS]
    if not args.no_grid:
        specs += chaos_grid_specs(
            args.seeds, policies=autoscale.DEFAULT_GRID_POLICIES,
            prefix="autoscale.chaos", duration=args.duration, autoscale=True)
    return specs


def _autoscale_report(values, args) -> str:
    n = len(_mod("fig2_imbalance").PAPER_CONFIGS)
    return _mod("autoscale").report(values[:n], values[n:])


def _autoscale_gates(values, args) -> List[Gate]:
    if args.max_ratio <= 0:
        return []
    n = len(_mod("fig2_imbalance").PAPER_CONFIGS)
    worst = max(row.ratio for row in values[:n])
    ok = worst <= args.max_ratio
    return [("parity", ok, f"worst ratio {worst:.3f} "
             f"{'<=' if ok else '>'} {args.max_ratio:g}")]


def _recovery_specs(args):
    """The unkilled baseline, then the kill under one or every policy."""
    run = _mod("recovery").run_recovery_fig2
    return [_spec("recovery.baseline", run, policy=None, kill_at=None,
                  seed=args.seed)] + [
        _spec(f"recovery.{policy}", run, policy=policy,
              kill_at=args.kill_at, seed=args.seed)
        for policy in ((args.policy,) if args.policy else POLICIES)]


def _trace_report(values, args) -> str:
    """Span counts and the profile; ``--out`` also writes the Chrome
    trace JSON and its digest."""
    import json

    run = values[0]
    lines = []
    if args.out:
        with open(args.out, "w") as f:
            json.dump(run.chrome(), f, indent=1)
            f.write("\n")
        with open(args.out + ".digest", "w") as f:
            f.write(run.digest() + "\n")
        lines.append(f"[chrome trace written to {args.out}; "
                     f"digest to {args.out}.digest]")
    if not args.no_profile:
        lines.append(run.profile(top=args.top))
    lines.append(f"{run.span_count()} spans across "
                 f"{len(run.spans.tracers)} simulator(s)")
    return "\n".join(lines)


_SEED = _arg("--seed", type=int, default=0)
_REPLAY = _arg("--check-determinism", action="store_true",
               help="replay the runs uncached and require identical "
                    "digests")

EXPERIMENTS = (
    Experiment(
        "fig1", "filler migration experiment",
        (_arg("--duration", type=float, default=0.2,
              help="measured window in virtual seconds"), _SEED),
        _fig1_specs, lambda v, a: _mod("fig1_filler").report(*v)),
    Experiment(
        "fig2", "imbalanced-machines table",
        (_arg("--images", type=int, default=1200,
              help="dataset size (default: 10x-reduced scale)"),
         _arg("--full-scale", action="store_true",
              help="use the paper's 12000-image scale"), _SEED),
        _fig2_specs, _report("fig2_imbalance")),
    Experiment(
        "fig3", "GPU-adaptation experiment",
        (_arg("--duration", type=float, default=1.6), _SEED),
        _fig3_specs, lambda v, a: _mod("fig3_gpu_adapt").report(v[0])),
    Experiment(
        "ablations", "run all DESIGN.md ablations", EXEC_ARGS,
        lambda a: _mod("ablations").build_specs(), _report("ablations")),
    Experiment(
        "sweep", "EXT-SWEEP: fungibility gain vs burst period",
        (_SEED,) + EXEC_ARGS,
        lambda a: _mod("sweep_burst").build_specs(seed=a.seed),
        lambda v, a: _mod("sweep_burst").report(
            _mod("sweep_burst").points_from_cells(v)),
        digest=_results_digest),
    Experiment(
        "chaos", "seeded fault-injection run with invariant checking",
        (_arg("--seed", type=int, default=42),
         _arg("--seeds", type=_seeds, default=None,
              help="seed grid (e.g. '1-5' or '1,3,9') fanned out through "
                   "repro.exec"),
         _arg("--differential", type=_seeds, default=None, metavar="SEEDS",
              help="run the fluid-vs-oracle differential campaign over "
                   "this seed range instead of full scenarios"),
         _arg("--steps", type=int, default=25,
              help="mutations per differential seed"),
         _arg("--machines", type=int, default=4),
         _arg("--duration", type=float, default=2.0),
         _arg("--oracle", action="store_true",
              help="also diff every fluid scheduler against the "
                   "brute-force water-fill oracle (slow)"),
         _REPLAY,
         _arg("--recovery", default=None, choices=POLICIES,
              help="run under the repro.ft recovery subsystem with this "
                   "policy on the map shards (default: legacy "
                   "application-level healing, byte-identical to previous "
                   "releases)"),
         _arg("--autoscale", action="store_true",
              help="replace the legacy size controller with the "
                   "ShardAutoscaler and add a range-sharded map under "
                   "routed churn (exercises the two-phase reshard "
                   "protocol under faults)")) + EXEC_ARGS,
        _chaos_specs, _chaos_report, digest=_chaos_digest,
        gates=_chaos_gates),
    Experiment(
        "cloning", "request-cloning grid differentially compared against "
                   "the closed-form PS oracle",
        (_arg("--seed", type=int, default=0,
              help="master seed mixed into every cell's stream"),
         _arg("--seeds", type=_seeds, default="0",
              help="replication seeds per grid cell (e.g. '0-2' or "
                   "'0,5')"),
         _arg("--duration", type=float, default=6.0,
              help="virtual seconds per cell"),
         _REPLAY) + EXEC_ARGS,
        lambda a: _mod("cloning").build_specs(seeds=a.seeds,
                                            duration=a.duration,
                                            seed=a.seed),
        _report("cloning"), digest=_cells_digest, gates=_cloning_gates),
    Experiment(
        "serving", "multi-tenant serving grid: fungible vs static "
                   "carve-up with SLO goodput gates",
        (_arg("--seed", type=int, default=0,
              help="master seed mixed into every cell's stream"),
         _arg("--seeds", type=_seeds, default="0-2",
              help="replication seeds (e.g. '0-2' or '0,5')"),
         _arg("--machines", type=int, default=24,
              help="cluster size (2-core machines)"),
         _arg("--tenants", type=int, default=8,
              help="tenant count (staggered diurnal phases)"),
         _arg("--duration", type=float, default=2.0,
              help="virtual seconds per cell"),
         _arg("--min-ratio", type=float, default=0.0,
              help="fail unless fungible/static goodput ratio meets this "
                   "floor (0 = report only)"),
         _REPLAY) + EXEC_ARGS,
        lambda a: _mod("serving").build_specs(
            seeds=a.seeds, machines=a.machines, n_tenants=a.tenants,
            duration=a.duration, seed=a.seed),
        _report("serving"), digest=_cells_digest, gates=_serving_gates),
    Experiment(
        "autoscale", "hand-tuned controller vs ShardAutoscaler parity + "
                     "autoscaled chaos fault grid",
        (_SEED,
         _arg("--seeds", type=_seeds, default="1-3",
              help="chaos grid seeds (e.g. '1-5' or '1,3,9')"),
         _arg("--duration", type=float, default=0.4,
              help="virtual seconds per chaos grid cell"),
         _arg("--no-grid", action="store_true",
              help="skip the chaos fault grid (parity table only)"),
         _arg("--max-ratio", type=float, default=0.0,
              help="fail if any autoscaled/hand-tuned completion ratio "
                   "exceeds this ceiling (0 = report only)")) + EXEC_ARGS,
        _autoscale_specs, _autoscale_report, gates=_autoscale_gates),
    Experiment(
        "recovery", "kill-a-machine-mid-Fig.2 experiment and "
                    "recovery-policy ablation",
        (_SEED,
         _arg("--kill-at", type=float, default=0.4,
              help="virtual seconds after preprocessing starts"),
         _arg("--policy", default=None, choices=POLICIES,
              help="run a single policy instead of the full ablation "
                   "(baseline is always included)")),
        _recovery_specs, _report("recovery")),
    Experiment(
        "trace", "run an experiment with span tracing; export Chrome "
                 "trace_event JSON + virtual-time profile",
        (_arg("experiment", choices=["fig1", "fig2", "fig3", "chaos"],
              help="experiment to run at trace scale"),
         _arg("--out", default=None,
              help="write Perfetto-loadable JSON here (plus <out>.digest)"),
         _SEED,
         _arg("--top", type=int, default=8,
              help="profile lines shown per track"),
         _arg("--no-profile", action="store_true",
              help="skip the text profile"),
         _REPLAY),
        lambda a: [_spec(f"trace.{a.experiment}", _mod("tracedrun").run_traced,
                         experiment=a.experiment, seed=a.seed)],
        _trace_report, digest=lambda v, a: v[0].digest()),
    Experiment(
        "all", "regenerate every figure + ablation",
        (_arg("--out", default=None,
              help="also write the report to this file"),
         _arg("--full-scale", action="store_true")),
        lambda a: [spec for part in _all_parts(a)
                   for spec in part._experiment.specs(part)],
        _all_report),
)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per :data:`EXPERIMENTS` record."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quicksand (HotOS '23) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in EXPERIMENTS:
        p = sub.add_parser(exp.name, help=exp.help)
        for flags, kwargs in exp.arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(_experiment=exp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return drive(args._experiment, args)
