"""Microbenchmarks for the DES/fluid kernel hot path.

Unlike ``python -m repro`` (which reproduces the paper's figures), this
file measures the *simulator itself*: how many events per second the
kernel sustains under the access patterns every experiment funnels
through — bursty submit/cancel churn, many-flow fair sharing, deep
priority stacks, and timer storms that stress the event heap.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--quick] \
        [--json OUT.json] [--check BENCH_kernel.json]

``--check`` compares the measured events/sec against the committed
baseline (the ``after.quick`` section of ``BENCH_kernel.json``) and
exits non-zero on a regression beyond ``--tolerance`` (default 20%),
which is how CI gates kernel performance.

Only public scheduler/simulator API is used, so the suite runs
unchanged against older kernels — that is how the ``before`` numbers
in ``BENCH_kernel.json`` were captured.  (``parallel-sweep`` is the one
exception: it measures ``repro.exec`` itself and is skipped, not
failed, on kernels that predate it.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque

from repro.sim import FluidScheduler, Simulator


# ---------------------------------------------------------------------------
# Scenarios.  Each returns (ops, sim) where *ops* counts the scheduler
# mutations the scenario issued (the "useful work" denominator).
# ---------------------------------------------------------------------------

def _run_churn(quick: bool, traced: bool):
    """Bursty submit/cancel against a large standing population.

    Models proclet thread churn on a busy machine: every virtual
    instant a batch of high-priority items arrives and another batch is
    cancelled, on top of ~1.5k long-lived background holds.  This is
    the pattern the coalesced-reassignment path exists for.

    With ``traced`` a ``repro.obs`` span tracer is attached, so the
    scenario pays the *enabled*-path recording cost; without it the
    instrumentation sites take the disabled fast path (one attribute
    read + branch), which is what the 5% churn CI gate pins.
    """
    rounds = 40 if quick else 120
    batch = 32
    background = 1500
    sim = Simulator(seed=7)
    if traced:
        # Tolerate older kernels without repro.obs (the suite must run
        # unchanged against them to capture "before" numbers).
        try:
            from repro.obs import SpanTracer
        except ImportError:
            pass
        else:
            SpanTracer(sim, label="bench")
    sched = FluidScheduler(sim, 64.0, name="churn")
    ops = 0

    def driver():
        nonlocal ops
        for i in range(background):
            sched.hold(demand=1.0, priority=1, name=f"bg{i}")
        ops += background
        live = deque()
        for _ in range(rounds):
            for i in range(batch):
                live.append(sched.submit(work=50.0 + i, demand=2.0,
                                         priority=0, name="burst"))
            ops += batch
            while len(live) > batch // 2:
                it = live.popleft()
                if it.active:
                    sched.cancel(it)
                ops += 1
            yield sim.timeout(0.001)

    sim.process(driver())
    sim.run(until=1.0)
    return ops, sim


def scenario_churn(quick: bool):
    """Churn with tracing disabled (the default, gated configuration)."""
    return _run_churn(quick, traced=False)


def scenario_tracedchurn(quick: bool):
    """Churn with a span tracer attached: the enabled-path overhead."""
    return _run_churn(quick, traced=True)


def scenario_fairshare(quick: bool):
    """Waves of flows fair-sharing one capacity, with aggregate pollers.

    Models a NIC under heavy transfer load: arrivals come in bursts at
    one instant, completions rebalance everyone, and placement-style
    pollers read ``load``/``free_capacity`` far more often than rates
    change.  Tightened alongside the hot-loop pass: two pollers (one
    per placement tier) on a faster cadence and larger waves, so the
    dispatch loop — not the mutation rate — dominates.  Widened again
    so that each completion rebalances the whole wave: per-item
    recompute cost is what this gate pins now.
    """
    waves = 6 if quick else 16
    per_wave = 320
    sim = Simulator(seed=11)
    sched = FluidScheduler(sim, 100.0, name="fair")
    ops = 0

    def poller(priority: int, period: float):
        acc = 0.0
        while True:
            acc += sched.load + sched.free_capacity(priority=priority)
            yield sim.timeout(period)

    def driver():
        nonlocal ops
        rng = sim.random.stream("fair")
        for w in range(waves):
            items = []
            for i in range(per_wave):
                items.append(sched.submit(
                    work=0.5 + rng.random() * 2.0,
                    demand=0.5 + rng.random() * 3.0,
                    priority=1, name=f"w{w}.{i}"))
            ops += per_wave
            # Let roughly half the wave drain before the next burst.
            yield items[per_wave // 2]

    sim.process(poller(1, 0.0003))
    sim.process(poller(2, 0.0005))
    p = sim.process(driver())
    sim.run(until_event=p)
    sim.run(until=sim.now + 2.0)
    return ops, sim


def scenario_priostack(quick: bool):
    """Deep strict-priority stacks with preemption waves.

    A 12-level priority stack of holds; a priority-0 antagonist toggles
    on and off, rippling rate changes down the stack, while a local
    scheduler-style reader queries ``free_capacity`` at every level.
    """
    rounds = 60 if quick else 200
    levels = 12
    per_level = 40
    sim = Simulator(seed=13)
    sched = FluidScheduler(sim, 48.0, name="prio")
    ops = 0

    def driver():
        nonlocal ops
        for p in range(levels):
            for i in range(per_level):
                sched.hold(demand=0.25, priority=p + 1, name=f"p{p}.{i}")
        ops += levels * per_level
        probe = 0.0
        for _ in range(rounds):
            antagonist = sched.hold(demand=48.0, priority=0, name="ant")
            ops += 1
            yield sim.timeout(0.0002)
            for p in range(levels + 1):
                probe += sched.free_capacity(priority=p)
            sched.cancel(antagonist)
            ops += 1
            yield sim.timeout(0.0002)

    p = sim.process(driver())
    sim.run(until_event=p)
    return ops, sim


def scenario_timerstorm(quick: bool):
    """Completion-timer storms: superseded timers must not bloat the heap.

    Long flows whose rates are perturbed every 100µs by capacity jitter
    — each perturbation supersedes the pending completion timer.  A
    short-lived pulse item keeps real completions interleaved.  The
    flow count is sized so each perturbation's water-fill over the
    class — not the timer traffic — is the dominant cost.
    """
    rounds = 1500 if quick else 5000
    flows = 250
    sim = Simulator(seed=17)
    sched = FluidScheduler(sim, 10.0, name="storm")
    ops = 0

    def driver():
        nonlocal ops
        for i in range(flows):
            sched.submit(work=1.0e5, demand=1.0, priority=1, name=f"f{i}")
        ops += flows
        pulse = sched.submit(work=0.002, demand=4.0, priority=0, name="pulse")
        ops += 1
        for r in range(rounds):
            sched.set_capacity(9.5 if r % 2 else 10.0)
            ops += 1
            if pulse.triggered:
                pulse = sched.submit(work=0.002, demand=4.0, priority=0,
                                     name="pulse")
                ops += 1
            yield sim.timeout(0.0001)

    p = sim.process(driver())
    sim.run(until_event=p)
    return ops, sim


def scenario_heartbeats(quick: bool):
    """The heartbeat era: 1000 machines' probe loops plus churn.

    A failure detector heartbeats a 1000-machine fleet every 2 ms while
    a rolling failure walks machines through suspected -> dead ->
    restored and a steady trickle of applications keeps arriving.  The
    virtual timeline is almost all steady state — every probe round but
    the one watching the currently-down machine answers "still fine" —
    which is exactly what the incremental control plane prices: the
    detector's watch set makes the no-news round O(down machines)
    instead of O(fleet), the machine index answers each arrival's
    placement argmax and the churn loop's eligible-machine listing
    without linear scans, and the probe/ack timers load the event
    heap.  The per-machine local schedulers and the global rebalancer
    are switched off so those subsystems' (kernel-independent) stat
    sweeps don't drown the paths under measurement.  Uses only public
    Quicksand API, so it runs unchanged on kernels that predate the
    watch set and the machine index.
    """
    from repro import (ClusterSpec, GiB, MachineSpec, Quicksand,
                       QuicksandConfig)

    machines = 250 if quick else 1000
    seconds = 0.8 if quick else 3.0
    spec = ClusterSpec(machines=[
        MachineSpec(name=f"hb{i}", cores=float(8 << (i % 4)),
                    dram_bytes=float((2 << (i % 4)) * GiB))
        for i in range(machines)])
    qs = Quicksand(spec, QuicksandConfig(enable_local_scheduler=False,
                                         enable_global_scheduler=False,
                                         enable_split_merge=False))
    qs.enable_recovery()
    sim = qs.sim
    ops = 0

    def churn():
        # One machine down at a time, held past confirmation so the
        # detector walks the full ALIVE -> SUSPECTED -> DEAD -> ALIVE
        # cycle; 37 is coprime to the fleet sizes, so failures roll
        # across the whole fleet instead of revisiting a clique.
        nonlocal ops
        k = 0
        while True:
            machine = qs.cluster.machines[(k * 37) % machines]
            qs.runtime.fail_machine(machine)
            ops += 1
            yield sim.timeout(0.012)
            qs.runtime.restore_machine(machine)
            ops += 1
            qs.eligible_machines()
            ops += 1
            k += 1
            yield sim.timeout(0.008)

    def arrivals():
        nonlocal ops
        while True:
            qs.spawn_memory()
            ops += 1
            yield sim.timeout(0.005)

    sim.process(churn())
    sim.process(arrivals())
    sim.run(until=seconds)
    return ops, sim


def scenario_thousand_machines(quick: bool):
    """Placement churn at cluster scale.

    Spawns and destroys proclets against a heterogeneous cluster (the
    capacity spread keeps the load buckets populated the way a mixed
    fleet's are) while the global scheduler rebalances on its normal
    cadence.  Prices the control-plane scan paths — placement argmax,
    eligible-machine listing, planned-demand accounting — which the
    machine index turns from O(machines) linear scans into bucketed
    lookups.  Uses only public Quicksand API, so it runs unchanged on
    kernels that predate the index.
    """
    from repro import ClusterSpec, GiB, MachineSpec, Quicksand

    machines = 250 if quick else 1000
    rounds = 24 if quick else 48
    spec = ClusterSpec(machines=[
        MachineSpec(name=f"m{i}", cores=float(8 << (i % 4)),
                    dram_bytes=float((2 << (i % 4)) * GiB))
        for i in range(machines)])
    qs = Quicksand(spec)
    sim = qs.sim
    ops = 0

    def driver():
        nonlocal ops
        live = deque()
        for _ in range(rounds):
            for _ in range(6):
                live.append(qs.spawn_memory())
                ops += 1
            for _ in range(2):
                live.append(qs.spawn_compute(parallelism=2))
                ops += 1
            while len(live) > 48:
                qs.runtime.destroy(live.popleft())
                ops += 1
            qs.eligible_machines()
            ops += 1
            yield sim.timeout(0.002)

    p = sim.process(driver())
    sim.run(until_event=p)
    return ops, sim


def scenario_serving(quick: bool):
    """Multi-tenant serving at fleet scale: the tenant-aware scheduler's
    placement rounds at 250 (quick) / 1000 (full) machines.

    Every 20 ms round re-estimates per-tenant demand, water-fills the
    cluster, scales replica fleets through normal placement, and picks
    a migration off the machine index's bucketed ratio extremes — the
    exact control-plane path the serving experiment drives at 24
    machines, here priced at datacenter scale.  The request plane is
    held CONSTANT across scales (same tenants, same rates, long
    service times), so the quick (250 machines) vs full (1000)
    events/sec ratio isolates how round cost scales with fleet size:
    bucketed queries keep it near flat, while a linear per-round fleet
    scan would collapse it ~4x.  Skipped (ImportError) on kernels
    predating the serving scenario.
    """
    from repro.apps import ServingScenario, TenantSpec, TraceSpec

    machines = 250 if quick else 1000
    seconds = 0.5 if quick else 0.8
    n_tenants = 8
    service_mean = 0.05
    # ~30% of the QUICK cluster's capacity regardless of scale: the
    # full run adds machines, not load, so wall cost differences come
    # from the control plane.
    capacity = 250 * 2.0
    rate = 0.3 * capacity / (n_tenants * service_mean)
    tenants = tuple(
        TenantSpec(name=f"t{i}",
                   trace=TraceSpec(base_rate=rate, amplitude=0.8,
                                   phase=i / n_tenants),
                   service_mean=service_mean, slo_deadline=1.0,
                   weight=2.0 if i % 2 == 0 else 1.0)
        for i in range(n_tenants))
    scenario = ServingScenario(tenants, machines=machines, cores=2.0,
                               mode="fungible", seed=29,
                               duration=seconds, warmup=0.1)
    scenario.run()
    sched = scenario.scheduler
    ops = (sum(t.offered for t in scenario.tenants) + sched.rounds
           + sched.scale_ups + sched.scale_downs + sched.migrations)
    return ops, scenario.qs.sim


class _ExecStats:
    """Adapts an exec-engine report to the (ops, sim)-shaped harness:
    merged worker kernel counters stand in for one simulator's."""

    def __init__(self, report):
        self._totals = report.kernel_totals()
        self.processed_events = self._totals["events"]

    def stats(self):
        return {
            "queued": 0,
            "dead_entries": 0,
            "compactions": self._totals["compactions"],
            "cancellations": self._totals["cancellations"],
            "tombstones_popped": self._totals["tombstones_popped"],
        }


def scenario_parallel_sweep(quick: bool):
    """A run grid fanned out through ``repro.exec``: measures the
    end-to-end events/sec of parallel execution itself — worker spawn,
    spec dispatch, result pickling — over miniature churn runs.

    Skipped (raises ImportError) on kernels that predate repro.exec;
    `--check` only gates scenarios present in the committed baseline.
    """
    from repro.exec import RunSpec, derive_seed, run_specs
    from repro.exec.tasks import kernel_churn_task

    cells = 6 if quick else 16
    rounds = 25 if quick else 50
    specs = [
        RunSpec(kernel_churn_task,
                {"seed": derive_seed(23, f"bench.cell{i}"),
                 "rounds": rounds},
                name=f"bench.cell{i}")
        for i in range(cells)
    ]
    report = run_specs(specs, jobs=2)
    return len(specs), _ExecStats(report)


SCENARIOS = {
    "churn": scenario_churn,
    "tracedchurn": scenario_tracedchurn,
    "fairshare": scenario_fairshare,
    "priostack": scenario_priostack,
    "timerstorm": scenario_timerstorm,
    "heartbeats": scenario_heartbeats,
    "thousand-machines": scenario_thousand_machines,
    "serving": scenario_serving,
    "parallel-sweep": scenario_parallel_sweep,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_scenario(name: str, quick: bool, repeat: int = 1) -> dict:
    """Run *name*, best-of-*repeat* by events/sec.

    Wall-clock on shared machines is noisy in one direction only (load
    spikes slow us down); taking the best of a few repetitions measures
    what the kernel can do, which is the stable quantity a regression
    gate needs.
    """
    fn = SCENARIOS[name]
    best = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        ops, sim = fn(quick)
        wall = time.perf_counter() - t0
        events = sim.processed_events
        result = {
            "ops": ops,
            "events": events,
            "wall_s": round(wall, 4),
            "events_per_sec": round(events / wall, 1),
            "ops_per_sec": round(ops / wall, 1),
            "heap": sim.stats(),
        }
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    return best


def run_all(quick: bool, only=None, repeat: int = 1) -> dict:
    out = {}
    for name in SCENARIOS:
        if only and name not in only:
            continue
        try:
            out[name] = run_scenario(name, quick, repeat=repeat)
        except ImportError as exc:
            # parallel-sweep needs repro.exec; older kernels (used to
            # capture "before" numbers) predate it.
            print(f"{name:14s} SKIPPED ({exc})")
            continue
        r = out[name]
        print(f"{name:14s} events={r['events']:>8d} "
              f"wall={r['wall_s']:>8.3f}s "
              f"events/s={r['events_per_sec']:>10.0f} "
              f"ops/s={r['ops_per_sec']:>9.0f} heap={r['heap']}")
    return out


def check_against(results: dict, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as fh:
        committed = json.load(fh)
    baseline = committed["after"]["quick"]
    failures = []
    for name, r in results.items():
        ref = baseline.get(name)
        if ref is None:
            continue
        floor = ref["events_per_sec"] * (1.0 - tolerance)
        if r["events_per_sec"] < floor:
            failures.append(
                f"{name}: {r['events_per_sec']:.0f} events/s < "
                f"{floor:.0f} (baseline {ref['events_per_sec']:.0f} "
                f"- {tolerance:.0%})")
    if failures:
        print("KERNEL PERF REGRESSION:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"kernel perf OK (within {tolerance:.0%} of committed baseline)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced problem sizes (CI smoke run)")
    ap.add_argument("--json", metavar="PATH",
                    help="write results as JSON to PATH")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare against committed BENCH_kernel.json")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed fractional regression for --check")
    ap.add_argument("--scenario", action="append",
                    help="run only the named scenario (repeatable)")
    ap.add_argument("--repeat", type=int, default=None,
                    help="best-of-N repetitions per scenario "
                         "(default: 3 with --check, else 1)")
    args = ap.parse_args(argv)

    if args.scenario:
        unknown = [s for s in args.scenario if s not in SCENARIOS]
        if unknown:
            ap.error(f"unknown scenario(s): {', '.join(unknown)} "
                     f"(choose from: {', '.join(SCENARIOS)})")
    if args.check and not os.path.exists(args.check):
        ap.error(f"baseline file not found: {args.check}")

    repeat = args.repeat if args.repeat is not None else (
        3 if args.check else 1)
    results = run_all(args.quick, only=args.scenario, repeat=repeat)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"quick": args.quick, "scenarios": results}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    if args.check:
        return check_against(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
