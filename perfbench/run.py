"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper|serving|chaos --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every iteration is a fresh
single-threaded interpreter (``perfbench/worker.py``) with the kernel
toggles cleared; iterations repeat until the next one would end past
``--seconds`` (at least three, or one traced/untraced pair).

``--trace 0`` reports the host metrics.  Both times are corrected for
the shared host, whose speed swings by up to 2x within seconds: a time
is scaled by the idle-host time of a fixed reference loop
(``worker.probe``) over the loop's time measured next to it.
``wall_s`` sums, over the simulation's steps, each step's fastest
corrected time across iterations; ``setup_s`` and ``peak_rss_mb`` are
medians over iterations.  ``--trace 1`` alternates untraced and
cProfile-traced iterations and reports the per-layer fold of the median
traced iteration, the tracing overhead and the deterministic counts.  An iteration fails when it
raises, breaks a golden-shape check, or its digest, counts or modelled
metrics differ from the first iteration's.  The last line printed is
the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper", "serving", "chaos")
TOGGLES = ("REPRO_TIMER_WHEEL", "REPRO_VECTOR_FLUID")
MIN_ITERATIONS = 3
#: Every run must end within 180 s; no single worker may take longer.
WORKER_TIMEOUT = 150
#: worker.probe's time on an idle host (a 2.1 GHz Xeon vCPU), so that
#: corrected times are in seconds at that host's full speed.
PROBE_REF_S = 0.0125

HOST_METRICS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
COUNT_METRICS = (
    "sim.events", "sim.cancellations", "sim.tombstones_popped",
    "sim.compactions", "runtime.migrations", "runtime.migrations_retried",
    "runtime.migrations_failed", "autoscale.splits", "autoscale.merges",
    "autoscale.aborts", "ft.recoveries", "ft.call_retries",
    "chaos.invariant_checks", "chaos.lost_calls", "apps.offered",
    "apps.rejected")


def layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.share", "fraction"),
                (f"{layer}.calls", "count")]
    out.append(("trace.overhead", "x"))
    out += [(name, "count") for name in COUNT_METRICS]
    return out


def now() -> float:
    # System-wide on Linux, so a worker's reading compares with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    # Bytecode caching on, as for any user: set-up then times imports,
    # not compiling the package.
    env = {k: v for k, v in os.environ.items()
           if k not in TOGGLES + ("PYTHONDONTWRITEBYTECODE",)}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def iterate(workload: str, seed: int, trace: bool):
    """One worker process: (record, None) or (None, error text)."""
    spawned = now()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), "1" if trace else "0", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"worker exited {proc.returncode}: " + " | ".join(tail)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = trace
    record["wall_s"] = sum(scaled_steps(record))
    record["setup_corrected_s"] = \
        record["setup_s"] * PROBE_REF_S / record["probe_s"][0]
    return record, None


def scaled_steps(record: dict):
    """Each step's seconds at idle-host speed: scaled by the reference
    probe's idle time over its mean time just before and after it."""
    probes = record["probe_s"]
    return [step * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, step in enumerate(record["step_s"])]


def verdict(record: dict, first: dict):
    """Why *record* fails, or None."""
    broken = [name for name, held, _detail in record["checks"] if not held]
    if broken:
        return "golden shape broken: " + "; ".join(broken)
    if any(record["toggles"].values()):
        return f"kernel toggle leaked into the worker: {record['toggles']}"
    for key in ("digest", "counts", "modelled"):
        if record[key] != first[key]:
            return f"{key} differs from the first iteration (nondeterminism)"
    return None


def pinned_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def median_record(records):
    ordered = sorted(records, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def report_modelled(first: dict) -> None:
    for m in first["modelled"]:
        line = (f"model  {m['name']:28s} {m['value']:12.6g} {m['unit']:8s} "
                f"paper: {m['paper']}")
        if m["reference"]:
            err = (m["value"] - m["reference"]) / m["reference"]
            line += f"  error {err:+.2%}"
        print(line)
    for name, held, detail in first["checks"]:
        print(f"check  {'ok  ' if held else 'FAIL'} {name} ({detail})")


def host_metrics(records) -> dict:
    steps = zip(*(scaled_steps(r) for r in records))
    values = {"wall_s": sum(min(step) for step in steps)}
    print(f"host   wall_s      {values['wall_s']:10.4f} s   fastest of "
          f"{len(records)} per step; iteration totals "
          + " ".join(f"{r['wall_s']:.4f}" for r in records)
          + "; uncorrected " + " ".join(f"{sum(r['step_s']):.4f}"
                                        for r in records))
    for name, key in (("setup_s", "setup_corrected_s"),
                      ("peak_rss_mb", "peak_rss_mb")):
        seen = [r[key] for r in records]
        values[name] = statistics.median(seen)
        print(f"host   {name:12s}{values[name]:10.4f}     median of "
              f"{len(seen)}: " + " ".join(f"{v:.4f}" for v in seen))
    print("host   setup_s uncorrected "
          + " ".join(f"{r['setup_s']:.4f}" for r in records))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in HOST_METRICS}


def traced_metrics(records) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    rep = median_record(traced)
    total = sum(row["self_s"] for row in rep["layers"].values())
    values = {}
    print(f"{'layer':16s} {'self_s':>9s} {'share':>7s} {'calls':>10s}")
    for layer, row in rep["layers"].items():
        share = row["self_s"] / total
        values.update({f"{layer}.self_s": row["self_s"],
                       f"{layer}.share": share,
                       f"{layer}.calls": row["calls"]})
        print(f"{layer:16s} {row['self_s']:9.4f} {share:7.2%} "
              f"{row['calls']:10d}")
    untraced = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead"] = rep["wall_s"] / untraced
    print(f"tracing overhead: traced wall {rep['wall_s']:.4f} s / untraced "
          f"{untraced:.4f} s = {values['trace.overhead']:.3f}x")
    for name in COUNT_METRICS:
        values[name] = rep["counts"].get(name, 0)
        print(f"count  {name:26s} {values[name]}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_metrics()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2

    inherited = {k: os.environ.get(k, "unset") for k in TOGGLES}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"env    python {platform.python_version()}, nproc "
          f"{os.cpu_count()}, inherited "
          + " ".join(f"{k}={v}" for k, v in inherited.items())
          + " (cleared for every worker)")

    modes = [False, True] if args.trace else [False]
    start = now()
    records, attempted, failed = [], 0, 0
    while True:
        for trace in modes:
            attempted += 1
            record, error = iterate(args.workload, args.seed, trace)
            if record is not None:
                error = verdict(record, records[0] if records else record)
            if error is not None:
                failed += 1
                print(f"FAILED iteration {attempted}: {error}")
            else:
                records.append(record)
            if record is None:
                break  # the program crashed: nothing left to time
        if record is None:
            break
        rounds = attempted // len(modes)
        elapsed = now() - start
        if rounds * len(modes) >= MIN_ITERATIONS or args.trace:
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
    if not records or (args.trace and not all(
            any(r["traced"] is t for r in records) for t in modes)):
        print("perfbench: no successful iteration to report",
              file=sys.stderr)
        return 1

    first = records[0]
    report_modelled(first)
    pinned = pinned_digest(args.workload, args.seed)
    status = ("unpinned" if pinned is None else
              "match" if pinned == first["digest"] else f"DIFF (pinned {pinned})")
    print(f"digest {first['digest']} pinned: {status}")
    metrics = (traced_metrics(records) if args.trace
               else host_metrics(records))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
