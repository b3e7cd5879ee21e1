"""EXEC benchmark: parallel fan-out speedup of the sweep grid.

``python benchmarks/bench_exec.py`` measures the sweep wall time at
--jobs 1 vs --jobs 4 (reps interleaved so machine-load drift hits both
settings equally) and writes ``BENCH_exec.json`` with the core count
and methodology alongside the numbers.  The >= 2.5x speedup bar only
applies on machines with >= 4 cores; below 2 cores no speedup verdict
is recorded at all — only wall times and digest equality.  The warm
cache and the serial/parallel equivalence on a sweep grid are checked
by ``tests/exec/test_sweep_grid.py``.
"""

import json
import os
import time

from repro.exec import run_specs
from repro.experiments.sweep_burst import DEFAULT_BURSTS, build_specs


def main() -> None:  # pragma: no cover - measurement entry point
    cores = os.cpu_count() or 1
    specs = build_specs(periods_per_run=12)
    out = {
        "cores": cores,
        "bursts_ms": [b * 1e3 for b in DEFAULT_BURSTS],
        "methodology": (
            "3 reps per jobs setting, interleaved (1,4,1,4,...) so load "
            "drift hits both equally; wall_s is best-of-3; speedup verdict "
            "skipped when cores < 2 (a single-core box cannot measure "
            "parallel speedup, only digest equality)"),
    }
    best = {1: float("inf"), 4: float("inf")}
    digest = {}
    for _ in range(3):
        for jobs in (1, 4):
            t0 = time.perf_counter()
            rep = run_specs(specs, jobs=jobs)
            best[jobs] = min(best[jobs], time.perf_counter() - t0)
            digest[jobs] = rep.digest()
    for jobs in (1, 4):
        out[f"jobs{jobs}_wall_s"] = round(best[jobs], 3)
        out[f"jobs{jobs}_digest"] = digest[jobs]
        print(f"jobs={jobs}: {best[jobs]:.2f}s  digest={digest[jobs][:16]}…")
    assert out["jobs1_digest"] == out["jobs4_digest"], \
        "parallel sweep diverged from serial"
    if cores < 2:
        out["speedup"] = None
        out["speedup_verdict"] = f"skipped: {cores} core(s) < 2"
        print(f"(speedup verdict skipped on {cores} core(s): wall times "
              "recorded, digests checked)")
    else:
        out["speedup"] = round(out["jobs1_wall_s"] / out["jobs4_wall_s"], 2)
        print(f"speedup: {out['speedup']}x on {cores} cores")
        if cores >= 4:
            assert out["speedup"] >= 2.5, \
                f"expected >=2.5x on {cores} cores, got {out['speedup']}x"
            out["speedup_verdict"] = "ok (>=2.5x bar on >=4 cores)"
        else:
            out["speedup_verdict"] = (
                f"recorded as-is ({cores} cores: 2.5x bar needs >=4)")
    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_exec.json")
    with open(os.path.abspath(path), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(path)}")


if __name__ == "__main__":  # pragma: no cover
    main()
