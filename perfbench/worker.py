"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, imports and
building the workload.  The simulation's steps are timed one by one,
with :func:`probe` timed before the first and after every step so the
parent can correct each step for how fast the shared host ran around
it.  TRACE=1 profiles the steps (not the probes) under cProfile and
adds the per-layer fold.  Prints one JSON object; a simulation that
raises (a chaos invariant violation included) exits non-zero.
"""

import heapq
import json
import os
import resource
import sys

# The parent's clock (system-wide, so SPAWNED compares) and toggle list.
from run import TOGGLES, now


def probe(n: int = 20000) -> float:
    """Seconds a fixed pure-Python loop takes: heap, tuple and dict work
    like the simulator's, and no repository code, so its time moves
    only with the host's speed."""
    t0 = now()
    heap, totals = [], {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        if len(heap) > 64:
            when, key = heapq.heappop(heap)
            totals[key % 97] = totals.get(key % 97, 0) + when
    return now() - t0


def main(argv) -> None:
    name, seed, trace, spawned = argv[1], int(argv[2]), argv[3] == "1", \
        float(argv[4])
    from repro.sim import kernel_totals
    from workloads import WORKLOADS

    work = WORKLOADS[name](seed)
    setup_s = now() - spawned

    profiler = None
    if trace:
        import cProfile
        profiler = cProfile.Profile()
    resume = profiler.enable if profiler else (lambda: None)
    pause = profiler.disable if profiler else (lambda: None)

    before = kernel_totals()
    step_s, probe_s = [], [probe()]
    t0 = now()
    resume()
    for _ in work.run():
        pause()
        step_s.append(now() - t0)
        probe_s.append(probe())
        t0 = now()
        resume()
    pause()
    after = kernel_totals()

    outcome = work.outcome()
    counts = {f"sim.{key}": after[key] - before.get(key, 0)
              for key in ("events", "cancellations", "tombstones_popped",
                          "compactions")}
    counts.update(outcome.counts)
    record = {
        "step_s": step_s,
        "probe_s": probe_s,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "modelled": [vars(m) for m in outcome.modelled],
        "checks": outcome.checks,
        "counts": counts,
        "digest": outcome.digest,
        "toggles": {key: os.environ.get(key) for key in TOGGLES},
    }
    if profiler is not None:
        import pstats

        import repro
        from layers import LayerFolder
        folder = LayerFolder(os.path.dirname(repro.__file__))
        record["layers"] = folder.fold(pstats.Stats(profiler).stats)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv)
