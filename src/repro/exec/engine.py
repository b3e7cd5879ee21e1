"""The run-execution engine: cached, parallel fan-out of RunSpecs.

``run_specs`` executes a list of independent :class:`RunSpec`\\ s and
returns their results **in spec order**, regardless of which worker
finished first — so ``--jobs 1`` and ``--jobs N`` produce identical
result lists (and identical :func:`results_digest` values; CI diffs
them).  Each run is deterministic given its kwargs, executes in its own
interpreter when parallel (no shared simulator state), and per-run
seeds come from named streams (:func:`repro.exec.spec.derive_seed`),
never from execution order.

When a :class:`~repro.exec.cache.ResultCache` is supplied, already
computed points are served from disk and only the misses are submitted
to the pool — a warm cache on an unchanged grid re-runs nothing.

Workers also ship back a delta of the process-wide kernel counters
(:func:`repro.sim.kernel_totals`), so the parent can report how much
simulation happened per run; :meth:`ExecReport.stats` sums them in spec
order, not last-writer-wins, for
:meth:`repro.metrics.MetricsRecorder.record_stats`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from .cache import ResultCache
from .spec import RunSpec, canonical

#: Kernel counter names shipped from workers (stable order for merging).
KERNEL_KEYS = ("events", "cancellations", "tombstones_popped",
               "compactions")


def results_digest(values: Iterable[Any]) -> str:
    """sha256 over the canonical serialization of a result list.

    The serial-vs-parallel acceptance check: two executions of the same
    grid must produce the same digest bit-for-bit.
    """
    h = hashlib.sha256()
    for value in values:
        h.update(canonical(value).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class RunResult:
    """Outcome of one spec: its value plus execution metadata.

    ``kernel`` is the delta of the executing process's kernel counters
    across the run (all zeros for cache hits — no simulation ran)."""

    index: int
    spec: RunSpec
    value: Any
    cached: bool
    wall_s: float
    kernel: Dict[str, int] = field(default_factory=dict)


@dataclass
class ExecReport:
    """Everything ``run_specs`` learned about one grid execution."""

    results: List[RunResult]
    jobs: int
    wall_s: float
    hits: int
    misses: int

    def values(self) -> List[Any]:
        return [r.value for r in self.results]

    def digest(self) -> str:
        return results_digest(self.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def kernel_totals(self) -> Dict[str, int]:
        """Per-run kernel counters summed in spec order (deterministic
        regardless of completion order)."""
        totals = {k: 0 for k in KERNEL_KEYS}
        for r in self.results:
            for k in KERNEL_KEYS:
                totals[k] += int(r.kernel.get(k, 0))
        return totals

    def stats(self) -> Dict[str, float]:
        """Run, cache and wall-time totals plus one ``kernel.<counter>``
        entry per merged kernel counter."""
        out: Dict[str, float] = {
            "runs": len(self.results),
            "hits": self.hits,
            "misses": self.misses,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
        }
        for key, value in self.kernel_totals().items():
            out[f"kernel.{key}"] = value
        return out

    def summary(self) -> str:
        k = self.kernel_totals()
        return (f"exec: {len(self.results)} runs, jobs={self.jobs}, "
                f"wall={self.wall_s:.2f}s, cache {self.hits} hit / "
                f"{self.misses} miss, kernel events={k['events']}")


def _invoke(spec: RunSpec):
    """Run one spec, measuring wall time and kernel counter deltas.

    Module-level so it pickles by reference into worker processes."""
    from ..sim import kernel_totals

    before = kernel_totals()
    t0 = time.perf_counter()
    value = spec.call()
    wall = time.perf_counter() - t0
    after = kernel_totals()
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in KERNEL_KEYS}
    return value, delta, wall


def _pool_task(item):
    index, spec = item
    value, delta, wall = _invoke(spec)
    return index, value, delta, wall


def _mp_context():
    """Prefer fork (cheap, works with __main__-defined grids); fall back
    to the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


def run_specs(specs: List[RunSpec], jobs: int = 1,
              cache: Optional[Union[ResultCache, str]] = None) -> ExecReport:
    """Execute *specs*, fanning misses out over *jobs* worker processes.

    Returns an :class:`ExecReport` whose ``results`` are ordered exactly
    like *specs*.  ``cache`` may be a :class:`ResultCache` or a
    directory path (constructed on the fly); ``None`` disables caching.
    Exceptions raised by a run propagate (identically for serial and
    parallel execution) — a grid is not allowed to half-fail silently.
    """
    specs = list(specs)
    if isinstance(cache, str):
        cache = ResultCache(cache)
    jobs = max(1, int(jobs))
    t_start = time.perf_counter()

    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * len(specs)
    hits = 0
    for i, spec in enumerate(specs):
        if cache is not None:
            key = keys[i] = spec.digest(cache.version)
            hit, value = cache.lookup(key)
            if hit:
                hits += 1
                results[i] = RunResult(index=i, spec=spec, value=value,
                                       cached=True, wall_s=0.0,
                                       kernel={k: 0 for k in KERNEL_KEYS})
                continue
        pending.append(i)

    if pending:
        if jobs == 1 or len(pending) == 1:
            for i in pending:
                value, delta, wall = _invoke(specs[i])
                results[i] = RunResult(index=i, spec=specs[i], value=value,
                                       cached=False, wall_s=wall,
                                       kernel=delta)
        else:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending)),
                    mp_context=_mp_context()) as pool:
                futures = [pool.submit(_pool_task, (i, specs[i]))
                           for i in pending]
                for fut in futures:
                    i, value, delta, wall = fut.result()
                    results[i] = RunResult(index=i, spec=specs[i],
                                           value=value, cached=False,
                                           wall_s=wall, kernel=delta)
        if cache is not None:
            for i in pending:
                cache.put(keys[i], results[i].value)

    return ExecReport(results=results, jobs=jobs,
                      wall_s=time.perf_counter() - t_start,
                      hits=hits, misses=len(pending))
