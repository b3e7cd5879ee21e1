"""CLONING — request cloning vs load, pinned to the PS closed form.

The tail-latency half of the utilization argument: a fleet of one-core
PS servers running :class:`repro.apps.CloneService`, swept over an
arrival-rate x clone-factor x seed grid for two service-time
distributions (exponential, and a high-variance hyperexponential where
cloning shines).  Every cell is differentially compared against the
closed-form M/G/1-PS cloning prediction from
:mod:`repro.hedge.oracle` — agreement between the simulated fleet and
an independently derived formula is the correctness guarantee, enforced
in CI the same way the chaos water-fill oracle is.

Figure shape (printed by :func:`report`): mean and p99 response time vs
per-server load for clone factors 1/2/3.  Under exponential service
times cloning helps outright (min-of-c collapses the mean); under
deterministic service times it can only hurt — both shapes fall out of
the same formula.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster, symmetric_cluster
from ..hedge.oracle import (Exponential, HyperExp, ServiceDist,
                            clone_mean_response, clone_utilization,
                            compare_cells, tolerance_for)
from ..units import MS, MiB
from .common import fmt_table
# One grid digest for every experiment (CI pins serial == parallel).
from .serving import cells_digest  # noqa: F401

#: Canonical grid: six one-core servers so clone factors 1/2/3 all
#: divide the fleet, 1 ms mean service time either exponential or
#: hyperexponential (90% fast at 0.5 ms, 10% slow at 5.5 ms — same
#: mean, squared CV ~= 8).
DEFAULT_SERVERS = 6
DEFAULT_LOADS = (0.3, 0.5, 0.7)
DEFAULT_CLONES = (1, 2, 3)
DIST_EXP = Exponential(mean=1 * MS)
DIST_HYPER = HyperExp(p=0.9, mean_fast=0.5 * MS, mean_slow=5.5 * MS)
DEFAULT_DURATION = 6.0
DEFAULT_WARMUP = 0.5


def run_cell(load: float, clone_factor: int, dist: ServiceDist,
             seed: int, servers: int = DEFAULT_SERVERS,
             duration: float = DEFAULT_DURATION,
             warmup: float = DEFAULT_WARMUP) -> Dict:
    """One grid cell as a picklable, cacheable task (see ``repro.exec``).

    *load* is the per-server utilization the *un-cloned* system would
    run at; the arrival rate is ``load * servers / E[S]`` so a row of
    clone factors shares one arrival process and the cloning cost shows
    up as the predicted utilization shift.  Returns plain data (plus
    the closed-form prediction and its tolerance band) so results hash
    canonically and survive the worker boundary.
    """
    from ..apps import CloneService

    dist_mean = dist.mean
    arrival_rate = load * servers / dist_mean
    cluster = Cluster(symmetric_cluster(servers, cores=1,
                                        dram_bytes=256 * MiB, seed=seed))
    service = CloneService(cluster.machines, arrival_rate, dist,
                           clone_factor=clone_factor, name="cloning")
    service.start()
    cluster.run(until=duration)
    summary = service.latency_summary(since=warmup)
    rho = clone_utilization(arrival_rate, servers, clone_factor, dist)
    predicted = clone_mean_response(arrival_rate, servers, clone_factor,
                                    dist)
    return {
        "cell": f"{dist.label}.load={load:g}.c={clone_factor}.seed={seed}",
        "dist": dist.label,
        "load": load,
        "clone_factor": clone_factor,
        "seed": seed,
        "rho": rho,
        "requests": summary.count,
        "mean": summary.mean,
        "p50": summary.p50,
        "p99": summary.p99,
        "predicted": predicted,
        "tolerance": tolerance_for(rho, summary.count,
                                   dist.scv_min_of(clone_factor)),
        "clones_launched": service.clones_launched,
        "clones_cancelled": service.clones_cancelled,
        "failed_requests": service.failed_requests,
    }


def build_specs(loads=DEFAULT_LOADS, clones=DEFAULT_CLONES,
                dists: Tuple[ServiceDist, ...] = (DIST_EXP, DIST_HYPER),
                seeds=(0,), servers: int = DEFAULT_SERVERS,
                duration: float = DEFAULT_DURATION,
                warmup: float = DEFAULT_WARMUP, seed: int = 0) -> list:
    """RunSpecs for the cloning grid.

    Per-cell seeds come from named streams keyed on the cell's
    coordinates — independent of grid order and of which worker runs
    the cell, so serial and parallel runs are bit-identical.

    High-variance cells run 4x longer: a cell whose effective
    (min-of-c) service SCV exceeds 2 converges ~sqrt(scv) slower, so it
    gets proportionally more virtual time to stay inside the same
    relative tolerance (calibration in docs/cloning.md)."""
    from ..exec import RunSpec, derive_seed

    specs = []
    for dist in dists:
        for load in loads:
            for c in clones:
                cell_duration = duration * (4.0 if dist.scv_min_of(c) > 2.0
                                            else 1.0)
                for s in seeds:
                    stream = (f"cloning.{dist.label}.load={load!r}"
                              f".c={c}.seed={s}")
                    specs.append(RunSpec(run_cell, {
                        "load": load,
                        "clone_factor": c,
                        "dist": dist,
                        "seed": derive_seed(seed, stream),
                        "servers": servers,
                        "duration": cell_duration,
                        "warmup": warmup,
                    }, name=stream))
    return specs


def differential(cells: List[Dict]):
    """Diff every simulated cell against the closed form; returns the
    list of :class:`repro.hedge.CloneDivergence` (empty = pass)."""
    return compare_cells(cells)


def report(cells: List[Dict]) -> str:
    rows = []
    for cell in cells:
        err = (abs(cell["mean"] - cell["predicted"]) / cell["predicted"]
               if cell["predicted"] > 0 else float("inf"))
        rows.append((
            cell["dist"], f"{cell['load']:g}", cell["clone_factor"],
            f"{cell['rho']:.2f}", cell["requests"],
            f"{cell['mean'] / MS:.3f}", f"{cell['predicted'] / MS:.3f}",
            f"{err:.1%}", f"{cell['tolerance']:.0%}",
            f"{cell['p99'] / MS:.2f}",
        ))
    table = fmt_table(
        ["service dist", "load", "c", "rho", "requests", "mean [ms]",
         "oracle [ms]", "err", "tol", "p99 [ms]"],
        rows,
    )
    divergences = differential(cells)
    verdict = ("all cells within the oracle's band" if not divergences
               else "\n".join(str(d) for d in divergences))
    return "\n".join([
        f"CLONING — response time vs load for clone factors, "
        f"{DEFAULT_SERVERS} one-core PS servers:",
        table,
        f"differential vs closed-form M/G/1-PS cloning oracle: {verdict}",
    ])
