"""SERVING — multi-tenant SLO conformance, fungible vs static carve-up.

The paper's §1 pitch as a head-to-head: the same tenant population
(staggered diurnal traces, reservation mismatch, seeded bursts — see
:func:`repro.apps.serving.default_tenants`) runs once on a fungible
Quicksand cluster under the tenant-aware serving scheduler and once on
a statically partitioned cluster sized by reservation weight.  Every
``mode x seed`` grid cell goes through :mod:`repro.exec`, so the grid
is cacheable, parallelizable, and digest-deterministic: ``--jobs 4``
and ``--jobs 1`` must produce bit-identical cells, which CI pins.

Figure shape (printed by :func:`report`): per-mode goodput, p99/p999
response time, cluster utilization, and the fungible:static goodput
ratio — the golden tests pin that ratio >= 1.3 at equal p99 SLO.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..units import MS
from .common import fmt_table

DEFAULT_MACHINES = 24
DEFAULT_CORES = 2.0
DEFAULT_TENANTS = 8
DEFAULT_DURATION = 2.0
DEFAULT_WARMUP = 0.25
DEFAULT_SEEDS = (0, 1, 2)
MODES = ("fungible", "static")
#: The headline claim the golden suite pins: fungible goodput is at
#: least this multiple of the static baseline on the canonical grid.
GOODPUT_RATIO_FLOOR = 1.3


def run_serving_cell(mode: str, seed: int,
                     machines: int = DEFAULT_MACHINES,
                     cores: float = DEFAULT_CORES,
                     tenants: Optional[Tuple] = None,
                     n_tenants: int = DEFAULT_TENANTS,
                     duration: float = DEFAULT_DURATION,
                     warmup: float = DEFAULT_WARMUP) -> Dict:
    """One grid cell as a picklable, cacheable task (see ``repro.exec``).

    Returns plain data (per-tenant and cluster-level goodput/latency)
    so results hash canonically and survive the worker boundary.
    """
    from ..apps.serving import ServingScenario, default_tenants

    if tenants is None:
        tenants = default_tenants(n_tenants)
    scenario = ServingScenario(tenants, machines=machines, cores=cores,
                               mode=mode, seed=seed, duration=duration,
                               warmup=warmup)
    scenario.run()
    r = scenario.results()
    starved = scenario.check_no_starvation()
    return {
        "cell": f"serving.{mode}.seed={seed}",
        "mode": mode,
        "seed": seed,
        "machines": machines,
        "offered": r["offered"],
        "slo_ok": r["slo_ok"],
        "goodput": r["goodput"],
        "p99": r["p99"],
        "p999": r["p999"],
        "utilization": r["utilization"],
        "migrations": r["migrations"],
        "scale_ups": r["scale_ups"],
        "scale_downs": r["scale_downs"],
        "starvation_violations": starved,
        "tenants": [
            {"tenant": s["tenant"], "goodput": s["goodput"],
             "p99": s["p99"], "rejected": s["rejected"],
             "replicas": s["replicas"]}
            for s in r["tenants"]
        ],
    }


def build_specs(seeds: Sequence[int] = DEFAULT_SEEDS,
                machines: int = DEFAULT_MACHINES,
                cores: float = DEFAULT_CORES,
                n_tenants: int = DEFAULT_TENANTS,
                duration: float = DEFAULT_DURATION,
                warmup: float = DEFAULT_WARMUP, seed: int = 0) -> list:
    """RunSpecs for the mode x seed grid.

    Per-cell seeds come from named streams keyed on the cell's
    coordinates — independent of grid order and of which worker runs
    the cell, so serial and parallel runs are bit-identical.  Both
    modes of one seed share the derived seed (same cluster, same
    traces); only the resource model differs.
    """
    from ..exec import RunSpec, derive_seed

    specs = []
    for s in seeds:
        cell_seed = derive_seed(seed, f"serving.seed={s}")
        for mode in MODES:
            specs.append(RunSpec(run_serving_cell, {
                "mode": mode,
                "seed": cell_seed,
                "machines": machines,
                "cores": cores,
                "n_tenants": n_tenants,
                "duration": duration,
                "warmup": warmup,
            }, name=f"serving.{mode}.seed={s}"))
    return specs


def by_mode(cells: List[Dict]) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = {mode: [] for mode in MODES}
    for cell in cells:
        out[cell["mode"]].append(cell)
    return out


def goodput_ratio(cells: List[Dict]) -> float:
    """Mean fungible goodput over mean static goodput (the headline)."""
    split = by_mode(cells)
    if not split["fungible"] or not split["static"]:
        raise ValueError("need cells from both modes")
    fung = sum(c["goodput"] for c in split["fungible"]) \
        / len(split["fungible"])
    stat = sum(c["goodput"] for c in split["static"]) \
        / len(split["static"])
    return fung / stat if stat > 0 else float("inf")


def cells_digest(cells: List[Dict]) -> str:
    """Deterministic digest of the grid results (CI pins serial ==
    parallel with this)."""
    from ..exec.spec import canonical

    blob = repr(canonical(cells)).encode()
    return hashlib.sha256(blob).hexdigest()


def report(cells: List[Dict]) -> str:
    rows = []
    for cell in cells:
        rows.append((
            cell["mode"], cell["seed"] & 0xFFFF, cell["offered"],
            f"{cell['goodput']:.3f}",
            f"{cell['p99'] / MS:.1f}", f"{cell['p999'] / MS:.1f}",
            f"{cell['utilization']:.2f}",
            cell["migrations"], cell["scale_ups"],
            len(cell["starvation_violations"]),
        ))
    table = fmt_table(
        ["mode", "seed", "offered", "goodput", "p99 [ms]", "p999 [ms]",
         "util", "migr", "scale+", "starved"],
        rows,
    )
    ratio = goodput_ratio(cells)
    split = by_mode(cells)
    fung_p99 = max(c["p99"] for c in split["fungible"])
    stat_p99 = max(c["p99"] for c in split["static"])
    verdict = ("PASS" if ratio >= GOODPUT_RATIO_FLOOR else
               f"BELOW the {GOODPUT_RATIO_FLOOR:g}x floor")
    return "\n".join([
        "SERVING — multi-tenant SLO conformance, fungible Quicksand vs "
        "static VM carve-up:",
        table,
        f"goodput ratio (fungible/static): {ratio:.3f} [{verdict}]; "
        f"worst p99 fungible {fung_p99 / MS:.1f} ms vs static "
        f"{stat_p99 / MS:.1f} ms",
    ])
