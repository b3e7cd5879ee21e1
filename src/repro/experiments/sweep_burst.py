"""EXT-SWEEP — where does millisecond fungibility stop paying?

An extension experiment beyond the paper's figures, probing its central
quantitative claim: "make use of resources even if they are transiently
available on a server for *only a few milliseconds*."

We sweep the phased antagonist's burst period from sub-millisecond to
tens of milliseconds and measure the fungible filler's goodput.  With
~0.2 ms migrations, harvesting pays for periods comfortably above the
migration time and collapses toward the static baseline as the idle
windows approach the migration latency — the crossover the paper's
mechanism implies but never plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..apps import FillerApp, PhasedApp
from ..cluster import ClusterSpec, MachineSpec
from ..core import Quicksand, QuicksandConfig
from ..units import GiB, MS, US
from .common import fmt_table

DEFAULT_BURSTS = (0.5 * MS, 1 * MS, 2 * MS, 5 * MS, 10 * MS, 20 * MS)


@dataclass
class SweepPoint:
    burst: float
    fungible_goodput_cores: float
    static_goodput_cores: float
    migrations: int

    @property
    def gain(self) -> float:
        return (self.fungible_goodput_cores
                / max(self.static_goodput_cores, 1e-9))


def _run_one(burst: float, fungible: bool, duration: float,
             seed: int = 0) -> tuple:
    spec = ClusterSpec(machines=[
        MachineSpec(name="m0", cores=8, dram_bytes=2 * GiB),
        MachineSpec(name="m1", cores=8, dram_bytes=2 * GiB),
    ], seed=seed)
    qs = Quicksand(spec, config=QuicksandConfig(
        enable_local_scheduler=fungible,
        enable_global_scheduler=False,
        enable_split_merge=False,
        # React well within one idle window, whatever its size.
        starvation_patience=max(50 * US, burst / 50.0),
        migration_cooldown=max(200 * US, burst / 10.0),
    ))
    m0, m1 = qs.machines
    PhasedApp(m0, burst=burst, idle=burst).start()
    PhasedApp(m1, burst=burst, idle=burst, phase_offset=burst).start()
    filler = FillerApp(qs, proclets=8, work_unit=min(100 * US, burst / 20),
                       machine=m1)
    warmup = 2 * burst
    qs.run(until=warmup)
    t0 = qs.sim.now
    qs.run(until=t0 + duration)
    return filler.goodput_cores(t0, qs.sim.now), filler.total_migrations()


def run_cell(burst: float, fungible: bool, duration: float,
             seed: int) -> Dict[str, float]:
    """One grid cell as a picklable, cacheable task (see ``repro.exec``).

    Returns plain data so results hash canonically and survive the
    worker boundary; :func:`points_from_cells` reassembles them into
    :class:`SweepPoint` rows."""
    goodput, migrations = _run_one(burst, fungible, duration, seed)
    return {"burst": burst, "fungible": bool(fungible),
            "goodput_cores": goodput, "migrations": migrations}


def build_specs(bursts: List[float] = DEFAULT_BURSTS,
                periods_per_run: int = 12, seed: int = 0) -> list:
    """RunSpecs for the sweep grid, two cells (fungible/static) per
    burst period.  Per-cell seeds are derived from named streams, so a
    cell's seed depends only on its coordinates — not on grid order or
    on which worker executes it."""
    from ..exec import RunSpec, derive_seed

    specs = []
    for burst in bursts:
        duration = max(40 * MS, periods_per_run * 2 * burst)
        for fungible in (True, False):
            mode = "fungible" if fungible else "static"
            stream = f"sweep.burst={burst!r}.{mode}"
            specs.append(RunSpec(run_cell, {
                "burst": burst,
                "fungible": fungible,
                "duration": duration,
                "seed": derive_seed(seed, stream),
            }, name=stream))
    return specs


def points_from_cells(cells: List[Dict[str, float]]) -> List[SweepPoint]:
    """Pair up fungible/static cells (in grid order) into SweepPoints."""
    by_key = {(c["burst"], c["fungible"]): c for c in cells}
    bursts = []
    for cell in cells:
        if cell["burst"] not in bursts:
            bursts.append(cell["burst"])
    return [
        SweepPoint(
            burst=burst,
            fungible_goodput_cores=by_key[(burst, True)]["goodput_cores"],
            static_goodput_cores=by_key[(burst, False)]["goodput_cores"],
            migrations=by_key[(burst, True)]["migrations"],
        )
        for burst in bursts
    ]


def report(points: List[SweepPoint]) -> str:
    rows = [(f"{p.burst * 1e3:g}", f"{p.fungible_goodput_cores:.2f}",
             f"{p.static_goodput_cores:.2f}", f"{p.gain:.2f}x",
             p.migrations)
            for p in points]
    table = fmt_table(
        ["burst [ms]", "fungible [cores]", "static [cores]", "gain",
         "migrations"],
        rows,
    )
    return "\n".join([
        "EXT-SWEEP — filler goodput vs burst period (8-core machines,",
        "~0.2 ms migrations):",
        table,
        "expected shape: gain ~2x for bursts >> migration latency,",
        "degrading toward 1x as idle windows shrink to the migration time",
    ])
