"""FIG1 — reproduce Figure 1: millisecond-granularity work migration.

Two machines each run a phased HIGH-priority app (10 ms all-cores burst,
10 ms idle), anti-phased so exactly one machine is busy at any instant.
A fungible filler app of small compute proclets migrates to whichever
machine is idle; a static filler (migration disabled) is the classic-
cloud baseline that can only ever use one machine's idle half.

Paper claims reproduced:
* the filler migrates between machines in **under 1 ms**;
* rapid migration harvests both machines' idle windows, roughly
  **doubling goodput** over the static placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..apps import FillerApp, PhasedApp
from ..cluster import ClusterSpec, MachineSpec
from ..core import Quicksand, QuicksandConfig
from ..metrics import Summary
from ..units import GiB, MS, US
from .common import fmt_series, fmt_table


@dataclass(frozen=True)
class Fig1Config:
    """Parameters of the Fig. 1 experiment."""

    cores: float = 8.0
    dram_bytes: float = 4 * GiB
    burst: float = 10 * MS
    filler_proclets: int = 8
    work_unit: float = 100 * US
    warmup: float = 20 * MS
    duration: float = 200 * MS
    fungible: bool = True
    seed: int = 0


@dataclass
class Fig1Result:
    """Measurements of one Fig. 1 run."""

    config: Fig1Config
    mean_goodput_cores: float
    goodput_timeline: List[Tuple[float, float]] = field(repr=False,
                                                        default_factory=list)
    migrations: int = 0
    migration_latency: Summary = field(default_factory=lambda: Summary.of([]))
    units_done: float = 0.0

    @property
    def goodput_fraction_of_one_machine(self) -> float:
        return self.mean_goodput_cores / self.config.cores


def run_fig1(config: Fig1Config = Fig1Config()) -> Fig1Result:
    """Run one Fig. 1 configuration (fungible or static)."""
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="m0", cores=config.cores,
                        dram_bytes=config.dram_bytes),
            MachineSpec(name="m1", cores=config.cores,
                        dram_bytes=config.dram_bytes),
        ],
        seed=config.seed,
    )
    qs_config = QuicksandConfig(
        enable_local_scheduler=config.fungible,
        enable_global_scheduler=False,
        enable_split_merge=False,
    )
    qs = Quicksand(spec, config=qs_config)
    m0, m1 = qs.machines

    # Anti-phased antagonists: m0 bursts on [0,10), m1 on [10,20), ...
    PhasedApp(m0, burst=config.burst, idle=config.burst,
              phase_offset=0.0).start()
    PhasedApp(m1, burst=config.burst, idle=config.burst,
              phase_offset=config.burst).start()

    # The filler starts on the machine that is idle first (m1).
    filler = FillerApp(qs, proclets=config.filler_proclets,
                       work_unit=config.work_unit, machine=m1)

    qs.run(until=config.warmup)
    t0 = qs.sim.now
    qs.run(until=t0 + config.duration)
    t1 = qs.sim.now

    return Fig1Result(
        config=config,
        mean_goodput_cores=filler.goodput_cores(t0, t1),
        goodput_timeline=filler.goodput_timeline(t0, t1, bucket=1 * MS),
        migrations=filler.total_migrations(),
        migration_latency=Summary.of(
            qs.metrics.samples("runtime.migration.latency")),
        units_done=filler.units_done,
    )


def report(fungible: Fig1Result, static: Fig1Result) -> str:
    """Paper-comparable summary of the Fig. 1 reproduction."""
    rows = [
        ("fungible (Quicksand)",
         f"{fungible.mean_goodput_cores:.2f}",
         f"{fungible.goodput_fraction_of_one_machine * 100:.1f}%",
         fungible.migrations,
         f"{fungible.migration_latency.p50 * 1e3:.3f}",
         f"{fungible.migration_latency.p99 * 1e3:.3f}"),
        ("static (classic cloud)",
         f"{static.mean_goodput_cores:.2f}",
         f"{static.goodput_fraction_of_one_machine * 100:.1f}%",
         static.migrations, "-", "-"),
    ]
    table = fmt_table(
        ["filler", "goodput [cores]", "vs 1 machine", "migrations",
         "mig p50 [ms]", "mig p99 [ms]"],
        rows,
    )
    speedup = (fungible.mean_goodput_cores
               / max(static.mean_goodput_cores, 1e-9))
    from ..viz import step_plot

    lines = [
        "FIG1 — filler goodput under anti-phased HIGH-priority bursts",
        table,
        f"fungible/static goodput ratio: {speedup:.2f}x "
        "(paper: ~2x, migration <1 ms)",
        step_plot(fungible.goodput_timeline, height=8,
                  label="goodput [cores] per 1 ms bucket (fungible):"),
        "raw timeline:",
        fmt_series(fungible.goodput_timeline, max_rows=25),
    ]
    return "\n".join(lines)
