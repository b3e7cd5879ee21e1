"""FIG2 — reproduce Figure 2: combining imbalanced resources.

The paper fixes total resources (46 cores, 13 GiB) and splits them across
two machines in three imbalanced ways; a Quicksand preprocessing pipeline
should match the single-machine baseline within a few percent:

|                 | Machine 1            | Machine 2            | Time   |
|-----------------|----------------------|----------------------|--------|
| Baseline        | 46 cores, 13 GiB     | —                    | 26.1 s |
| CPU-unbalanced  | 6 cores, 6.5 GiB     | 40 cores, 6.5 GiB    | 26.4 s |
| Mem-unbalanced  | 23 cores, 1 GiB      | 23 cores, 12 GiB     | 26.6 s |
| Both-unbalanced | 6 cores, 12 GiB      | 40 cores, 1 GiB      | 26.5 s |

Mechanisms under test: memory proclets spread data to wherever DRAM is
free, compute proclets land where cores are free, and the prefetcher
hides remote reads (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.dnn import BatchPipeline, DatasetSpec
from ..cluster import ClusterSpec, MachineSpec
from ..core import Quicksand, QuicksandConfig
from ..units import GiB
from .common import fmt_table

#: DRAM the runtime itself needs per machine (proclet footprints, queue
#: headroom) on top of the dataset.
_SLACK = 0.25 * GiB

#: The paper's four configurations: (name, [(cores, dram_gib), ...]).
PAPER_CONFIGS: List[Tuple[str, List[Tuple[float, float]]]] = [
    ("baseline", [(46, 13.0)]),
    ("cpu-unbalanced", [(6, 6.5), (40, 6.5)]),
    ("mem-unbalanced", [(23, 1.0), (23, 12.0)]),
    ("both-unbalanced", [(6, 12.0), (40, 1.0)]),
]

#: The paper's measured times, for side-by-side reporting.
PAPER_TIMES = {
    "baseline": 26.1,
    "cpu-unbalanced": 26.4,
    "mem-unbalanced": 26.6,
    "both-unbalanced": 26.5,
}

#: EXT-SCALE: the same totals shattered across FOUR machines (not in the
#: paper, which stops at two) — generality check for the mechanism.
FOUR_WAY_CONFIG = ("4way-unbalanced",
                   [(6, 10.0), (20, 1.0), (10, 1.0), (10, 1.0)])


@dataclass
class Fig2Row:
    """One row of the Fig. 2 table."""

    name: str
    machines: str
    time_s: float
    paper_time_s: float
    shard_machines: Dict[str, int] = field(default_factory=dict)
    worker_machines: Dict[str, int] = field(default_factory=dict)

    @property
    def slowdown_vs_paper_baseline_shape(self) -> float:
        return self.time_s / PAPER_TIMES["baseline"]


def cluster_for(machines: List[Tuple[float, float]],
                seed: int = 0) -> ClusterSpec:
    """Build the ClusterSpec for one Fig. 2 configuration."""
    return ClusterSpec(
        machines=[
            MachineSpec(name=f"m{i}", cores=cores,
                        dram_bytes=dram_gib * GiB + _SLACK)
            for i, (cores, dram_gib) in enumerate(machines)
        ],
        seed=seed,
    )


def run_fig2_config(name: str, machines: List[Tuple[float, float]],
                    dataset: Optional[DatasetSpec] = None,
                    seed: int = 0) -> Fig2Row:
    """Run the preprocessing pipeline on one machine configuration."""
    if dataset is None:
        dataset = DatasetSpec()
    qs = Quicksand(cluster_for(machines, seed),
                   config=QuicksandConfig(enable_global_scheduler=False))
    pipeline = BatchPipeline(qs, dataset=dataset)
    result = pipeline.run()
    return Fig2Row(
        name=name,
        machines=" + ".join(f"{int(c)}c/{g:g}GiB" for c, g in machines),
        time_s=result.preprocess_time,
        paper_time_s=PAPER_TIMES.get(name, float("nan")),
        shard_machines=result.shard_machines,
        worker_machines=result.worker_machines,
    )


def run_fig2(dataset: Optional[DatasetSpec] = None,
             configs=None, seed: int = 0) -> List[Fig2Row]:
    """Run all (or the chosen) Fig. 2 configurations."""
    rows = []
    for name, machines in (configs or PAPER_CONFIGS):
        rows.append(run_fig2_config(name, machines, dataset, seed))
    return rows


def report(rows: List[Fig2Row]) -> str:
    baseline = next((r for r in rows if r.name == "baseline"), rows[0])
    table_rows = []
    for r in rows:
        ratio = r.time_s / baseline.time_s
        paper_ratio = r.paper_time_s / baseline.paper_time_s
        table_rows.append((
            r.name, r.machines,
            f"{r.time_s:.2f}", f"{r.paper_time_s:.1f}",
            f"{ratio:.3f}", f"{paper_ratio:.3f}",
        ))
    table = fmt_table(
        ["config", "machines", "time [s]", "paper [s]",
         "vs baseline", "paper vs baseline"],
        table_rows,
    )
    lines = [
        "FIG2 — DNN preprocessing with imbalanced two-machine splits",
        table,
        "placement (shards / workers per machine):",
    ]
    for r in rows:
        lines.append(f"  {r.name:17s} shards={r.shard_machines} "
                     f"workers={r.worker_machines}")
    lines.append(
        "expected shape: every split within a few % of the baseline "
        "(paper: 26.1 -> 26.4/26.6/26.5 s)"
    )
    return "\n".join(lines)
