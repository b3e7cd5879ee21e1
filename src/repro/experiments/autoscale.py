"""AUTOSCALE — hand-tuned shard control vs the fault-tolerant autoscaler.

Two questions, per the robustness milestone:

1. **Parity** — on the Fig. 2 preprocessing pipeline, replacing the
   legacy heap-change :class:`~repro.core.splitmerge.ShardSizeController`
   with the sampling :class:`~repro.autoscale.ShardAutoscaler` must not
   slow completion beyond a small constant (the golden tests pin the
   1.25x ceiling from the issue).  Both controllers share their size
   predicates (:mod:`repro.autoscale.policy`), so any gap is pure
   reaction latency — the autoscaler sees an oversized shard at its next
   sampling tick rather than on the very allocation that crossed the
   line.

2. **Robustness** — a chaos fault grid (crash/partition schedules x
   seeds x recovery policies) with ``autoscale=True`` must complete with
   every invariant holding — including the reshard-integrity checks
   that run after *every* simulator event — and with digests stable
   across replays.  The grid fans out through :mod:`repro.exec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps.dnn import BatchPipeline, DatasetSpec
from ..core import Quicksand, QuicksandConfig
from ..units import KiB
from .common import fmt_table
from .fig2_imbalance import cluster_for

#: Scaled-down Fig. 2 dataset for the comparison runs (same shape as
#: the recovery experiments' dataset: enough churn to force splits).
AUTOSCALE_DATASET = DatasetSpec(count=2000, mean_bytes=256 * KiB,
                                mean_cpu=0.02)

#: Recovery policies of the autoscaled chaos fault grid.
DEFAULT_GRID_POLICIES = (None, "restart", "checkpoint")


@dataclass(frozen=True)
class AutoscaleRow:
    """One Fig. 2 configuration run under both controllers."""

    name: str
    legacy_time: float          # virtual s, hand-tuned controller
    autoscale_time: float       # virtual s, ShardAutoscaler
    legacy_splits: int
    autoscale_splits: int
    decisions: int              # autoscaler decision-log length
    final_state: str            # autoscaler state at completion

    @property
    def ratio(self) -> float:
        return self.autoscale_time / self.legacy_time


def _run_pipeline(machines, dataset: DatasetSpec, seed: int,
                  autoscale: bool):
    qs = Quicksand(cluster_for(machines, seed),
                   config=QuicksandConfig(enable_global_scheduler=False))
    autoscaler = qs.enable_autoscaler() if autoscale else None
    pipeline = BatchPipeline(qs, dataset=dataset)
    result = pipeline.run()
    return qs, autoscaler, result


def run_autoscale_config(name: str, machines,
                         dataset: Optional[DatasetSpec] = None,
                         seed: int = 0) -> AutoscaleRow:
    """One Fig. 2 configuration, hand-tuned vs autoscaled."""
    dataset = dataset or AUTOSCALE_DATASET
    qs_legacy, _, legacy = _run_pipeline(machines, dataset, seed,
                                         autoscale=False)
    qs_auto, autoscaler, auto = _run_pipeline(machines, dataset, seed,
                                              autoscale=True)
    return AutoscaleRow(
        name=name,
        legacy_time=legacy.preprocess_time,
        autoscale_time=auto.preprocess_time,
        legacy_splits=qs_legacy.splits,
        autoscale_splits=qs_auto.splits,
        decisions=autoscaler.decision_count,
        final_state=autoscaler.state,
    )


def report(rows: List[AutoscaleRow], grid: Optional[List[dict]] = None,
           ) -> str:
    table = fmt_table(
        ["config", "hand-tuned [s]", "autoscaled [s]", "ratio",
         "splits (legacy/auto)", "decisions", "state"],
        [(r.name, f"{r.legacy_time:.2f}", f"{r.autoscale_time:.2f}",
          f"{r.ratio:.3f}", f"{r.legacy_splits}/{r.autoscale_splits}",
          str(r.decisions), r.final_state)
         for r in rows],
    )
    lines = [
        "AUTOSCALE — hand-tuned shard controller vs ShardAutoscaler",
        table,
        "expected shape: every ratio <= 1.25 (reaction latency only; "
        "both controllers share their size predicates)",
    ]
    if grid:
        lines.append("")
        lines.append(f"chaos grid: {len(grid)} cells, all invariants held")
        for row in grid:
            lines.append(
                f"  seed {row['seed']:>3}: "
                f"splits={row['reshard_splits']} "
                f"merges={row['reshard_merges']} "
                f"aborts={row['reshard_aborts']} "
                f"sheds={row['autoscale_sheds']} "
                f"checks={row['invariant_checks']} "
                f"digest={row['digest'][:16]}...")
    return "\n".join(lines)
