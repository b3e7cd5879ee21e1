"""Experiment harnesses regenerating every figure/table of the paper,
plus the ablations from DESIGN.md."""

from . import (
    ablations,
    autoscale,
    cloning,
    fig1_filler,
    fig2_imbalance,
    fig3_gpu_adapt,
    recovery,
    serving,
    sweep_burst,
)
from .autoscale import AutoscaleRow
from .fig1_filler import Fig1Config, Fig1Result, run_fig1
from .fig2_imbalance import Fig2Row, run_fig2, run_fig2_config
from .fig3_gpu_adapt import Fig3Config, Fig3Result, run_fig3
from .recovery import RecoveryRow, run_recovery_fig2
from .sweep_burst import SweepPoint

__all__ = [
    "AutoscaleRow",
    "Fig1Config",
    "Fig1Result",
    "Fig2Row",
    "Fig3Config",
    "Fig3Result",
    "ablations",
    "autoscale",
    "cloning",
    "fig1_filler",
    "fig2_imbalance",
    "fig3_gpu_adapt",
    "recovery",
    "RecoveryRow",
    "run_recovery_fig2",
    "SweepPoint",
    "run_fig1",
    "run_fig2",
    "run_fig2_config",
    "run_fig3",
    "serving",
    "sweep_burst",
]
