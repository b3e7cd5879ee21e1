"""Traced experiment runs: fast-scale figure runs under span capture.

Backs ``python -m repro trace <experiment>``: each runner executes one
experiment (at a reduced scale suited to interactive tracing) inside an
:func:`repro.obs.capture` block and returns a :class:`TracedRun` bundling
the experiment's result with the captured spans, ready to export or
digest.  Runs are pure functions of ``(experiment, seed)``, so two
invocations with the same arguments produce identical trace digests —
the property the CI trace-smoke step pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from ..obs import Capture, capture, chrome_trace, flame_profile
from ..units import MS, MiB


@dataclass
class TracedRun:
    """One traced experiment: its result plus the captured spans."""

    experiment: str
    seed: int
    result: Any
    spans: Capture

    def digest(self) -> str:
        """Deterministic sha256 over every captured span."""
        return self.spans.digest()

    def chrome(self) -> dict:
        """Chrome ``trace_event`` document (Perfetto-loadable)."""
        return chrome_trace(self.spans, label=f"{self.experiment}"
                                              f"[seed={self.seed}]")

    def profile(self, top: int = 8) -> str:
        """Plain-text virtual-time-by-category profile."""
        return flame_profile(self.spans, top=top)

    def span_count(self) -> int:
        return sum(len(tr) for tr in self.spans.tracers)


def _trace_fig1(seed: int) -> Any:
    from .fig1_filler import Fig1Config, run_fig1

    return run_fig1(Fig1Config(duration=60 * MS, fungible=True, seed=seed))


def _trace_fig2(seed: int) -> Any:
    from ..apps.dnn import DatasetSpec
    from .fig2_imbalance import PAPER_CONFIGS, run_fig2

    dataset = DatasetSpec(count=240, mean_bytes=1 * MiB, mean_cpu=0.1)
    configs = [c for c in PAPER_CONFIGS
               if c[0] in ("baseline", "both-unbalanced")]
    return run_fig2(dataset=dataset, configs=configs, seed=seed)


def _trace_fig3(seed: int) -> Any:
    from .fig3_gpu_adapt import Fig3Config, run_fig3

    return run_fig3(Fig3Config(duration=0.5, seed=seed))


def _trace_chaos(seed: int) -> Any:
    """The benchmark's chaos configuration: faults, the shard autoscaler
    and checkpoint recovery, so every kind of decision is exported."""
    from ..chaos import ChaosConfig, run_chaos

    return run_chaos(ChaosConfig(seed=seed, duration=0.5, autoscale=True,
                                 recovery_policy="checkpoint"))


RUNNERS: Dict[str, Callable[[int], Any]] = {
    "fig1": _trace_fig1,
    "fig2": _trace_fig2,
    "fig3": _trace_fig3,
    "chaos": _trace_chaos,
}


def run_traced(experiment: str, seed: int = 0) -> TracedRun:
    """Run *experiment* (``fig1``/``fig2``/``fig3``/``chaos``) at trace
    scale with span capture enabled and return the :class:`TracedRun`."""
    runner = RUNNERS.get(experiment)
    if runner is None:
        raise ValueError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(RUNNERS)}")
    with capture() as cap:
        result = runner(seed)
    return TracedRun(experiment=experiment, seed=seed, result=result,
                     spans=cap)
