"""FIG3 — reproduce Figure 3: rapid adaptation to changing GPU resources.

The streaming DNN pipeline trains on an emulated-GPU pool whose
availability alternates between four and eight GPUs every 200 ms.  The
Quicksand compute autoscaler (§3.3) splits/merges preprocessing compute
proclets to track the consumption rate; the paper reports new equilibria
reached in **10–15 ms**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..apps.dnn import GpuAvailabilityDriver, StreamingPipeline
from ..cluster import ClusterSpec, GpuSpec, MachineSpec
from ..core import Quicksand, QuicksandConfig
from ..metrics import Summary
from ..units import GiB, MS
from .common import equilibrium_latency, fmt_series, fmt_table


@dataclass(frozen=True)
class Fig3Config:
    """Parameters of the Fig. 3 experiment."""

    cpu_machines: int = 2
    cores_per_machine: float = 16.0
    dram_bytes: float = 8 * GiB
    gpu_low: int = 4
    gpu_high: int = 8
    gpu_batch_time: float = 10 * MS
    toggle_period: float = 200 * MS
    cpu_per_batch: float = 10 * MS
    duration: float = 1.6
    seed: int = 0
    #: False switches the autoscaler to pure queue signals (ABL-SIGNAL:
    #: slower, dithers ±1, but needs no cooperation from the trainer).
    use_declared_demand: bool = True

    @property
    def members_per_gpu(self) -> float:
        """Compute proclets needed to feed one GPU at steady state."""
        return self.cpu_per_batch / self.gpu_batch_time


@dataclass
class Fig3Result:
    config: Fig3Config
    member_trace: List[Tuple[float, int]] = field(repr=False,
                                                  default_factory=list)
    toggles: List[Tuple[float, int]] = field(default_factory=list)
    equilibrium_latencies: List[float] = field(default_factory=list)
    batches_trained: int = 0
    gpu_idle_fraction: float = 0.0

    @property
    def latency_summary(self) -> Summary:
        reached = [x for x in self.equilibrium_latencies
                   if x != float("inf")]
        return Summary.of(reached)

    @property
    def adaptation_success_rate(self) -> float:
        if not self.equilibrium_latencies:
            return 0.0
        ok = sum(1 for x in self.equilibrium_latencies
                 if x != float("inf"))
        return ok / len(self.equilibrium_latencies)


def run_fig3(config: Fig3Config = Fig3Config()) -> Fig3Result:
    machines = [
        MachineSpec(name=f"cpu{i}", cores=config.cores_per_machine,
                    dram_bytes=config.dram_bytes)
        for i in range(config.cpu_machines)
    ]
    machines.append(MachineSpec(
        name="gpubox", cores=8, dram_bytes=config.dram_bytes,
        gpus=GpuSpec(count=config.gpu_high,
                     batch_time=config.gpu_batch_time),
    ))
    qs = Quicksand(
        ClusterSpec(machines=machines, seed=config.seed),
        config=QuicksandConfig(enable_global_scheduler=False),
    )
    gpu_machine = qs.machine("gpubox")

    pipeline = StreamingPipeline(
        qs, gpu_machine, cpu_per_batch=config.cpu_per_batch,
        initial_members=int(config.gpu_high * config.members_per_gpu),
        max_members=int(config.gpu_high * config.members_per_gpu * 2),
        use_declared_demand=config.use_declared_demand,
    )
    driver = GpuAvailabilityDriver(gpu_machine, low=config.gpu_low,
                                   high=config.gpu_high,
                                   period=config.toggle_period)
    pipeline.start()
    driver.start()

    t0 = qs.sim.now
    batches0 = pipeline.trainer.batches_trained
    qs.run(until=t0 + config.duration)
    driver.stop()

    trace = [
        (t, actual)
        for t, _desired, actual in pipeline.preprocess.autoscaler.decisions
    ]
    latencies = []
    # Skip the first entry (initial level, not a toggle).
    for toggle_t, level in driver.toggle_times[1:]:
        target = int(level * config.members_per_gpu)
        if toggle_t + config.toggle_period > t0 + config.duration:
            break  # not enough trailing trace to judge equilibrium
        latencies.append(equilibrium_latency(trace, toggle_t, target))

    # GPU utilization = trained GPU-seconds / available GPU-seconds,
    # where availability integrates the toggled capacity over the run.
    capacity_integral = 0.0
    events = [(t, lvl) for t, lvl in driver.toggle_times if t <= t0 +
              config.duration] + [(t0 + config.duration, 0)]
    for (t_a, lvl), (t_b, _next) in zip(events, events[1:]):
        capacity_integral += max(0.0, (t_b - max(t_a, t0))) * lvl
    trained = pipeline.trainer.batches_trained - batches0
    util = (trained * config.gpu_batch_time / capacity_integral
            if capacity_integral > 0 else 0.0)

    return Fig3Result(
        config=config,
        member_trace=trace,
        toggles=driver.toggle_times,
        equilibrium_latencies=latencies,
        batches_trained=pipeline.trainer.batches_trained,
        gpu_idle_fraction=max(0.0, 1.0 - util),
    )


def report(result: Fig3Result) -> str:
    cfg = result.config
    s = result.latency_summary
    rows = [(f"{t * 1e3:.0f}", lvl,
             int(lvl * cfg.members_per_gpu),
             (f"{lat * 1e3:.1f}" if lat != float("inf") else "never"))
            for (t, lvl), lat in zip(result.toggles[1:],
                                     result.equilibrium_latencies)]
    table = fmt_table(
        ["toggle at [ms]", "GPUs", "target proclets",
         "equilibrium in [ms]"],
        rows,
    )
    lines = [
        "FIG3 — compute-proclet scaling under 4<->8 GPU alternation",
        table,
        (f"equilibrium latency: p50={s.p50 * 1e3:.1f} ms "
         f"p90={s.p90 * 1e3:.1f} ms (paper: 10-15 ms)"),
        f"adaptation success rate: "
        f"{result.adaptation_success_rate * 100:.0f}%",
        f"batches trained: {result.batches_trained}, "
        f"GPU idle fraction: {result.gpu_idle_fraction * 100:.1f}%",
        _member_plot(result),
        "raw trace:",
        fmt_series([(t, float(v)) for t, v in result.member_trace],
                   v_fmt="{:.0f}", max_rows=25),
    ]
    return "\n".join(lines)


def _member_plot(result: Fig3Result) -> str:
    from ..viz import step_plot

    return step_plot(
        [(t, float(v)) for t, v in result.member_trace],
        height=8, label="compute proclets over time (the Fig. 3 y-axis):",
    )
