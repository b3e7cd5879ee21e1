"""Ablation experiments for the design choices DESIGN.md calls out.

These do not correspond to a figure in the paper — they substantiate the
individual claims its argument rests on:

* ABL-PREFETCH — §4: "preprocessing images from remote memory proclets
  is as fast as preprocessing local images" (prefetch on vs off);
* ABL-GRAN — §3.3: migration latency grows with proclet size, which is
  why shards must stay granular;
* ABL-SPLIT — §3.3: the max-shard-size rule keeps migration fast during
  unbounded ingest;
* ABL-COUPLED — §2: Nu-style hybrid proclets cannot combine resources
  split across machines ("it may be impossible to fit proclets in either
  machine");
* ABL-TWOLEVEL — §5: fast local decisions are what absorb 10 ms-scale
  spikes; a slow global pass alone reacts too late.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..apps.dnn import BatchPipeline, DatasetSpec
from ..cluster import ClusterSpec, MachineSpec, OutOfMemory
from ..core import Quicksand, QuicksandConfig
from ..runtime import Proclet
from ..units import GiB, KiB, MS, MiB, US
from .common import fmt_table
from .fig1_filler import Fig1Config, run_fig1
from .fig2_imbalance import PAPER_CONFIGS, cluster_for


# -- ABL-PREFETCH --------------------------------------------------------------

@dataclass
class PrefetchAblationResult:
    with_prefetch_s: float
    without_prefetch_s: float

    @property
    def slowdown(self) -> float:
        return self.without_prefetch_s / self.with_prefetch_s


def run_prefetch_ablation(records: int = 10_000,
                          record_bytes: float = 4 * KiB,
                          cpu_per_record: float = 20e-6,
                          workers: int = 8) -> PrefetchAblationResult:
    """§4's "remote is as fast as local" claim, isolated.

    A compute-light scan over small records stored on the *other*
    machine — the regime where per-element RPC latency actually bites.
    "Without prefetch" iterates element-at-a-time synchronously
    (chunk=1, depth=0); "with" uses the iterator's batched, pipelined
    reads (chunk=32, depth=4).  The paper's image workload has so much
    CPU per byte that even synchronous reads would hide; this scan is
    where the §3.2 iterator hints earn their keep.
    """
    from ..compute import for_each

    def run(chunk: int, depth: int) -> float:
        qs = Quicksand(ClusterSpec(machines=[
            MachineSpec(name="cpuside", cores=workers, dram_bytes=1 * GiB),
            MachineSpec(name="memside", cores=1, dram_bytes=8 * GiB),
        ]), config=QuicksandConfig(enable_local_scheduler=False,
                                   enable_global_scheduler=False,
                                   enable_split_merge=False))
        memside = qs.machine("memside")
        vec = qs.sharded_vector(name="records",
                                initial_machine=memside)

        def loader():
            # Sequential ingest: bulk-loading with one outstanding write
            # (submitting all N at once would create N concurrent fluid
            # items and quadratic reassignment cost in the kernel).
            for _ in range(records):
                yield vec.append(None, record_bytes)

        qs.sim.run(until_event=qs.sim.process(loader(), name="load"))
        pool = qs.compute_pool(name="scan", initial_members=workers,
                               machine=qs.machine("cpuside"))
        t0 = qs.sim.now
        done = for_each(pool, vec, work=cpu_per_record,
                        task_elems=records // workers,
                        reader_chunk=chunk, reader_depth=depth)
        qs.sim.run(until_event=done)
        return qs.sim.now - t0

    return PrefetchAblationResult(
        with_prefetch_s=run(chunk=32, depth=4),
        without_prefetch_s=run(chunk=1, depth=0),
    )


# -- ABL-GRAN ----------------------------------------------------------------------

class _StateHolder(Proclet):
    def __init__(self, nbytes: float):
        super().__init__()
        self._nbytes = nbytes

    def on_start(self, ctx):
        if self._nbytes:
            ctx.alloc(self._nbytes)


def run_migration_granularity(
        sizes: Optional[List[float]] = None) -> List[Tuple[float, float]]:
    """Migration latency vs proclet heap size: (bytes, seconds) points."""
    if sizes is None:
        sizes = [64 * KiB, 1 * MiB, 10 * MiB, 100 * MiB, 1 * GiB]
    qs = Quicksand(ClusterSpec(machines=[
        MachineSpec(name="a", cores=8, dram_bytes=4 * GiB),
        MachineSpec(name="b", cores=8, dram_bytes=4 * GiB),
    ]), config=QuicksandConfig(enable_local_scheduler=False,
                               enable_global_scheduler=False,
                               enable_split_merge=False))
    a, b = qs.machines
    points = []
    for size in sizes:
        ref = qs.runtime.spawn(_StateHolder(size), a)
        qs.sim.run(until=qs.sim.now + 1 * MS)
        latency = qs.sim.run(until_event=qs.runtime.migrate(ref, b))
        points.append((size, latency))
        qs.runtime.destroy(ref)
    return points


# -- ABL-SPLIT ----------------------------------------------------------------------

@dataclass
class SplitAblationResult:
    with_split_max_shard_bytes: float
    with_split_migration_s: float
    without_split_shard_bytes: float
    without_split_migration_s: float


def run_split_ablation(total_bytes: float = 256 * MiB) -> SplitAblationResult:
    """Ingest with/without the §3.3 split rule; migrate the biggest shard."""

    def run(enable_split: bool) -> Tuple[float, float]:
        qs = Quicksand(ClusterSpec(machines=[
            MachineSpec(name="a", cores=8, dram_bytes=4 * GiB),
            MachineSpec(name="b", cores=8, dram_bytes=4 * GiB),
        ]), config=QuicksandConfig(enable_local_scheduler=False,
                                   enable_global_scheduler=False,
                                   enable_split_merge=enable_split))
        vec = qs.sharded_vector(name="ingest")
        n = int(total_bytes / (256 * KiB))

        def loader():
            for _ in range(n):
                yield vec.append(None, 256 * KiB)

        qs.sim.run(until_event=qs.sim.process(loader(), name="load"))
        qs.sim.run(until=qs.sim.now + 0.3)
        biggest = max(vec.shards, key=lambda s: s.proclet.heap_bytes)
        dst = next(m for m in qs.machines
                   if m is not biggest.ref.machine)
        latency = qs.sim.run(
            until_event=qs.runtime.migrate(biggest.ref, dst))
        return biggest.proclet.heap_bytes, latency

    with_bytes, with_lat = run(True)
    without_bytes, without_lat = run(False)
    return SplitAblationResult(
        with_split_max_shard_bytes=with_bytes,
        with_split_migration_s=with_lat,
        without_split_shard_bytes=without_bytes,
        without_split_migration_s=without_lat,
    )


# -- ABL-COUPLED ----------------------------------------------------------------------

@dataclass
class HybridAblationResult:
    """Fitting a workload as hybrid vs resource proclets on the
    both-unbalanced machine pair."""

    hybrid_placed: int
    hybrid_failed: int
    decoupled_placed: int
    decoupled_failed: int


def run_hybrid_ablation(units: int = 40,
                        unit_memory: float = 256 * MiB,
                        unit_threads: int = 1) -> HybridAblationResult:
    """§2's stranding argument, made concrete.

    A workload of *units*, each needing 1 thread + 256 MiB.  Machine A
    has cores but almost no DRAM; machine B has DRAM but few cores.
    Hybrid (Nu-style) units must find both on ONE machine and mostly
    fail; decoupled units place their memory on B and compute on A.
    """
    def make_qs():
        return Quicksand(ClusterSpec(machines=[
            MachineSpec(name="cpuheavy", cores=40, dram_bytes=1 * GiB),
            MachineSpec(name="memheavy", cores=6, dram_bytes=12 * GiB),
        ]), config=QuicksandConfig(enable_local_scheduler=False,
                                   enable_global_scheduler=False,
                                   enable_split_merge=False))

    # Hybrid: memory+compute bundled; must fit the memory on the same
    # machine that has a free core.
    qs = make_qs()
    hybrid_placed = hybrid_failed = 0
    cores_left = {m.name: m.cpu.cores for m in qs.machines}
    for _ in range(units):
        placed = False
        for m in qs.machines:
            if cores_left[m.name] >= unit_threads \
                    and m.memory.can_fit(unit_memory):
                m.memory.reserve(unit_memory)
                cores_left[m.name] -= unit_threads
                placed = True
                break
        if placed:
            hybrid_placed += 1
        else:
            hybrid_failed += 1

    # Decoupled: memory proclets and compute proclets place independently.
    qs = make_qs()
    decoupled_placed = decoupled_failed = 0
    cores_left = {m.name: m.cpu.cores for m in qs.machines}
    for _ in range(units):
        mem_target = qs.placement.best_for_memory(unit_memory)
        cpu_target = next(
            (m for m in sorted(qs.machines,
                               key=lambda x: -cores_left[x.name])
             if cores_left[m.name] >= unit_threads),
            None,
        )
        if mem_target is not None and cpu_target is not None:
            mem_target.memory.reserve(unit_memory)
            cores_left[cpu_target.name] -= unit_threads
            decoupled_placed += 1
        else:
            decoupled_failed += 1

    return HybridAblationResult(
        hybrid_placed=hybrid_placed,
        hybrid_failed=hybrid_failed,
        decoupled_placed=decoupled_placed,
        decoupled_failed=decoupled_failed,
    )


# -- ABL-TWOLEVEL ----------------------------------------------------------------------

@dataclass
class TwoLevelAblationResult:
    local_goodput_cores: float
    global_only_goodput_cores: float
    none_goodput_cores: float


def run_two_level_ablation(duration: float = 0.2) -> TwoLevelAblationResult:
    """Fig. 1 workload under different scheduler levels.

    The global scheduler's 50 ms cadence cannot catch 10 ms bursts; only
    the local fast path fills them (§5's argument for two levels).
    """
    def run(local: bool, global_: bool) -> float:
        config = Fig1Config(fungible=True, duration=duration)
        # Patch the scheduler switches through a custom run.
        from ..apps import FillerApp, PhasedApp

        spec = ClusterSpec(machines=[
            MachineSpec(name="m0", cores=config.cores,
                        dram_bytes=config.dram_bytes),
            MachineSpec(name="m1", cores=config.cores,
                        dram_bytes=config.dram_bytes),
        ])
        qs = Quicksand(spec, config=QuicksandConfig(
            enable_local_scheduler=local,
            enable_global_scheduler=global_,
            enable_split_merge=False,
        ))
        m0, m1 = qs.machines
        PhasedApp(m0, burst=config.burst, idle=config.burst).start()
        PhasedApp(m1, burst=config.burst, idle=config.burst,
                  phase_offset=config.burst).start()
        filler = FillerApp(qs, proclets=config.filler_proclets,
                           work_unit=config.work_unit, machine=m1)
        qs.run(until=config.warmup)
        t0 = qs.sim.now
        qs.run(until=t0 + duration)
        return filler.goodput_cores(t0, qs.sim.now)

    return TwoLevelAblationResult(
        local_goodput_cores=run(local=True, global_=False),
        global_only_goodput_cores=run(local=False, global_=True),
        none_goodput_cores=run(local=False, global_=False),
    )


# -- grid + report --------------------------------------------------------------------

#: The ablation grid, in report order.  Each entry is an independent
#: module-level callable — exactly the shape ``repro.exec`` fans out.
ABLATIONS = (
    ("prefetch", run_prefetch_ablation),
    ("granularity", run_migration_granularity),
    ("split", run_split_ablation),
    ("hybrid", run_hybrid_ablation),
    ("twolevel", run_two_level_ablation),
)


def build_specs() -> list:
    from ..exec import RunSpec

    return [RunSpec(fn, {}, name=f"ablation.{name}")
            for name, fn in ABLATIONS]


def report(results) -> str:
    """Render the ablation results, given in :data:`ABLATIONS` order."""
    pf, gran, sp, hy, tl = results
    lines = ["ABLATIONS"]
    lines.append(
        f"ABL-PREFETCH  with={pf.with_prefetch_s:.2f}s "
        f"without={pf.without_prefetch_s:.2f}s "
        f"slowdown={pf.slowdown:.2f}x"
    )
    lines.append("ABL-GRAN  migration latency vs heap size:")
    lines.append(fmt_table(
        ["heap", "latency [ms]"],
        [(f"{int(b / KiB)} KiB", f"{t * 1e3:.3f}") for b, t in gran],
    ))
    lines.append(
        f"ABL-SPLIT  with-split shard={sp.with_split_max_shard_bytes / MiB:.0f} MiB "
        f"mig={sp.with_split_migration_s * 1e3:.2f} ms; "
        f"without shard={sp.without_split_shard_bytes / MiB:.0f} MiB "
        f"mig={sp.without_split_migration_s * 1e3:.2f} ms"
    )
    lines.append(
        f"ABL-COUPLED  hybrid placed {hy.hybrid_placed}, "
        f"stranded {hy.hybrid_failed}; decoupled placed "
        f"{hy.decoupled_placed}, stranded {hy.decoupled_failed}"
    )
    lines.append(
        f"ABL-TWOLEVEL  local={tl.local_goodput_cores:.2f} cores, "
        f"global-only={tl.global_only_goodput_cores:.2f}, "
        f"none={tl.none_goodput_cores:.2f}"
    )
    return "\n".join(lines)
