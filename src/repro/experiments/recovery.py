"""Recovery experiments: kill a machine mid-Fig.-2 and measure the cost.

Two questions, per the robustness milestone:

1. **Bounded slowdown** — run the Fig. 2 preprocessing workload on the
   4-way imbalanced configuration, crash the data-heavy machine halfway
   through, and check that under CHECKPOINT or REPLICATE protection the
   run still *completes*, with a completion-time ratio over the
   unkilled baseline that stays under a small constant (the golden
   tests pin the ceiling).

2. **Policy ablation** — the overhead-vs-data-loss trade-off of every
   :class:`~repro.ft.RecoveryPolicy` on the same kill schedule: NONE
   loses whatever lived on the victim, RESTART recovers capacity but
   not bytes, CHECKPOINT bounds loss by its snapshot interval,
   REPLICATE and LINEAGE lose nothing but pay mirroring/replay.

The driver here deliberately does *not* reuse
:class:`repro.apps.dnn.preprocess.BatchSource`: its ``outstanding``
accounting assumes chunk functions run to completion, so a worker dying
mid-chunk would leak a count and deadlock its ``done`` event.  Instead
each chunk is submitted as an ordinary pool task under a virtual-time
watchdog and resubmitted if it fails or stalls — at-least-once chunk
execution with per-image dedup, which is exactly the redo discipline a
real job would need on top of fail-stop workers.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..apps.dnn.images import DatasetSpec, load_dataset
from ..cluster import Priority
from ..core import Quicksand, QuicksandConfig
from ..core.computeproclet import Task
from ..ft import LineageLog, RecoveryConfig, RecoveryManager, RecoveryPolicy
from ..units import KiB, MiB
from .fig2_imbalance import FOUR_WAY_CONFIG, cluster_for

#: Scaled-down Fig. 2 dataset: same shape, ~500 MiB / 40 CPU-seconds,
#: so the kill run leaves the three small survivors (1 GiB + slack
#: each) enough DRAM to re-host the victim's shards *and* their
#: checkpoints/standbys.
RECOVERY_DATASET = DatasetSpec(count=2000, mean_bytes=256 * KiB,
                               mean_cpu=0.02)

#: Bytes pushed to the output queue per preprocessed image.
_OUTPUT_BYTES = 64 * KiB

#: Virtual seconds a chunk may stall before its driver resubmits it.
_WATCHDOG = 2.0

#: Resubmissions per chunk before the driver abandons it (only the
#: unprotected NONE run ever gets near this).
_MAX_ATTEMPTS = 12

#: Hard virtual-time horizon for one run; a run that is not done by
#: then has deadlocked and the experiment raises.
_HORIZON = 120.0


@dataclass(frozen=True)
class RecoveryRow:
    """Measurements of one (policy, kill schedule) run."""

    policy: str                  # "baseline" or a RecoveryPolicy value
    killed: Optional[str]        # victim machine name, None = no kill
    completion_time: float       # virtual s, preprocessing window only
    images_total: int
    images_done: int             # distinct images preprocessed
    images_redone: int           # duplicate executions (redo cost)
    chunks_resubmitted: int
    chunks_abandoned: int
    recoveries: int
    failed_recoveries: int
    call_retries: int
    mttr: float                  # mean virtual-s confirm->recovered, 0 if none
    checkpoint_bytes: float
    mirror_bytes: float
    data_loss_bytes: float       # manager-observed restore shortfall

    @property
    def images_lost(self) -> int:
        return self.images_total - self.images_done


def _protect_shards(manager: RecoveryManager, vector, queue,
                    policy: RecoveryPolicy,
                    lineage: Optional[LineageLog]) -> None:
    """Vector shards get the policy under test; queue shards carry only
    transient in-flight batches, so RESTART (capacity, not bytes) is
    always the right call for them."""
    # The routing-table index proclet carries only bookkeeping bytes,
    # rebuilt host-side as shards come and go: RESTART is exact for it.
    manager.protect(vector.index_ref, RecoveryPolicy.RESTART,
                    priority=Priority.HIGH)
    for shard in vector.shards:
        manager.protect(shard.ref, policy, priority=Priority.HIGH,
                        lineage=lineage)
    for ref in queue.shards:  # a ShardedQueue holds bare refs
        manager.protect(ref, RecoveryPolicy.RESTART, priority=Priority.HIGH)


def _synthesize_lineage(vector) -> LineageLog:
    """Build the dataset's lineage post-load from shard contents.

    The bulk loader is outside the measured window, so instead of
    instrumenting it we reconstruct the equivalent op log — the
    application-level statement "every input image can be re-derived
    from the source dataset", which is precisely Ray-style lineage.
    """
    log = LineageLog()
    for shard in vector.shards:
        proclet = shard.proclet
        for key in list(proclet._keys):
            nbytes, value = proclet._objects[key]
            log.record(proclet.id, "mp_put", key, nbytes, value,
                       req_bytes=nbytes)
    return log


def run_recovery_fig2(policy: Optional[str] = None,
                      kill_at: Optional[float] = None,
                      victim: int = 0,
                      machines: Optional[List[Tuple[float, float]]] = None,
                      dataset: Optional[DatasetSpec] = None,
                      seed: int = 0,
                      workers: Optional[int] = None,
                      chunk_elems: Optional[int] = None,
                      recovery_config: Optional[RecoveryConfig] = None,
                      ) -> RecoveryRow:
    """One kill-mid-preprocessing run; returns its :class:`RecoveryRow`.

    ``policy=None`` runs without the recovery subsystem at all (the
    baseline path, byte-identical to the plain Fig. 2 machinery);
    any :class:`RecoveryPolicy` value enables it.  ``kill_at`` is
    virtual seconds after preprocessing starts (None = never).
    """
    if machines is None:
        machines = FOUR_WAY_CONFIG[1]
    if dataset is None:
        dataset = RECOVERY_DATASET
    qs = Quicksand(cluster_for(machines, seed),
                   config=QuicksandConfig(enable_global_scheduler=False))
    sim = qs.sim
    manager = None
    pol = None
    if policy is not None:
        pol = RecoveryPolicy(policy)
        cfg = recovery_config or RecoveryConfig(retry_budget=12)
        manager = qs.enable_recovery(cfg)

    vector = qs.sharded_vector(name="images")
    out_queue = qs.sharded_queue(name="batches", initial_shards=2)
    sim.run(until_event=load_dataset(qs, vector, dataset))

    lineage = None
    if pol is RecoveryPolicy.LINEAGE:
        lineage = _synthesize_lineage(vector)
    if manager is not None:
        _protect_shards(manager, vector, out_queue, pol, lineage)

    if workers is None:
        workers = max(1, int(qs.cluster.total_cores))
    pool = qs.compute_pool(name="preproc", parallelism=1,
                           initial_members=workers)
    if manager is not None:
        for ref in pool.members:
            manager.protect(ref, RecoveryPolicy.RESTART,
                            priority=Priority.NORMAL)

    n = len(vector)
    if chunk_elems is None:
        chunk_elems = max(1, n // (workers * 2))
    chunks = collections.deque(
        (lo, min(lo + chunk_elems, n)) for lo in range(0, n, chunk_elems))
    attempts = collections.Counter()
    processed: set = set()
    stats = {"redone": 0, "resubmitted": 0, "abandoned": 0}

    def chunk_fn(lo: int, hi: int):
        def fn(ctx, _task):
            reader = vector.reader(lo, hi)
            while True:
                batch = yield from reader.next_batch(ctx)
                if batch is None:
                    return
                for key, cpu_cost in batch:
                    yield ctx.cpu(cpu_cost)
                    if key in processed:
                        stats["redone"] += 1
                        continue
                    processed.add(key)
                    yield out_queue.push(("batch", key), _OUTPUT_BYTES,
                                         ctx=ctx)
        return fn

    def driver():
        while chunks:
            lo, hi = chunks.popleft()
            task = Task(key=(lo, hi), fn=chunk_fn(lo, hi))
            done = pool.submit(task)
            try:
                yield sim.any_of([done, sim.timeout(_WATCHDOG)])
            except Exception:
                pass  # a failed chunk is handled like a stalled one
            if done.triggered and done.ok:
                continue
            attempts[(lo, hi)] += 1
            if attempts[(lo, hi)] >= _MAX_ATTEMPTS:
                stats["abandoned"] += 1
                continue
            stats["resubmitted"] += 1
            chunks.append((lo, hi))

    draining = [True]

    def drainer():
        while draining[0]:
            batch = yield out_queue.pop()
            if batch is None:
                return

    for _ in range(4):
        sim.process(drainer(), name="recovery-drain")

    t1 = sim.now
    victim_machine = qs.cluster.machines[victim]
    if kill_at is not None:
        sim.call_at(t1 + kill_at,
                    lambda: qs.runtime.fail_machine(victim_machine))
    drivers = [sim.process(driver(), name=f"recovery-driver{i}")
               for i in range(workers)]
    all_done = sim.all_of(drivers)
    sim.run(until_event=all_done, until=t1 + _HORIZON)
    if not all_done.triggered:
        raise RuntimeError(
            f"recovery run (policy={policy}, kill_at={kill_at}) did not "
            f"finish within {_HORIZON} virtual seconds")
    completion = sim.now - t1
    draining[0] = False

    if manager is not None:
        qs.metrics.record_stats(manager, "ft")
    mttr_samples = qs.metrics.samples("ft.mttr")
    loss_samples = qs.metrics.samples("ft.data_loss_bytes")
    return RecoveryRow(
        policy=pol.value if pol is not None else "baseline",
        killed=victim_machine.name if kill_at is not None else None,
        completion_time=completion,
        images_total=n,
        images_done=len(processed),
        images_redone=stats["redone"],
        chunks_resubmitted=stats["resubmitted"],
        chunks_abandoned=stats["abandoned"],
        recoveries=(sum(manager.recoveries.values())
                    if manager is not None else 0),
        failed_recoveries=(manager.failed_recoveries
                           if manager is not None else 0),
        call_retries=int(qs.metrics.counter("ft.call_retries").total),
        mttr=(sum(mttr_samples) / len(mttr_samples)
              if mttr_samples else 0.0),
        checkpoint_bytes=qs.metrics.counter("ft.checkpoint.bytes").total,
        mirror_bytes=qs.metrics.counter("ft.mirror.bytes").total,
        data_loss_bytes=sum(loss_samples),
    )


def report(rows: List[RecoveryRow]) -> str:
    """Render the ablation as the REPORT.md table."""
    base = next((r for r in rows if r.killed is None), rows[0])
    lines = [
        "Recovery ablation: kill m0 mid-preprocessing "
        "(4-way imbalanced, scaled Fig. 2 dataset)",
        "",
        f"{'policy':<12} {'kill':<5} {'time(s)':>8} {'ratio':>6} "
        f"{'done':>6} {'lost':>6} {'redone':>7} {'recov':>6} "
        f"{'MTTR(ms)':>9} {'ckpt(MiB)':>10} {'mirror(MiB)':>12} "
        f"{'loss(MiB)':>10}",
    ]
    for r in rows:
        ratio = (r.completion_time / base.completion_time
                 if base.completion_time > 0 else float("inf"))
        lines.append(
            f"{r.policy:<12} {('yes' if r.killed else 'no'):<5} "
            f"{r.completion_time:>8.3f} {ratio:>6.2f} "
            f"{r.images_done:>6d} {r.images_lost:>6d} "
            f"{r.images_redone:>7d} {r.recoveries:>6d} "
            f"{r.mttr * 1e3:>9.2f} {r.checkpoint_bytes / MiB:>10.1f} "
            f"{r.mirror_bytes / MiB:>12.1f} "
            f"{r.data_loss_bytes / MiB:>10.1f}")
    lines += [
        "",
        "Reading: NONE detects but cannot repair (data on the victim is "
        "gone);",
        "RESTART restores capacity only; CHECKPOINT bounds loss by its "
        "snapshot",
        "interval; REPLICATE/LINEAGE lose nothing and trade mirroring "
        "bytes vs",
        "replay compute.  'ratio' is completion time over the unkilled "
        "baseline.",
    ]
    return "\n".join(lines)
