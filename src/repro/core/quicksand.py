"""The Quicksand runtime facade — the library's main entry point.

Wires together the Nu substrate, resource proclets, the two-level
scheduler, split/merge, and the high-level data structures::

    from repro import Quicksand, ClusterSpec, MachineSpec, GiB

    qs = Quicksand(ClusterSpec(machines=[
        MachineSpec(name="a", cores=16, dram_bytes=8 * GiB),
        MachineSpec(name="b", cores=16, dram_bytes=8 * GiB),
    ]))
    vec = qs.sharded_vector(name="images")
    pool = qs.compute_pool(name="workers")
    ...
    qs.run(until=10.0)
"""

from __future__ import annotations

from typing import Generator, List, Optional, Union

from ..cluster import Cluster, ClusterSpec, Machine
from ..runtime import (
    MigrationConfig,
    NuRuntime,
    Proclet,
    ProcletRef,
    ProcletStatus,
)
from ..runtime.errors import InvalidPlacement, MachineFailed
from .computeproclet import TASK_WIRE_BYTES, ComputeProclet, TaskSource
from .config import QuicksandConfig
from .gpuproclet import GpuProclet
from .memproclet import MemoryProclet
from .resource import ResourceKind
from .scheduler import (
    AffinityTracker,
    GlobalScheduler,
    LocalScheduler,
    MachineIndex,
    PlacementPolicy,
)
from .storageproclet import StorageProclet


class Quicksand:
    """Quicksand: fungible applications over a simulated cluster."""

    def __init__(self, spec_or_cluster: Union[ClusterSpec, Cluster],
                 config: QuicksandConfig = QuicksandConfig(),
                 migration_config: MigrationConfig = MigrationConfig()):
        self.cluster = (spec_or_cluster
                        if isinstance(spec_or_cluster, Cluster)
                        else Cluster(spec_or_cluster))
        self.config = config
        self.runtime = NuRuntime(self.cluster, migration_config)
        self.sim = self.cluster.sim
        self.metrics = self.cluster.metrics
        #: Bucketed machine views (free DRAM, planned compute, eligible
        #: list) so placement argmax and scheduler scans stay O(buckets)
        #: rather than O(machines) at thousand-machine scale.
        self.machine_index = MachineIndex(self.cluster, self.runtime)
        self.placement = PlacementPolicy(self.cluster, self.machine_index)
        self.runtime.locator.add_listener(
            self.machine_index.on_location_change)
        self.runtime.on_machine_failure(self.machine_index.on_machine_failure)
        self.runtime.on_machine_restore(self.machine_index.on_machine_restore)
        self.affinity = AffinityTracker(self.sim)
        self.runtime.on_invocation(self.affinity.record)
        self.local_schedulers: List[LocalScheduler] = []
        if config.enable_local_scheduler:
            self.local_schedulers = [
                LocalScheduler(self, m, config)
                for m in self.cluster.machines
            ]
        self.global_scheduler: Optional[GlobalScheduler] = (
            GlobalScheduler(self, config)
            if config.enable_global_scheduler else None
        )
        from .splitmerge import ShardSizeController

        self.shard_controller: Optional[ShardSizeController] = (
            ShardSizeController(self) if config.enable_split_merge else None
        )
        #: The attached repro.ft.RecoveryManager (enable_recovery), or
        #: None: fail-stop semantics, no detector/heartbeat processes.
        self.recovery = None
        #: The attached repro.autoscale.ShardAutoscaler
        #: (enable_autoscaler), or None: shard sizing stays with the
        #: heap-change controller above.  Both drive the same two-phase
        #: split/merge protocol (repro.autoscale.reshard).
        self.autoscaler = None
        self.splits = 0
        self.merges = 0

    # -- fault tolerance ---------------------------------------------------------
    def enable_recovery(self, config=None):
        """Attach the :mod:`repro.ft` subsystem and return its
        :class:`~repro.ft.RecoveryManager`.

        Starts the heartbeat failure detector, gates placement off
        *suspected* machines, and turns on transparent call retry for
        proclets registered via ``manager.protect()``.  Without this
        call, nothing from :mod:`repro.ft` runs and trajectories are
        bit-identical to builds predating it.
        """
        if self.recovery is not None:
            raise RuntimeError("recovery is already enabled")
        from ..ft import RecoveryConfig, RecoveryManager

        manager = RecoveryManager(self, config or RecoveryConfig())
        self.recovery = manager
        self.placement.health = manager.eligible
        # The detector's health verdicts only change on suspect/confirm/
        # alive transitions, so the eligible-machine cache can subscribe
        # to exactly those and stay valid in between.
        self.machine_index.track_health(manager.eligible)
        detector = manager.detector
        detector.on_suspect(self.machine_index.invalidate_eligible)
        detector.on_confirm(self.machine_index.invalidate_eligible)
        detector.on_alive(self.machine_index.invalidate_eligible)
        return manager

    def eligible_machines(self) -> List[Machine]:
        """Machines placement may target: up, and (with recovery
        enabled) not currently suspected by the failure detector."""
        return self.machine_index.eligible(self.placement.health)

    # -- shard autoscaling -------------------------------------------------------
    def enable_autoscaler(self, config=None):
        """Attach the :mod:`repro.autoscale` control loop and return its
        :class:`~repro.autoscale.ShardAutoscaler`.

        Detaches the deprecated heap-change-driven
        :class:`~repro.core.splitmerge.ShardSizeController` — exactly
        one controller may own shard sizing.  Child-shard placement in
        the autoscaler's reshard protocol goes through
        ``placement.best_for_memory`` and is therefore health-gated
        whenever :meth:`enable_recovery` is active.  Without this call,
        nothing from :mod:`repro.autoscale` runs and trajectories are
        bit-identical to builds predating it.
        """
        if self.autoscaler is not None:
            raise RuntimeError("autoscaler is already enabled")
        from ..autoscale import ShardAutoscaler

        if self.shard_controller is not None:
            self.shard_controller.detach()
            self.shard_controller = None
        self.autoscaler = ShardAutoscaler(self, config)
        return self.autoscaler

    # -- spawning resource proclets --------------------------------------------
    def spawn(self, proclet: Proclet, machine: Optional[Machine] = None,
              name: str = "") -> ProcletRef:
        """Place *proclet*, choosing a machine by its resource kind when
        none is given."""
        if machine is None:
            machine = self._place(proclet)
        return self.runtime.spawn(proclet, machine, name=name)

    def _place(self, proclet: Proclet) -> Machine:
        kind = getattr(proclet, "kind", ResourceKind.HYBRID)
        if kind is ResourceKind.MEMORY:
            m = self.placement.best_for_memory(proclet.footprint)
        elif kind is ResourceKind.COMPUTE:
            m = self.placement.best_for_compute(
                getattr(proclet, "parallelism", 1))
            if m is None:
                # No idle cores anywhere: fall back to the eligible
                # machine with the least planned+actual CPU commitment.
                live = self.eligible_machines()
                m = max(
                    live,
                    key=lambda x: min(
                        x.cpu.free_cores(),
                        x.cpu.cores - self.machine_index.planned(x),
                    ),
                ) if live else None
        elif kind is ResourceKind.GPU:
            m = self.placement.best_for_gpu()
        elif kind is ResourceKind.STORAGE:
            m = self.placement.best_for_storage(0.0)
        else:
            m = self.placement.best_for_memory(proclet.footprint)
        if m is None:
            raise InvalidPlacement(
                f"no machine can host {type(proclet).__name__} "
                f"(footprint {proclet.footprint:.0f} B)"
            )
        return m

    def spawn_memory(self, machine: Optional[Machine] = None,
                     name: str = "") -> ProcletRef:
        return self.spawn(MemoryProclet(), machine, name=name)

    def spawn_compute(self, parallelism: int = 1,
                      source: Optional[TaskSource] = None,
                      machine: Optional[Machine] = None,
                      name: str = "") -> ProcletRef:
        return self.spawn(ComputeProclet(parallelism, source), machine,
                          name=name)

    def spawn_gpu(self, machine: Optional[Machine] = None,
                  name: str = "") -> ProcletRef:
        return self.spawn(GpuProclet(), machine, name=name)

    def spawn_storage(self, machine: Optional[Machine] = None,
                      name: str = "") -> ProcletRef:
        return self.spawn(StorageProclet(), machine, name=name)

    # -- compute split / merge primitives (§3.3) ------------------------------------
    def split_compute(self, ref: ProcletRef,
                      dst: Optional[Machine] = None):
        """Split a compute proclet by dividing its task queue (§3.3).

        Honors the paper's rule that splits happen "only if there are
        enough CPU resources in the cluster": returns ``None`` when no
        machine has idle cores.  The event value is the new proclet's ref.
        """
        proclet = self.runtime.get_proclet(ref.proclet_id)
        return self.sim.process(self._split_compute_proc(proclet, dst),
                                name=f"split:{proclet.name}")

    def _split_compute_proc(self, src: ComputeProclet,
                            dst: Optional[Machine]) -> Generator:
        if src.status is not ProcletStatus.RUNNING:
            return None
        if dst is None:
            dst = self.placement.best_for_compute(src.parallelism)
        if dst is None:
            return None  # no CPU headroom anywhere
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("split", f"split {src.name}",
                            track=f"proclet:{src.name}", kind="compute")
        self.runtime.gate(src)

        def abort(new_ref=None, moved=()):
            # A machine crashed under the split: retire the twin, give a
            # surviving source its tasks back and reopen it.
            if new_ref is not None:
                self.runtime.destroy(new_ref)
            if src.status is ProcletStatus.MIGRATING:
                src._queue.extend(moved)
            self.runtime.ungate(src)
            if tr is not None:
                tr.end(span, outcome="machine-failed")
            return None

        yield self.sim.timeout(self.config.split_overhead)
        if src.status is not ProcletStatus.MIGRATING or not dst.up:
            return abort()

        new = src.twin()
        new_ref = self.runtime.spawn(new, dst, name=f"{src.name}.split")

        n = len(src._queue) // 2
        moved = [src._queue.pop() for _ in range(n)]
        moved.reverse()
        if n > 0 and dst is not src.machine:
            try:
                yield self.cluster.fabric.transfer(
                    src.machine, dst, TASK_WIRE_BYTES * n,
                    name=f"split:{src.name}",
                )
            except MachineFailed:
                return abort(new_ref, moved)
            if src.status is not ProcletStatus.MIGRATING \
                    or new.status is ProcletStatus.DEAD:
                return abort(new_ref, moved)
        for task in moved:
            new._enqueue(task)
        self.runtime.ungate(src)
        self.splits += 1
        if self.metrics is not None:
            self.metrics.count("quicksand.splits.compute")
        self.runtime.decide(
            "split", f"{src.name} queue-division -> {new.name}",
            span=span, moved_tasks=n, dst=dst.name,
        )
        return new_ref

    def merge_compute(self, dst_ref: ProcletRef, src_ref: ProcletRef):
        """Merge compute proclet *src* into *dst*: move its pending tasks,
        stop its workers, destroy it once drained (§3.3)."""
        dst_p = self.runtime.get_proclet(dst_ref.proclet_id)
        src_p = self.runtime.get_proclet(src_ref.proclet_id)
        return self.sim.process(
            self._merge_compute_proc(dst_p, src_p, src_ref),
            name=f"merge:{src_p.name}->{dst_p.name}",
        )

    def _merge_compute_proc(self, dst_p: ComputeProclet,
                            src_p: ComputeProclet,
                            src_ref: ProcletRef) -> Generator:
        if dst_p is src_p:
            return None  # self-merge would destroy the survivor
        if (dst_p.status is not ProcletStatus.RUNNING
                or src_p.status is not ProcletStatus.RUNNING):
            return None
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("merge", f"merge {src_p.name} -> {dst_p.name}",
                            track=f"proclet:{dst_p.name}", kind="compute")
        yield self.sim.timeout(self.config.split_overhead)
        pending = list(src_p._queue)
        src_p._queue.clear()
        stopped = src_p.request_stop()
        if pending:
            if dst_p.machine is not src_p.machine:
                yield self.cluster.fabric.transfer(
                    src_p.machine, dst_p.machine,
                    TASK_WIRE_BYTES * len(pending),
                    name=f"merge:{src_p.name}",
                )
            for task in pending:
                dst_p._enqueue(task)
        yield stopped  # workers finish their in-flight tasks
        self.runtime.destroy(src_ref)
        self.merges += 1
        if self.metrics is not None:
            self.metrics.count("quicksand.merges.compute")
        if tr is not None:
            tr.end(span, moved_tasks=len(pending))
        return True

    # -- high-level abstractions -----------------------------------------------------
    def sharded_vector(self, name: str = "vector", **kwargs):
        from ..ds import ShardedVector

        return ShardedVector(self, name=name, **kwargs)

    def sharded_map(self, name: str = "map", **kwargs):
        from ..ds import ShardedMap

        return ShardedMap(self, name=name, **kwargs)

    def sharded_set(self, name: str = "set", **kwargs):
        from ..ds import ShardedSet

        return ShardedSet(self, name=name, **kwargs)

    def sharded_queue(self, name: str = "queue", **kwargs):
        from ..ds import ShardedQueue

        return ShardedQueue(self, name=name, **kwargs)

    def compute_pool(self, name: str = "pool", **kwargs):
        from ..compute import ComputePool

        return ComputePool(self, name=name, **kwargs)

    def flat_storage(self, name: str = "storage", **kwargs):
        from ..storage import FlatStorage

        return FlatStorage(self, name=name, **kwargs)

    # -- execution ----------------------------------------------------------------------
    def run(self, until=None, until_event=None):
        return self.sim.run(until=until, until_event=until_event)

    def machine(self, name_or_id) -> Machine:
        return self.cluster.machine(name_or_id)

    @property
    def machines(self) -> List[Machine]:
        return self.cluster.machines

    def __repr__(self) -> str:
        return (f"<Quicksand {len(self.cluster.machines)} machines, "
                f"{self.runtime.proclet_count} proclets, "
                f"t={self.sim.now:.4f}s>")
