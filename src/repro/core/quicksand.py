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

from typing import List, Optional, Union

from ..cluster import Cluster, ClusterSpec, Machine
from ..runtime import (
    MigrationConfig,
    NuRuntime,
    Proclet,
    ProcletRef,
)
from ..runtime.errors import InvalidPlacement
from .computeproclet import ComputeProclet, TaskSource
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
