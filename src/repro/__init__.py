"""Quicksand reproduction: fungible applications via resource proclets.

Reproduces *Unleashing True Utility Computing with Quicksand* (HotOS '23)
on a deterministic discrete-event cluster simulator.  The public surface:

* :class:`Quicksand` — the runtime facade (spawn resource proclets, get
  sharded data structures, compute pools, flat storage);
* :class:`ClusterSpec` / :class:`MachineSpec` — describe the cluster;
* :class:`QuicksandConfig` — scheduler/split-merge/prefetch knobs;
* ``repro.apps`` — the paper's applications (filler, DNN pipeline);
* ``repro.experiments`` — harnesses regenerating Figures 1–3.
"""

from .cluster import (
    Cluster,
    ClusterSpec,
    GpuSpec,
    MachineSpec,
    NetworkSpec,
    OutOfMemory,
    Priority,
    StorageSpec,
    symmetric_cluster,
)
from .compute import ComputePool, filter_collect, for_each, map_collect, reduce
from .core import (
    ComputeAutoscaler,
    ComputeProclet,
    DistPtr,
    GpuProclet,
    MemoryProclet,
    PrefetchingReader,
    Quicksand,
    QuicksandConfig,
    ResourceKind,
    ResourceProclet,
    StorageProclet,
    Task,
    TaskSource,
)
from .ds import ShardedMap, ShardedQueue, ShardedSet, ShardedVector
from .runtime import (
    MigrationConfig,
    MigrationFailed,
    NuRuntime,
    Payload,
    Proclet,
    ProcletRef,
    ProcletStatus,
)
from .sim import Simulator
from .storage import FlatStorage, ShardedStore
from .units import GiB, KiB, MS, MiB, SEC, US, gbps

__version__ = "0.1.0"

__all__ = [
    "Cluster",
    "ClusterSpec",
    "ComputeAutoscaler",
    "ComputePool",
    "ComputeProclet",
    "DistPtr",
    "FlatStorage",
    "GiB",
    "GpuProclet",
    "GpuSpec",
    "KiB",
    "MS",
    "MachineSpec",
    "MemoryProclet",
    "MiB",
    "MigrationConfig",
    "MigrationFailed",
    "NetworkSpec",
    "NuRuntime",
    "OutOfMemory",
    "Payload",
    "PrefetchingReader",
    "Priority",
    "Proclet",
    "ProcletRef",
    "ProcletStatus",
    "Quicksand",
    "QuicksandConfig",
    "ResourceKind",
    "ResourceProclet",
    "SEC",
    "ShardedMap",
    "ShardedQueue",
    "ShardedSet",
    "ShardedStore",
    "ShardedVector",
    "Simulator",
    "StorageProclet",
    "StorageSpec",
    "Task",
    "TaskSource",
    "US",
    "for_each",
    "filter_collect",
    "gbps",
    "map_collect",
    "reduce",
    "symmetric_cluster",
]
