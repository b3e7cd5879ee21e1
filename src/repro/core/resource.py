"""Resource proclets: proclets specialized to one resource type.

This is Quicksand's central idea (§3.1).  Nu's *hybrid* proclets bundle
CPU and memory, so a proclet needing both cannot exploit a machine pair
where one has idle CPU and the other idle DRAM.  Quicksand splits the
proclet taxonomy by resource: memory proclets hold data and burn almost
no CPU; compute proclets burn CPU over a near-empty heap; storage
proclets wrap persistent capacity+IOPS; GPU proclets wrap accelerators.
The scheduler can then map each kind onto whichever machine has that
resource idle.
"""

from __future__ import annotations

import enum

from ..runtime import Proclet


class ResourceKind(enum.Enum):
    """The resource a proclet is specialized to consume."""

    COMPUTE = "compute"
    MEMORY = "memory"
    STORAGE = "storage"
    GPU = "gpu"
    #: Nu-style proclet bundling compute+memory; kept as the baseline the
    #: paper argues against (§2, ABL-COUPLED in DESIGN.md).
    HYBRID = "hybrid"


class ResourceProclet(Proclet):
    """Base class for all Quicksand resource proclets."""

    kind: ResourceKind = ResourceKind.HYBRID

    def __init__(self):
        super().__init__()
        #: Set by the facade when the proclet belongs to a sharded
        #: structure, so controllers can find the owner on size changes.
        self.shard_owner = None

    def twin(self) -> "ResourceProclet":
        twin = super().twin()
        twin.shard_owner = self.shard_owner
        return twin

    @property
    def is_memory(self) -> bool:
        return self.kind is ResourceKind.MEMORY

    @property
    def is_compute(self) -> bool:
        return self.kind is ResourceKind.COMPUTE
