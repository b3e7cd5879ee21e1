"""Two-level Quicksand scheduling: fast local reactions + slow global
rebalancing (§5 of the paper)."""

from .affinity import AffinityTracker
from .global_ import GlobalScheduler
from .local import LocalScheduler
from .machine_index import MachineIndex
from .placement import PlacementPolicy

__all__ = [
    "AffinityTracker",
    "GlobalScheduler",
    "LocalScheduler",
    "MachineIndex",
    "PlacementPolicy",
]
