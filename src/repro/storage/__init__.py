"""Storage abstractions over storage proclets: flat namespace (§3.2)
and range-sharded persistent store with §3.3 split/merge."""

from .flat import FlatStorage
from .sharded import ShardedStore

__all__ = ["FlatStorage", "ShardedStore"]
