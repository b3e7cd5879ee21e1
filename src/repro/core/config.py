"""Tunable knobs of the Quicksand layer, in one place."""

from __future__ import annotations

from dataclasses import dataclass

from ..units import MS, MiB, US


@dataclass(frozen=True)
class QuicksandConfig:
    """Configuration of schedulers and split/merge.

    Defaults are calibrated to the paper's regime: sub-millisecond
    migrations, ~millisecond-scale reactions, 10–15 ms re-equilibration.
    """

    # -- shard sizing (§3.3: max size from a target migration latency) ----
    #: Split a memory shard beyond this many bytes (~1.3 ms to migrate
    #: at 100 Gbit/s, keeping migrations within the paper's "few ms").
    max_shard_bytes: float = 16 * MiB
    #: Merge a shard below this many bytes into its neighbour.
    min_shard_bytes: float = 1 * MiB
    #: Fixed control cost of a split or merge operation.
    split_overhead: float = 100 * US

    # -- local (fast) scheduler ----------------------------------------------
    #: How long a proclet must be CPU-starved before we migrate it.
    starvation_patience: float = 200 * US
    #: Minimum time between migrations of the same proclet.
    migration_cooldown: float = 2 * MS
    #: DRAM fraction that triggers memory-pressure eviction.
    memory_watermark: float = 0.92

    # -- global (slow) scheduler ---------------------------------------------
    global_interval: float = 50 * MS
    #: Decayed remote-call count beyond which colocation is considered.
    affinity_threshold: float = 50.0

    # -- compute autoscaling (§3.3 / Fig. 3) -----------------------------------
    #: Controller sampling period.
    autoscale_period: float = 1 * MS

    # -- feature switches (for ablations) -----------------------------------------
    enable_local_scheduler: bool = True
    enable_global_scheduler: bool = True
    enable_split_merge: bool = True

    def __post_init__(self):
        if self.max_shard_bytes <= self.min_shard_bytes:
            raise ValueError("max_shard_bytes must exceed min_shard_bytes")
        if not 0.0 < self.memory_watermark <= 1.0:
            raise ValueError("memory_watermark must be in (0, 1]")
        if self.autoscale_period <= 0 or self.global_interval <= 0:
            raise ValueError("scheduler periods must be positive")
