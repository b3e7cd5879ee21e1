"""Autoscaler knobs.

The size band itself is not here: the autoscaler reads each
structure's ``max_shard_bytes`` / ``min_shard_bytes`` (``QuicksandConfig``'s
unless the structure has its own), the same band its merge checks
read, and :mod:`repro.autoscale.policy` holds the no-ping-pong
hysteresis proof beside its one merge fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import MS


@dataclass(frozen=True)
class AutoscaleConfig:
    """Configuration of the :class:`~repro.autoscale.ShardAutoscaler`.

    The per-shard ``cooldown`` spaces decisions out when the workload
    itself whipsaws across a threshold.
    """

    #: Control-loop sampling period.
    period: float = 1 * MS
    #: Minimum spacing between structural decisions on the same shard.
    cooldown: float = 2 * MS
    #: Reshard operations allowed in flight per structure.
    max_concurrent: int = 2
    #: Consecutive failed/declined operations before the controller
    #: sheds to read-only decision logging.
    fault_shed_threshold: int = 3
    #: How long a shed lasts before the controller automatically
    #: resumes structural changes.
    shed_backoff: float = 20 * MS

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.cooldown < 0 or self.shed_backoff <= 0:
            raise ValueError("cooldown must be >= 0 and shed_backoff > 0")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.fault_shed_threshold < 1:
            raise ValueError("fault_shed_threshold must be >= 1")
