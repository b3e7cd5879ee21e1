"""Shard autoscaler: hysteresis control loop + crash-safe resharding.

ROADMAP item 2 (modeled on the Neon shard-splitting RFC and Ceph's
pg_autoscaler): per-shard capacity limits on bytes, objects, and routed
call rate; hysteresis bands and cool-downs so decisions never
oscillate; and a two-phase reshard protocol (prepare → commit →
cleanup, with explicit rollback on machine failure at any phase) so no
human ever chooses shard counts and no crash ever strands a key.

Enable the loop with :meth:`repro.core.Quicksand.enable_autoscaler`.
The reshard protocol (:mod:`repro.autoscale.reshard`) runs every shard
split and merge whichever controller asks for it.
"""

from .config import AutoscaleConfig
from .controller import ShardAutoscaler

__all__ = [
    "AutoscaleConfig",
    "ShardAutoscaler",
]
