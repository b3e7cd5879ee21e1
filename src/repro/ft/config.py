"""Recovery policies and tunables for the fault-tolerance subsystem."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..units import MS, US


class RecoveryPolicy(enum.Enum):
    """What the runtime does for a proclet lost to a machine crash.

    ``NONE``
        Today's fail-stop semantics: the proclet stays dead, callers see
        :class:`~repro.runtime.errors.ProcletLost`, redo logic is the
        application's policy.  Trajectories are bit-identical to runs
        without :mod:`repro.ft`.
    ``RESTART``
        Respawn an empty incarnation, the lost proclet's
        :meth:`~repro.runtime.Proclet.twin` (wired like it: shard
        owner, task source).  All state is lost; the id (and every
        outstanding ref) stays valid.
    ``CHECKPOINT``
        Periodic asynchronous heap snapshots to a peer machine (NIC and
        peer-DRAM costs through the fluid engine); restore from the last
        snapshot with data loss bounded by the checkpoint interval.
    ``REPLICATE``
        Hot standby on a peer machine mirroring state writes; on crash
        the primary is promoted onto the standby's machine with zero
        data loss.
    ``LINEAGE``
        Respawn empty, then re-derive state by replaying logged upstream
        inputs (Ray-style) through ordinary invocations.
    """

    NONE = "none"
    RESTART = "restart"
    CHECKPOINT = "checkpoint"
    REPLICATE = "replicate"
    LINEAGE = "lineage"


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for one :class:`~repro.ft.RecoveryManager`.

    Defaults are sized so that, with the default retry budget, a
    transparently retried call comfortably outlives detection plus
    restore of its target (detection confirms after
    ``confirm_after * heartbeat_interval`` of virtual time; the retry
    envelope sums to well over 100 ms).
    """

    #: Failure-detector probe period (virtual seconds).
    heartbeat_interval: float = 2 * MS
    #: Missed heartbeats before a machine is *suspected* (placement
    #: stops targeting it, but nothing is recovered yet).
    suspect_after: int = 2
    #: Missed heartbeats before the death is *confirmed* and recovery
    #: of the lost proclets begins.  Must be > suspect_after.
    confirm_after: int = 4
    #: Period of asynchronous heap snapshots under CHECKPOINT.
    checkpoint_interval: float = 50 * MS
    #: Period of mirrored-write synchronization under REPLICATE.
    mirror_interval: float = 10 * MS
    #: Control-plane cost of respawning one proclet.
    restart_overhead: float = 100 * US
    #: Transparent-retry budget for calls that hit a lost proclet.
    retry_budget: int = 8
    #: First retry delay; each further retry multiplies it.
    retry_backoff: float = 500 * US
    retry_backoff_multiplier: float = 2.0
    #: Fraction of the current backoff added as seeded jitter (drawn
    #: from the ``ft.retry`` stream; keeps replays deterministic while
    #: desynchronizing concurrent retriers).
    retry_jitter: float = 0.5

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.suspect_after < 1:
            raise ValueError(f"suspect_after must be >= 1: "
                             f"{self.suspect_after}")
        if self.confirm_after <= self.suspect_after:
            raise ValueError(
                f"confirm_after ({self.confirm_after}) must exceed "
                f"suspect_after ({self.suspect_after})")
        if self.checkpoint_interval <= 0 or self.mirror_interval <= 0:
            raise ValueError("checkpoint/mirror intervals must be positive")
        if self.restart_overhead < 0:
            raise ValueError("restart_overhead must be non-negative")
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0: "
                             f"{self.retry_budget}")
        if self.retry_backoff < 0 or self.retry_jitter < 0:
            raise ValueError("retry backoff and jitter must be "
                             "non-negative")
        if self.retry_backoff_multiplier < 1.0:
            raise ValueError("retry_backoff_multiplier must be >= 1")
