"""Shared size-threshold predicates.

Both the deprecated heap-change-driven
:class:`~repro.core.splitmerge.ShardSizeController` and the
:class:`~repro.autoscale.ShardAutoscaler` control loop decide through
these three functions, on the size reading and band each structure
supplies (:class:`~repro.autoscale.reshard.ReshardHooks`: heap bytes
against ``QuicksandConfig``'s band for the memory structures, stored
bytes against its own band for the sharded store), so the two paths
provably agree on what counts as oversized/undersized (pinned by the
fig2 decision-parity test).

Hysteresis: a split fires at ``size > max_shard_bytes`` and produces
two children of ~``max/2`` bytes each; a merge fires only when the
*combined* size of a shard and its partner is below
``MERGE_FRACTION * max_shard_bytes``.  With a fraction below 1
the children of a fresh split sum to ~``max`` > the merge threshold, so
they can never immediately re-merge, and a fresh merge's survivor is
below the threshold < ``max``, so it can never immediately re-split —
no controller timing can make a shard oscillate.

Import-free within the package: callable from anywhere without cycles.
"""

from __future__ import annotations

#: Merge hysteresis factor; must stay in (0, 1) for the proof above.
MERGE_FRACTION = 0.7


def oversized(size: float, max_shard_bytes: float) -> bool:
    """Should this shard split on byte size?"""
    return size > max_shard_bytes


def undersized(size: float, min_shard_bytes: float) -> bool:
    """Is this shard small enough to consider merging away?"""
    return size < min_shard_bytes


def merge_fits(combined_bytes: float, max_shard_bytes: float) -> bool:
    """May two partners merge?  True only when their combined size sits
    safely below the split threshold (hysteresis: a merged survivor must
    not immediately re-split)."""
    return combined_bytes < MERGE_FRACTION * max_shard_bytes
