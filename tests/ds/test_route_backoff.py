"""Regression tests for routed-call retry behavior.

A routed call whose shard was lost to a machine failure re-attempts
against the updated table.  Historically every re-attempt fired at the
same virtual instant — a retry *storm* against the routing layer while
nothing could possibly have changed.  ``route_retry_backoff`` spaces
lost-shard retries with seeded exponential backoff; the default of 0
preserves the old (bit-identical) trajectories.
"""

from collections import Counter

import pytest

from repro.runtime import DeadProclet
from repro.units import KiB, MS

from ..conftest import make_qs


def make_map(**config_kwargs):
    config_kwargs.setdefault("max_shard_bytes", 256 * KiB)
    config_kwargs.setdefault("min_shard_bytes", 32 * KiB)
    config_kwargs.setdefault("enable_local_scheduler", False)
    config_kwargs.setdefault("enable_global_scheduler", False)
    config_kwargs.setdefault("enable_split_merge", False)
    qs = make_qs(**config_kwargs)
    m = qs.sharded_map(name="kv")
    m.routed = count_routes(m)
    qs.run(until_event=m.put("k", 1, 64 * KiB))
    return qs, m


def count_routes(m):
    """Count every routing attempt of *m* per shard proclet id (each
    try of ``call_routed`` routes once)."""
    counts = Counter()
    route = m.route

    def counting_route(key):
        ref = route(key)
        counts[ref.proclet_id] += 1
        return ref

    m.route = counting_route
    return counts


def kill_shard(qs, m):
    qs.runtime.fail_machine(m.shards[0].ref.machine)


class TestDefaultNoBackoff:
    def test_lost_shard_retries_do_not_advance_time(self):
        """Compatibility: with backoff 0 all retries fire at the same
        instant and no jitter RNG stream is ever created."""
        qs, m = make_map()
        kill_shard(qs, m)
        before = qs.sim.now
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k"))
        assert qs.sim.now == before
        assert "ds.route.backoff" not in qs.sim.random._streams

    def test_shared_retry_budget_is_exact(self):
        """All 8 attempts of the shared budget are spent on the dead
        route, then the last error surfaces."""
        qs, m = make_map()
        kill_shard(qs, m)
        pid = m.shards[0].ref.proclet_id
        routed_before = m.routed[pid]
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k"))
        assert m.routed[pid] - routed_before == 8


class TestExponentialBackoff:
    def test_retries_advance_virtual_time(self):
        qs, m = make_map(route_retry_backoff=1 * MS,
                         route_retry_jitter=0.0)
        kill_shard(qs, m)
        before = qs.sim.now
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k"))
        # 8 failed attempts each back off before the next check:
        # 1 + 2 + ... + 128 ms = 255 ms of real spacing, not a storm.
        assert qs.sim.now - before >= 255 * MS

    def test_budget_unchanged_by_backoff(self):
        qs, m = make_map(route_retry_backoff=1 * MS,
                         route_retry_jitter=0.0)
        kill_shard(qs, m)
        pid = m.shards[0].ref.proclet_id
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k"))
        assert m.routed[pid] == 8 + 1  # +1: the original put

    def test_jitter_is_seeded_and_deterministic(self):
        def total_delay():
            qs, m = make_map(route_retry_backoff=1 * MS,
                             route_retry_jitter=0.5)
            kill_shard(qs, m)
            before = qs.sim.now
            with pytest.raises(DeadProclet):
                qs.run(until_event=m.get("k"))
            return qs.sim.now - before

        a, b = total_delay(), total_delay()
        assert a == b  # same seed, same trajectory
        assert a > 255 * MS  # jitter only ever adds delay

    def test_no_retry_storm_under_fan_in(self):
        """Many concurrent callers against a lost shard spread their
        retries over virtual time instead of hammering one instant."""
        qs, m = make_map(route_retry_backoff=1 * MS)
        kill_shard(qs, m)
        pid = m.shards[0].ref.proclet_id
        routed_before = m.routed[pid]
        events = [m.get("k") for _ in range(20)]
        for ev in events:
            with pytest.raises(DeadProclet):
                qs.run(until_event=ev)
        # Bounded total attempts: exactly the shared budget per caller.
        assert m.routed[pid] - routed_before == 20 * 8
        # And they were spread out, not a same-instant storm.
        assert qs.sim.now >= 255 * MS


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"route_retry_backoff": -1.0},
        {"route_retry_jitter": -0.1},
        {"route_retry_multiplier": 0.5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_map(**kwargs)
