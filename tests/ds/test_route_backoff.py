"""Regression tests for routed-call retry behavior.

A routed call whose shard was lost to a machine failure re-attempts
against the updated table at once, from one shared budget of
``ROUTE_ATTEMPTS``; spacing retries to a lost proclet is the recovery
layer's job (``RecoveryManager.retry_delay``), not the router's.
"""

from collections import Counter

import pytest

from repro.ds.sharding import ROUTE_ATTEMPTS
from repro.runtime import DeadProclet
from repro.units import KiB

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
        """All retries fire at the same instant and draw no random
        numbers."""
        qs, m = make_map()
        kill_shard(qs, m)
        before = qs.sim.now
        streams = set(qs.sim.random._streams)
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k"))
        assert qs.sim.now == before
        assert set(qs.sim.random._streams) == streams

    def test_shared_retry_budget_is_exact(self):
        """All 8 attempts of the shared budget are spent on the dead
        route, then the last error surfaces."""
        qs, m = make_map()
        kill_shard(qs, m)
        pid = m.shards[0].ref.proclet_id
        routed_before = m.routed[pid]
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k"))
        assert m.routed[pid] - routed_before == ROUTE_ATTEMPTS == 8
