"""Tests for the elastic in-memory cache."""

import pytest

from repro.apps import ElasticCache
from repro.ds.sharding import hash_key
from repro.units import KiB, MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class TestCacheBasics:
    def test_put_get_hit(self, qs):
        cache = ElasticCache(qs, budget_bytes=16 * MiB)
        qs.run(until_event=cache.put("k", "value", 64 * KiB))
        assert qs.run(until_event=cache.get("k")) == "value"
        assert cache.hit_rate == 1.0

    def test_miss_returns_none(self, qs):
        cache = ElasticCache(qs, budget_bytes=16 * MiB)
        assert qs.run(until_event=cache.get("ghost")) is None
        assert cache.hit_rate == 0.0

    def test_validation(self, qs):
        with pytest.raises(ValueError):
            ElasticCache(qs, budget_bytes=0)

    def test_memory_charged_to_machines(self, qs):
        used0 = sum(m.memory.used for m in qs.machines)
        cache = ElasticCache(qs, budget_bytes=64 * MiB)
        qs.run(until_event=cache.put("big", None, 8 * MiB))
        used1 = sum(m.memory.used for m in qs.machines)
        assert used1 - used0 >= 8 * MiB


class TestEviction:
    def test_budget_enforced(self, qs):
        cache = ElasticCache(qs, budget_bytes=4 * MiB)
        for i in range(16):
            qs.run(until_event=cache.put(f"k{i}", i, 512 * KiB))
        qs.run(until=qs.sim.now + 0.05)
        assert cache.used_bytes <= 4.6 * MiB  # budget + one in-flight put
        assert cache.evictions > 0

    # "n36" has the lowest hash_key of n0..n199: every eviction scan
    # reaches it first, so only its reference bit can save it.
    @pytest.mark.parametrize("hot", ["hot", "n36"])
    def test_recently_used_survive(self, qs, hot):
        """CLOCK keeps hot keys: re-referenced entries get a second
        chance over cold ones, wherever the hot key sorts."""
        assert hash_key("n36") == min(hash_key(f"n{i}") for i in range(200))
        cache = ElasticCache(qs, budget_bytes=3 * MiB)
        qs.run(until_event=cache.put(hot, "H", 1 * MiB))
        qs.run(until_event=cache.put("cold1", None, 1 * MiB))
        # Touch the hot key so its reference bit is set.
        qs.run(until_event=cache.get(hot))
        qs.run(until_event=cache.get(hot))
        # Overflow: someone must go.
        qs.run(until_event=cache.put("cold2", None, 1 * MiB))
        qs.run(until_event=cache.put("cold3", None, 1 * MiB))
        qs.run(until=qs.sim.now + 0.05)
        assert qs.run(until_event=cache.get(hot)) == "H"

    def test_hit_rate_tracks_working_set(self, qs):
        cache = ElasticCache(qs, budget_bytes=32 * MiB)
        rng = qs.sim.random.stream("cache")
        for i in range(50):
            qs.run(until_event=cache.put(f"k{i % 10}", i, 256 * KiB))
        hits_before = cache.hit_rate
        for _ in range(100):
            key = f"k{rng.randrange(10)}"
            qs.run(until_event=cache.get(key))
        assert cache.hit_rate > 0.9  # working set fits comfortably


class TestCacheElasticity:
    def test_shards_follow_memory_pressure(self):
        """When its machine runs out of DRAM, the cache's shards are
        evicted (migrated) elsewhere by the local scheduler — the cache
        keeps serving: the intro's fungible-cache story."""
        from repro import MachineSpec
        from repro.units import GiB

        qs = make_qs(machines=[
            MachineSpec(name="m0", cores=8, dram_bytes=1 * GiB),
            MachineSpec(name="m1", cores=8, dram_bytes=4 * GiB),
        ], enable_global_scheduler=False)
        m0, m1 = qs.machines
        # A foreign tenant holds m1 while the cache fills, so the size
        # controller places the cache's shards on m0.
        ballast = m1.memory.free - 64 * MiB
        m1.memory.reserve(ballast)
        cache = ElasticCache(qs, budget_bytes=512 * MiB)
        for i in range(16):
            qs.run(until_event=cache.put(f"k{i}", i, 24 * MiB))
        assert cache.shard_count >= 4
        assert {m.name for m in cache.shard_machines()} == {"m0"}
        m1.memory.release(ballast)
        # Foreign pressure on m0 pushes it over the watermark.
        m0.memory.reserve(m0.memory.free * 0.97)
        qs.run(until=qs.sim.now + 0.1)
        assert "m1" in {m.name for m in cache.shard_machines()}
        # The cache still serves every key.
        for i in range(16):
            assert qs.run(until_event=cache.get(f"k{i}")) == i

    def test_destroy_releases(self, qs):
        used0 = sum(m.memory.used for m in qs.machines)
        cache = ElasticCache(qs, budget_bytes=64 * MiB)
        qs.run(until_event=cache.put("k", None, 4 * MiB))
        cache.destroy()
        assert sum(m.memory.used for m in qs.machines) == \
            pytest.approx(used0)


@pytest.mark.parametrize("split_merge", [False, True])
def test_fill_settles_inside_budget(split_merge):
    """Evictions in flight count against the overage: the settled cache
    is within one object of its budget, not far below it."""
    qs = make_qs(enable_local_scheduler=False,
                 enable_global_scheduler=False,
                 enable_split_merge=split_merge)
    cache = ElasticCache(qs, budget_bytes=64 * MiB)
    for i in range(200):
        qs.run(until_event=cache.put(f"obj-{i % 100}", i, 1 * MiB))
    qs.run(until=qs.sim.now + 0.05)
    assert 63 * MiB <= cache.used_bytes <= 64 * MiB


def test_cache_is_a_tracked_sharded_structure(qs):
    cache = ElasticCache(qs, budget_bytes=16 * MiB)
    assert cache in qs.runtime.reshard_ledger.structures()
    assert cache.shard_count == 1
    cache.destroy()
    assert cache not in qs.runtime.reshard_ledger.structures()


def test_cache_churn_passes_invariant_checks():
    """Puts, evictions, splits and merges with the chaos invariant
    checker auditing the cache's routing table after every event; the
    hit and eviction counts live on the cache, so a merge that destroys
    a shard loses none of them."""
    from repro.chaos import InvariantChecker

    qs = make_qs(enable_local_scheduler=False,
                 enable_global_scheduler=False)
    checker = InvariantChecker(qs.runtime).attach(qs.sim)
    ledger = qs.runtime.reshard_ledger
    cache = ElasticCache(qs, budget_bytes=32 * MiB)
    for i in range(60):
        qs.run(until_event=cache.put(f"k{i}", i, 1 * MiB))
    qs.run(until=qs.sim.now + 0.05)
    assert ledger.counters["split_committed"] >= 2
    assert cache.evictions > 0
    for i in range(60):
        qs.run(until_event=cache.get(f"k{i}"))
    assert cache.hits > 0 and cache.misses > 0
    # A smaller budget evicts the shards below the band's floor, and
    # the size controller merges them.
    cache.budget_bytes = 4 * MiB
    qs.run(until_event=cache.put("k0", 0, 1 * MiB))
    qs.run(until=qs.sim.now + 0.05)
    assert ledger.counters["merge_committed"] >= 1
    assert cache.used_bytes <= 4 * MiB
    # One more merge, with nothing else running.
    hit_rate, evictions = cache.hit_rate, cache.evictions
    donor = cache.shards[-1]
    moved = [i for i in range(60)
             if hash_key(f"k{i}") in donor.proclet.keys]
    assert moved
    assert qs.run(until_event=cache.reshard_merge_by_id(
        donor.ref.proclet_id)) is True
    assert (cache.hit_rate, cache.evictions) == (hit_rate, evictions)
    for i in moved:
        assert qs.run(until_event=cache.get(f"k{i}")) == i
    checker.check()
    assert checker.checks > 0


def test_lost_shard_does_not_fail_the_run(qs):
    """A put landing after the cache's only shard died with its machine
    fails on its own; the eviction check it triggers skips the lost
    shard instead of raising inside the run."""
    from repro.runtime import ProcletLost

    cache = ElasticCache(qs, budget_bytes=16 * MiB)
    for i in range(4):
        qs.run(until_event=cache.put(f"k{i}", i, 1 * MiB))
    qs.runtime.fail_machine(cache.shards[0].ref.machine)
    put = cache.put("k4", 4, 1 * MiB)
    qs.run(until=qs.sim.now + 0.01)
    assert put.triggered and isinstance(put.value, ProcletLost)
    assert cache.used_bytes == 0.0
