#!/usr/bin/env python
"""An elastic in-memory cache that consumes only the memory utility.

The paper's opening example: a Lambda user running an in-memory cache
pays for CPU they never use, because the cloud bundles resources.  On
Quicksand the cache is pure memory proclets — it takes DRAM wherever
DRAM is free, follows memory pressure across machines, and costs
(almost) zero CPU.

Run:  python examples/elastic_cache.py
"""

from repro import ClusterSpec, GiB, MachineSpec, MiB, Quicksand
from repro.apps import ElasticCache
from repro.units import KiB


def main():
    qs = Quicksand(ClusterSpec(machines=[
        MachineSpec(name="m0", cores=8, dram_bytes=2 * GiB),
        MachineSpec(name="m1", cores=8, dram_bytes=2 * GiB),
    ]))
    cache = ElasticCache(qs, budget_bytes=64 * MiB)

    # Fill with a 100-key working set; CLOCK eviction keeps the budget.
    for i in range(200):
        qs.run(until_event=cache.put(f"obj-{i % 100}", i, 1 * MiB))
    qs.run(until=qs.sim.now + 0.05)  # eviction settles

    rng = qs.sim.random.stream("traffic")
    for _ in range(500):
        qs.run(until_event=cache.get(f"obj-{rng.randrange(100)}"))

    print(f"cache budget: 64 MiB, used: {cache.used_bytes / MiB:.1f} MiB")
    print(f"hit rate over 500 lookups: {cache.hit_rate * 100:.1f}%")
    print(f"evictions so far: {cache.evictions}")
    machines = {}
    for m in cache.shard_machines():
        machines[m.name] = machines.get(m.name, 0) + 1
    print(f"shards per machine: {machines}")

    # CPU footprint: essentially nothing — the point of the example.
    cpu_used = sum(m.cpu.sched.served_integral for m in qs.machines)
    print(f"total CPU consumed by the cache: {cpu_used * 1e3:.2f} "
          f"core-milliseconds over {qs.sim.now:.3f}s of serving")


if __name__ == "__main__":
    main()
