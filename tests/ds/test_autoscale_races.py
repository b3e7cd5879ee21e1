"""Stateful race tests for the two-phase reshard protocol.

Hypothesis interleaves key traffic (puts/reads/deletes) with splits and
merges left *in flight*, machine crashes landing at arbitrary protocol
phases, and time advancement — against a dict oracle with table-based
lost-key bookkeeping:

* a key acked and not provably lost to a crash MUST read back its exact
  oracle value (no lost or double-routed keys across reshard commits
  and aborts);
* a key whose table-routed shard sat on a crashed machine MUST raise
  ``DeadProclet`` (fail-stop, no recovery configured — silent
  resurrection would be a bug too).

The chaos ``InvariantChecker`` is attached for the whole run, so the
reshard-integrity invariants (routable-keys-always, range-map
agreement, no orphaned children) are audited after every simulator
event, including the events between a crash and the protocol rollback.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro import MachineSpec
from repro.chaos import InvariantChecker
from repro.ds.sharding import BOTTOM
from repro.runtime import DeadProclet, ProcletStatus
from repro.units import GiB, KiB

from ..conftest import make_qs

_KEYS = st.sampled_from([f"key{i:02d}" for i in range(30)])


class ReshardRaceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        machines = [MachineSpec(name=f"m{i}", cores=8,
                                dram_bytes=4 * GiB) for i in range(3)]
        self.qs = make_qs(machines=machines,
                          max_shard_bytes=256 * KiB,
                          min_shard_bytes=32 * KiB,
                          enable_local_scheduler=False,
                          enable_global_scheduler=False,
                          enable_split_merge=False)
        self.checker = InvariantChecker(self.qs.runtime).attach(
            self.qs.sim)
        self.map = self.qs.sharded_map(name="kv")
        self.oracle = {}
        self.lost = set()

    # -- key traffic ---------------------------------------------------------
    @rule(key=_KEYS, value=st.integers(0, 10**6),
          kib=st.integers(1, 64))
    def put(self, key, value, kib):
        ev = self.map.put(key, value, kib * KiB)
        try:
            self.qs.sim.run(until_event=ev)
        except DeadProclet:
            return  # routed to a crashed shard; nothing was acked
        assert key not in self.lost, \
            f"write to {key} succeeded but its range was lost"
        self.oracle[key] = value

    @rule(key=_KEYS)
    def read(self, key):
        ev = self.map.get(key)
        if key in self.lost:
            with pytest.raises(DeadProclet):
                self.qs.sim.run(until_event=ev)
        elif key in self.oracle:
            assert self.qs.sim.run(until_event=ev) == self.oracle[key]
        else:
            # Never acked: absent (KeyError) or its range is down.
            with pytest.raises((KeyError, DeadProclet)):
                self.qs.sim.run(until_event=ev)

    @rule(key=_KEYS)
    def delete(self, key):
        ev = self.map.delete(key)
        try:
            self.qs.sim.run(until_event=ev)
        except DeadProclet:
            return
        except KeyError:
            assert key not in self.oracle or key in self.lost
            return
        assert key not in self.lost, \
            f"delete of {key} succeeded but its range was lost"
        assert key in self.oracle
        del self.oracle[key]

    # -- resharding, left in flight ------------------------------------------
    def _live_shards(self):
        out = []
        for s in self.map.shards:
            p = self.qs.runtime._proclets.get(s.ref.proclet_id)
            if p is not None and p.status is ProcletStatus.RUNNING:
                out.append((s, p))
        return out

    @rule(idx=st.integers(0, 7))
    def start_split(self, idx):
        cands = [(s, p) for s, p in self._live_shards()
                 if p.object_count >= 2]
        if not cands:
            return
        shard, _ = cands[idx % len(cands)]
        self.map.reshard_split_by_id(shard.ref.proclet_id)

    @rule(idx=st.integers(0, 7))
    def start_merge(self, idx):
        if self.map.shard_count < 2:
            return
        live = self._live_shards()
        if not live:
            return
        shard, _ = live[idx % len(live)]
        self.map.reshard_merge_by_id(shard.ref.proclet_id)

    # -- faults ---------------------------------------------------------------
    @rule(mi=st.integers(0, 2))
    def crash_and_restore(self, mi):
        """Fail a machine — possibly mid-protocol — and account which
        acked keys died with it, judging by the authoritative table.

        A key is lost when its routed shard is gone or sits on the
        crashed machine.  A shard that is merely gated (by a split or a
        merge in flight) on a surviving machine still holds the key: the
        protocol either commits or rolls back around it."""
        machine = self.qs.machines[mi % len(self.qs.machines)]
        for key in self.oracle:
            if key in self.lost:
                continue
            ref = self.map.route(key)
            p = self.qs.runtime._proclets.get(ref.proclet_id)
            if p is None or p.machine is machine:
                self.lost.add(key)
        self.qs.runtime.fail_machine(machine)
        # Let in-flight protocol ops observe the failure and roll back,
        # then bring the (empty) machine back: fail-stop, no recovery.
        self.qs.sim.run(until=self.qs.sim.now + 0.0005)
        self.qs.runtime.restore_machine(machine)

    @rule(dt=st.floats(0.001, 0.02))
    def advance(self, dt):
        self.qs.sim.run(until=self.qs.sim.now + dt)

    # -- invariants ------------------------------------------------------------
    @invariant()
    def routing_table_sorted_and_consistent(self):
        if not hasattr(self, "map"):
            return
        assert [s.lo for s in self.map.shards] == self.map._los
        assert self.map.shards[0].lo == BOTTOM

    @invariant()
    def acked_size_agrees(self):
        if not hasattr(self, "oracle"):
            return
        assert len(self.map) == len(self.oracle)


TestReshardRaces = ReshardRaceMachine.TestCase
TestReshardRaces.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)


def test_gated_shard_on_a_surviving_machine_keeps_its_keys():
    """A crash while key00's shard on m1 is gated by a split whose child
    lands on m2: the split commits and the later write is served, so
    the key was never lost."""
    race = ReshardRaceMachine()
    race.setup()
    try:
        race.put("key02", 0, 1)
        race.put("key00", 0, 1)
        race.crash_and_restore(0)
        race.start_split(0)
        race.put("key01", 0, 1)
        race.start_split(0)
        race.delete("key02")
        race.crash_and_restore(0)
        race.crash_and_restore(0)
        race.put("key00", 0, 1)
        assert "key00" not in race.lost
        assert race.qs.sim.run(until_event=race.map.get("key00")) == 0
    finally:
        race.teardown()
