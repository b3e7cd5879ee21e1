"""Unit tests for the ShardAutoscaler control loop: hysteresis,
cool-down, freeze-on-suspect, and fault shedding."""

import pytest

from repro import MachineSpec
from repro.autoscale import AutoscaleConfig
from repro.autoscale import policy
from repro.ft import RecoveryConfig
from repro.units import GiB, KiB, MS, MiB

from ..conftest import make_qs


def make_auto_qs(**kwargs):
    kwargs.setdefault("max_shard_bytes", 256 * KiB)
    kwargs.setdefault("min_shard_bytes", 32 * KiB)
    kwargs.setdefault("enable_local_scheduler", False)
    kwargs.setdefault("enable_global_scheduler", False)
    return make_qs(**kwargs)


def fill_map(qs, m, n, item=64 * KiB, prefix="k"):
    for i in range(n):
        qs.run(until_event=m.put(f"{prefix}{i:04d}", i, item))


def shard_decisions(qs):
    """The autoscaler's split/merge decisions: the ``autoscale`` records
    that carry the controller ``state`` they were evaluated in."""
    return [d for d in qs.runtime.decisions
            if d.category == "autoscale" and "state" in d.fields]


def action(decision):
    return decision.message.split(" ", 1)[0]


class TestEnableHook:
    def test_enable_detaches_legacy_controller(self):
        qs = make_auto_qs()
        legacy = qs.shard_controller
        auto = qs.enable_autoscaler()
        assert qs.shard_controller is None
        assert qs.autoscaler is auto
        assert legacy._detached
        # A heap change through the detached hook is a no-op.
        legacy._on_heap_change(object())

    def test_double_enable_raises(self):
        qs = make_auto_qs()
        qs.enable_autoscaler()
        with pytest.raises(RuntimeError):
            qs.enable_autoscaler()

    def test_config_inherits_size_band_from_qs(self):
        qs = make_auto_qs()
        qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 12)
        qs.run(until=qs.sim.now + 20 * MS)
        band = f"> {qs.config.max_shard_bytes:.0f}"
        assert any(action(d) == "split" and d.message.endswith(band)
                   for d in shard_decisions(qs))

    def test_stop_halts_loop(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        auto.stop()
        fill_map(qs, m, 12)  # 768 KiB: way oversized
        qs.run(until=qs.sim.now + 20 * MS)
        assert m.shard_count == 1  # nobody is looking

    def test_destroyed_structure_drops_out_of_scan(self):
        qs = make_auto_qs()
        qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        assert m in qs.runtime.reshard_ledger.structures()
        m.destroy()
        assert m not in qs.runtime.reshard_ledger.structures()
        qs.run(until=qs.sim.now + 5 * MS)  # loop must not trip on it


class TestSplitMergeDecisions:
    def test_oversized_shard_splits(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 12)  # 768 KiB > 256 KiB
        qs.run(until=qs.sim.now + 20 * MS)
        assert m.shard_count > 1
        assert auto.splits_issued >= 1
        assert qs.runtime.reshard_ledger.counters["split_committed"] >= 1
        # Every key is still readable after the reshards.
        for i in range(12):
            assert qs.run(until_event=m.get(f"k{i:04d}")) == i

    def test_undersized_shard_merges_back(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 12)
        qs.run(until=qs.sim.now + 20 * MS)
        grown = m.shard_count
        assert grown > 1
        for i in range(11):
            qs.run(until_event=m.delete(f"k{i:04d}"))
        qs.run(until=qs.sim.now + 40 * MS)
        assert m.shard_count < grown
        assert auto.merges_issued >= 1
        assert qs.run(until_event=m.get("k0011")) == 11

    def test_hysteresis_no_split_merge_ping_pong(self):
        """A freshly split pair must not immediately re-merge, and a
        merged survivor must not immediately re-split
        (``policy.MERGE_FRACTION`` < 1 guarantees both)."""
        qs = make_auto_qs()
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 6)  # 384 KiB: splits once into in-band halves
        qs.run(until=qs.sim.now + 50 * MS)
        count = m.shard_count
        assert count > 1
        # Long quiet period: no size change, so no further decisions.
        decisions_before = len(shard_decisions(qs))
        qs.run(until=qs.sim.now + 100 * MS)
        assert m.shard_count == count
        assert len(shard_decisions(qs)) == decisions_before
        assert auto.decision_count == decisions_before

    def test_cooldown_defers_structural_changes(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 3)  # 192 KiB: in band, no decision yet
        pid = m.shards[0].ref.proclet_id
        release = qs.sim.now + 50 * MS
        auto._cooldown_until[pid] = release
        fill_map(qs, m, 9, prefix="z")  # now 768 KiB: oversized
        qs.run(until=qs.sim.now + 10 * MS)
        assert m.shard_count == 1  # cooling shard left alone
        assert auto.splits_issued == 0
        qs.run(until=release + 20 * MS)
        assert m.shard_count > 1  # cool-down elapsed, split landed


class TestFaultPosture:
    def _three_machines(self):
        return [MachineSpec(name=f"m{i}", cores=8, dram_bytes=4 * GiB)
                for i in range(3)]

    def test_freeze_while_suspected_then_resume(self):
        qs = make_auto_qs(machines=self._three_machines())
        # Slow confirmation: a wide SUSPECTED window to observe.
        qs.enable_recovery(RecoveryConfig(
            heartbeat_interval=1 * MS, suspect_after=2, confirm_after=60))
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        qs.run(until_event=m.put("seed", 0, 1 * KiB))
        used = {s.ref.machine for s in m.shards} | {m.index_ref.machine}
        victim = next(mach for mach in qs.machines if mach not in used)
        qs.runtime.fail_machine(victim)
        qs.run(until=qs.sim.now + 4 * MS)  # into the SUSPECTED window
        assert qs.recovery.detector.any_suspected()
        assert auto.state == "frozen"
        fill_map(qs, m, 12)  # oversized while frozen
        qs.run(until=qs.sim.now + 3 * MS)
        assert m.shard_count == 1  # decisions logged, none executed
        assert auto.frozen_skips >= 1
        assert any(d.fields["state"] == "frozen"
                   for d in shard_decisions(qs))
        # Confirmation (dead, not suspected) unfreezes the controller:
        # a confirmed-dead machine must not freeze autoscaling forever.
        qs.run(until=qs.sim.now + 80 * MS)
        assert not qs.recovery.detector.any_suspected()
        assert auto.state == "active"
        assert m.shard_count > 1  # the backlog finally drained

    def test_shed_after_sustained_failures_then_recover(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler(AutoscaleConfig(
            fault_shed_threshold=3, shed_backoff=20 * MS))
        m = qs.sharded_map(name="kv")
        # Nowhere to place children: every split op declines.
        real = qs.placement.best_for_memory
        qs.placement.best_for_memory = lambda *a, **k: None
        fill_map(qs, m, 12)
        qs.run(until=qs.sim.now + 30 * MS)
        assert auto.op_failures >= 3
        assert auto.sheds >= 1
        assert auto.shed_skips >= 1
        assert qs.runtime.reshard_ledger.counters["split_aborted"] >= 3
        assert m.shard_count == 1
        # Placement heals; after the backoff the controller resumes
        # automatically and the split lands.
        qs.placement.best_for_memory = real
        qs.run(until=qs.sim.now + 60 * MS)
        assert auto.state == "active"
        assert m.shard_count > 1
        for i in range(12):
            assert qs.run(until_event=m.get(f"k{i:04d}")) == i

    def test_degraded_state_still_logs_decisions(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler(AutoscaleConfig(
            fault_shed_threshold=1, shed_backoff=200 * MS))
        m = qs.sharded_map(name="kv")
        qs.placement.best_for_memory = lambda *a, **k: None
        fill_map(qs, m, 12)
        qs.run(until=qs.sim.now + 30 * MS)
        assert auto.state == "degraded"
        logged = len(shard_decisions(qs))
        qs.run(until=qs.sim.now + 10 * MS)
        # Read-only decision logging continues while shed.
        assert len(shard_decisions(qs)) > logged
        assert any(d.fields["state"] == "degraded"
                   for d in shard_decisions(qs))


class TestDetectorFreezeAccounting:
    def test_suspected_count_round_trip(self):
        qs = make_auto_qs()
        qs.enable_recovery()
        det = qs.recovery.detector
        victim = qs.machines[1]
        assert not det.any_suspected()
        qs.runtime.fail_machine(victim)
        qs.run(until=qs.sim.now + 6 * MS)   # into SUSPECTED
        assert det.any_suspected()
        qs.runtime.restore_machine(victim)
        qs.run(until=qs.sim.now + 6 * MS)   # probed back up -> ALIVE
        assert not det.any_suspected()

    def test_confirmed_dead_does_not_count_as_suspected(self):
        qs = make_auto_qs()
        qs.enable_recovery()
        det = qs.recovery.detector
        qs.runtime.fail_machine(qs.machines[1])
        qs.run(until=qs.sim.now + 20 * MS)  # SUSPECTED -> DEAD
        assert det.confirms >= 1
        assert not det.any_suspected()


class TestPolicyParity:
    """Both controllers share repro.autoscale.policy, so their size
    decisions are provably identical on identical observations."""

    def test_shared_predicates(self):
        assert policy.oversized(300 * KiB, 256 * KiB)
        assert not policy.oversized(256 * KiB, 256 * KiB)
        assert policy.undersized(16 * KiB, 32 * KiB)
        assert not policy.undersized(32 * KiB, 32 * KiB)
        assert policy.merge_fits(100 * KiB, 256 * KiB)
        assert not policy.merge_fits(200 * KiB, 256 * KiB)  # 0.7 band

    def test_merge_fraction_blocks_ping_pong(self):
        """A fresh split (two halves summing to ~max) must never
        immediately re-merge: combined == max fails the 0.7 band."""
        maxb = 256 * KiB
        assert not policy.merge_fits(maxb, maxb)
        # And a just-merged survivor (< 0.7 max) is below max, so it
        # never immediately re-splits.
        assert not policy.oversized(0.69 * maxb, maxb)

    def test_byte_decisions_agree_across_controllers(self):
        """The deprecated heap-change controller and the autoscaler
        make the same byte-size calls on the same observations."""
        maxb, minb = 256 * KiB, 32 * KiB
        sizes = [10 * KiB, 100 * KiB, 257 * KiB, 300 * KiB, 31 * KiB,
                 256 * KiB, 0.0, 1 * MiB]

        def size_decision(heap):
            # Shared shape of ShardSizeController._on_heap_change and
            # ShardAutoscaler._decide, byte checks only.
            if policy.oversized(heap, maxb):
                return "split"
            if policy.undersized(heap, minb):
                return "merge"
            return None

        assert [size_decision(s) for s in sizes] == [
            "merge", None, "split", "split", "merge", None, "merge",
            "split"]


class TestMetrics:
    def test_record_autoscale_stats(self):
        qs = make_auto_qs()
        auto = qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 12)
        qs.run(until=qs.sim.now + 20 * MS)
        stats = qs.metrics.record_stats(auto, "autoscale")
        assert stats["splits_issued"] >= 1
        assert stats["split_committed"] >= 1
        assert stats["decisions"] == len(shard_decisions(qs)) >= 1
        assert stats["state"] == 0  # active
        assert qs.metrics.has("autoscale.decisions")
        assert qs.metrics.has("autoscale.state")
        assert qs.metrics.counter("autoscale.decision.split").total >= 1

    def test_gate_window_accounting(self):
        qs = make_auto_qs()
        qs.enable_autoscaler()
        m = qs.sharded_map(name="kv")
        fill_map(qs, m, 12)
        qs.run(until=qs.sim.now + 20 * MS)
        windows = qs.runtime.gate_windows.get("reshard.split", [])
        assert len(windows) >= 1
        assert max(windows) > 0.0
        assert qs.metrics.counter("runtime.gate.reshard.split").total >= 1


class TestConfigValidation:
    def test_period_positive(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(period=0.0)

    def test_band_ordering(self):
        """The autoscaler's one band is the Quicksand's, validated there."""
        with pytest.raises(ValueError):
            make_auto_qs(max_shard_bytes=32 * KiB,
                         min_shard_bytes=64 * KiB)

    def test_shed_threshold_floor(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(fault_shed_threshold=0)


class TestLoopFailure:
    def test_raise_in_tick_fails_the_chaos_run(self, monkeypatch):
        """A control loop runs as a spawned process: a raise inside a
        tick ends the run instead of silently stopping the loop."""
        from repro.autoscale import ShardAutoscaler
        from repro.chaos import ChaosConfig, run_chaos

        real_tick = ShardAutoscaler._tick
        ticks = []

        def tick(self, now):
            ticks.append(now)
            if len(ticks) == 48:
                raise RuntimeError("tick 48 broke")
            return real_tick(self, now)

        monkeypatch.setattr(ShardAutoscaler, "_tick", tick)
        with pytest.raises(RuntimeError, match="tick 48 broke"):
            run_chaos(ChaosConfig(seed=0, duration=0.5, autoscale=True,
                                  recovery_policy="checkpoint"))
        assert len(ticks) == 48
