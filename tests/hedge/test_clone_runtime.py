"""Cloned/hedged proclet calls: first-response-wins, real cancellation,
retry/hedge composition, stats and span instrumentation."""

import pytest

from repro import MachineSpec
from repro.ft import RecoveryConfig, RecoveryPolicy
from repro.hedge import CloneCancelled
from repro.runtime import MachineFailed, Proclet, ProcletLost
from repro.units import GiB, MiB

from ..conftest import make_qs


def quiet_qs(machines=None):
    return make_qs(machines=machines, enable_local_scheduler=False,
                   enable_global_scheduler=False, enable_split_merge=False)


class SlowFirst(Proclet):
    """First invocation is 5x slower than the rest — clones of the same
    call land in invocation order, so the fan-out has a clear winner."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def work(self, ctx):
        self.calls += 1
        n = self.calls
        yield ctx.cpu(5e-3 if n == 1 else 1e-3)
        return n


class Steady(Proclet):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def work(self, ctx):
        self.calls += 1
        n = self.calls
        yield ctx.cpu(5e-3)
        return n


class TestFanOut:
    def test_first_response_wins(self):
        qs = quiet_qs()
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        ev = ref.call("work", clone_to=3)
        call = qs.runtime.clone_calls[-1]
        result = qs.run(until_event=ev)
        # The slow first invocation lost to a fast sibling.
        assert result in (2, 3)
        assert call.decided
        assert sum(1 for a in call.attempts if a.won) == 1
        assert call.attempts[call.winner].won
        assert qs.runtime.clone_stats["calls"] == 1
        assert qs.runtime.clone_stats["calls_won"] == 1
        assert qs.runtime.clone_stats["clones_launched"] == 3

    def test_losers_are_cancelled_and_reclaimed(self):
        qs = quiet_qs()
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        ev = ref.call("work", clone_to=3)
        call = qs.runtime.clone_calls[-1]
        qs.run(until_event=ev)
        qs.run(until=qs.sim.now + 0.01)  # let interrupts deliver
        assert call.settled
        assert call not in qs.runtime.clone_calls
        losers = [a for a in call.attempts if not a.won]
        assert losers and all(a.process.triggered for a in losers)
        # Every loser's CPU work came off the fluid scheduler.
        for att in losers:
            assert all(not item.active for item in att.work_items)
        assert not ref.proclet._active_cpu
        assert qs.runtime.clone_stats["losers_cancelled"] >= 1

    def test_cancellation_tombstones_drain(self):
        qs = quiet_qs()
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        qs.run(until_event=ref.call("work", clone_to=3))
        qs.sim.run()  # drain every pending timer past the horizon
        assert qs.sim.stats()["dead_entries"] == 0

    def test_clone_to_one_is_the_plain_path(self):
        qs = quiet_qs()
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        assert qs.run(until_event=ref.call("work", clone_to=1)) == 1
        assert qs.runtime.clone_stats["calls"] == 0
        assert qs.runtime.clone_calls == []


class TestHedging:
    def test_hedge_timer_staggers_the_clones(self):
        qs = quiet_qs()
        ref = qs.spawn(Steady(), qs.machines[0])
        ev = ref.call("work", clone_to=3, hedge_after=1e-3)
        call = qs.runtime.clone_calls[-1]
        result = qs.run(until_event=ev)
        # Primary (5 ms) beats hedges launched at +1 ms and +2 ms.
        assert result == 1
        assert call.winner == 0
        assert call.hedges_fired == 2
        assert len(call.attempts) == 3
        launches = [a.launched_at for a in call.attempts]
        assert launches == sorted(launches)
        assert launches[1] - launches[0] == pytest.approx(1e-3)
        assert qs.runtime.clone_stats["hedges_fired"] == 2

    def test_fast_win_disarms_the_hedge(self):
        qs = quiet_qs()
        ref = qs.spawn(Steady(), qs.machines[0])
        ev = ref.call("work", clone_to=3, hedge_after=1.0)
        call = qs.runtime.clone_calls[-1]
        qs.run(until_event=ev)
        assert call.hedges_fired == 0
        assert len(call.attempts) == 1
        qs.sim.run()  # the cancelled hedge timer must not leak
        assert qs.sim.stats()["dead_entries"] == 0


class TestValidation:
    def test_bad_parameters_rejected(self):
        qs = quiet_qs()
        ref = qs.spawn(Steady(), qs.machines[0])
        with pytest.raises(ValueError):
            ref.call("work", clone_to=0)
        with pytest.raises(ValueError):
            ref.call("work", clone_to=2.5)
        with pytest.raises(ValueError):
            ref.call("work", clone_to=2, hedge_after=0.0)

    def test_hedged_nonretryable_fanout_rejected(self):
        # A hedge races the original, so the body may run twice —
        # incompatible with at-most-once.
        qs = quiet_qs()
        ref = qs.spawn(Steady(), qs.machines[0])
        with pytest.raises(ValueError):
            ref.call("work", clone_to=2, hedge_after=1e-3,
                     retryable=False)


class TestFailures:
    def test_all_clones_crashing_fails_the_call(self):
        qs = quiet_qs()
        m0, _ = qs.machines
        ref = qs.spawn(Steady(), m0)
        ev = ref.call("work", clone_to=2)
        qs.run(until=qs.sim.now + 1e-3)
        qs.runtime.fail_machine(m0)
        with pytest.raises(MachineFailed):
            qs.run(until_event=ev)

    def test_clones_share_one_retry_budget(self):
        """Retries and clones compose, not multiply: with the target
        unrecoverable, a clone-to-2 call burns ONE recovery retry
        budget, not one per clone."""
        qs = quiet_qs([MachineSpec(name="m0", cores=4, dram_bytes=2 * GiB),
                       MachineSpec(name="m1", cores=4, dram_bytes=2 * GiB)])
        cfg = RecoveryConfig(heartbeat_interval=1e-3, suspect_after=2,
                             confirm_after=4, retry_budget=4,
                             retry_backoff=1e-3)
        manager = qs.enable_recovery(cfg)
        ref = qs.spawn_memory(machine=qs.machines[0], name="doomed")
        qs.run(until_event=ref.call("mp_put", 0, 1 * MiB, "x"))
        manager.protect(ref, RecoveryPolicy.RESTART)
        qs.runtime.fail_machine(qs.machines[0])
        qs.runtime.fail_machine(qs.machines[1])
        ev = ref.call("mp_get", 0, clone_to=2)
        with pytest.raises(ProcletLost):
            qs.run(until_event=ev, until=2.0)
        retries = qs.metrics.counter("ft.call_retries").total
        # Shared index: both clones read the same counter, so the total
        # can overshoot by at most one — never 2x the budget.
        assert retries <= cfg.retry_budget + 1
        assert retries < 2 * cfg.retry_budget


class TestObservability:
    def test_record_clone_stats(self):
        qs = quiet_qs()
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        qs.run(until_event=ref.call("work", clone_to=2))
        qs.run(until=qs.sim.now + 0.01)
        stats = qs.metrics.record_stats(qs.runtime, "hedge")
        assert stats["calls"] == 1
        assert stats["calls_won"] == 1
        assert stats["clones_launched"] == 2
        assert stats["unsettled_calls"] == 0
        assert qs.metrics.gauge("hedge.calls_won").level == 1

    def test_spans_cover_the_clone_lifecycle(self):
        from repro.obs import SpanTracer

        qs = quiet_qs()
        tr = SpanTracer(qs.sim)
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        qs.run(until_event=ref.call("work", clone_to=3))
        spans = [s for s in tr.spans if s.category == "hedge"]
        assert spans
        call_span = next(s for s in spans if s.args.get("clones") == 3)
        assert call_span.closed
        assert call_span.args["outcome"] == "won"
        assert call_span.args["attempts"] == 3
        # The two fast siblings tie: one wins, the other completes in
        # the same instant (late completion) — only the slow primary is
        # actually cancelled.
        cancels = [s for s in spans if s.name.startswith("cancel clone")]
        assert len(cancels) == 1
        assert all(s.parent_id == call_span.sid for s in cancels)
        assert call_span.args["executions"] == 3

    def test_invariant_checker_accepts_hedged_traffic(self):
        from repro.chaos import InvariantChecker

        qs = quiet_qs()
        checker = InvariantChecker(qs.runtime).attach(qs.sim)
        ref = qs.spawn(SlowFirst(), qs.machines[0])
        for _ in range(10):
            qs.run(until_event=ref.call("work", clone_to=3,
                                        hedge_after=0.5e-3))
        qs.run(until=qs.sim.now + 0.01)
        assert checker.checks > 0
        checker.check()

    def test_clone_cancelled_is_a_runtime_fault(self):
        from repro.runtime.errors import RuntimeFault

        assert issubclass(CloneCancelled, RuntimeFault)
