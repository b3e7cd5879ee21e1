"""Edge-case tests for the simulator's scheduling API."""

import math

import pytest

from repro.sim import Simulator
from repro.sim.events import NORMAL, URGENT


@pytest.fixture
def sim():
    return Simulator()


class TestSchedulingEdges:
    def test_schedule_into_past_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError):
            sim._schedule(ev, delay=-1.0)

    def test_call_at_past_rejected(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)

    def test_peek_empty(self, sim):
        assert sim.peek() == math.inf

    def test_peek_next_event_time(self, sim):
        sim.timeout(3.0)
        sim.timeout(1.0)
        assert sim.peek() == 1.0

    def test_processed_events_counts(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.processed_events == 5

    def test_run_until_event_already_processed(self, sim):
        ev = sim.timeout(1.0, value="x")
        sim.run()
        assert sim.run(until_event=ev) == "x"

    def test_run_until_exactly_event_time(self, sim):
        fired = []
        sim.call_at(2.0, fired.append, 1)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_spawn_alias(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "ok"

        p = sim.spawn(proc())
        assert sim.run(until_event=p) == "ok"

    def test_clock_advances_to_until_with_no_events(self, sim):
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_until_event_that_deadlocks_raises(self, sim):
        """A drained queue with the awaited event untriggered is a
        deadlock — surfacing it beats silently returning None (which
        lets callers mistake a hung operation for a completed one)."""
        ev = sim.event()  # nothing will ever succeed this
        sim.timeout(1.0)
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run(until_event=ev)

    def test_run_until_bounds_an_untriggered_event(self, sim):
        """With an explicit time bound the caller asked for a bounded
        wait, so an untriggered event is not an error."""
        ev = sim.event()
        assert sim.run(until=1.0, until_event=ev) is None
        assert sim.now == 1.0

    def test_repr(self, sim):
        assert "Simulator" in repr(sim)

    def test_start_time(self):
        sim = Simulator(start=10.0)
        assert sim.now == 10.0
        t = sim.timeout(1.0)
        sim.run()
        assert sim.now == 11.0


class TestEventOrderingAtSameTime:
    def test_fifo_within_timestamp(self, sim):
        order = []
        for i in range(10):
            sim.call_in(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_nested_zero_delay_events_make_progress(self, sim):
        """Zero-delay chains execute in bounded steps per timestamp."""
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 100:
                sim.call_in(0.0, chain)

        sim.call_in(0.0, chain)
        sim.run(until=1.0)
        assert count[0] == 100
        assert sim.now == 1.0


def _lcg(seed=12345):
    """Deterministic pseudorandom floats in [0, 1) (no global RNG)."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        yield (state >> 11) / float(1 << 53)


class TestHeapOrdering:
    def test_storm_fires_live_timers_in_when_seq_order(self, sim):
        """Random sub-ms, sub-second and multi-second timers, every
        seventh cancelled: the live ones fire exactly in ``(when,
        scheduling order)`` order, each at its own instant, and the
        cancelled ones never."""
        rnd = _lcg()
        fired = []
        scheduled = []
        events = []
        for i in range(400):
            r = next(rnd)
            if r < 0.3:
                delay = next(rnd) * 5e-4
            elif r < 0.8:
                delay = next(rnd) * 0.9
            else:
                delay = 1.0 + next(rnd) * 3.0
            ev = sim.timeout(delay)
            ev.subscribe(lambda _e, i=i: fired.append((sim.now, i)))
            scheduled.append((delay, i))
            events.append(ev)
        for i in range(0, 400, 7):
            assert sim.cancel(events[i])
        sim.run()
        expected = sorted((when, i) for when, i in scheduled if i % 7)
        assert fired == expected
        assert sim.processed_events == len(expected)
        assert sim.queued == 0
        assert sim.dead_entries == 0

    def test_same_instant_orders_by_priority_then_seq(self, sim):
        """Ties at one timestamp break by priority (URGENT first), then
        by scheduling order."""
        log = []
        for i in range(20):
            ev = sim.event()
            sim._schedule(ev, 0.01, priority=URGENT if i % 3 else NORMAL)
            ev.subscribe(lambda _e, i=i: log.append(i))
        sim.run()
        assert log == ([i for i in range(20) if i % 3]
                       + [i for i in range(20) if not i % 3])


class TestCancellation:
    def test_cancel_skips_callbacks(self, sim):
        fired = []
        ev = sim.call_in(1.0, fired.append, 1)
        assert sim.cancel(ev) is True
        sim.run()
        assert fired == []
        assert ev.cancelled

    def test_cancelled_timer_never_fires_and_leaves_nothing_queued(self,
                                                                   sim):
        fired = []
        ev = sim.timeout(0.01)
        ev.subscribe(lambda _e: fired.append("no"))
        assert sim.cancel(ev)
        assert sim.queued == 0
        sim.run()
        assert fired == []
        assert sim.queued == 0
        assert sim.dead_entries == 0
        assert sim.tombstones_popped == 1

    def test_cancel_twice_returns_false(self, sim):
        ev = sim.call_in(1.0, lambda: None)
        assert sim.cancel(ev) is True
        assert sim.cancel(ev) is False
        assert sim.dead_entries == 1

    def test_cancel_processed_event_returns_false(self, sim):
        ev = sim.timeout(1.0)
        sim.run()
        assert sim.cancel(ev) is False
        assert sim.dead_entries == 0

    def test_cancel_untriggered_plain_event_returns_false(self, sim):
        ev = sim.event()  # never scheduled
        assert sim.cancel(ev) is False

    def test_dead_entries_reclaimed_on_pop(self, sim):
        keep = sim.timeout(2.0)
        for _ in range(5):
            sim.cancel(sim.timeout(1.0))
        assert sim.dead_entries == 5
        assert sim.queued == 1
        sim.run()
        assert sim.dead_entries == 0
        assert sim.processed_events == 1  # only the live one
        assert sim.now == 2.0

    def test_peek_skips_tombstones(self, sim):
        sim.timeout(3.0)
        dead = sim.timeout(1.0)
        sim.cancel(dead)
        assert sim.peek() == 3.0


class TestHeapCompaction:
    def test_mass_cancellation_triggers_compaction(self, sim):
        events = [sim.timeout(1.0) for _ in range(200)]
        for ev in events[:150]:
            sim.cancel(ev)
        assert sim.compactions >= 1
        # any stragglers cancelled after the sweep stay below threshold
        assert sim.dead_entries < 64
        assert sim.queued == 50
        sim.run()
        assert sim.processed_events == 50

    def test_small_heaps_are_not_compacted(self, sim):
        for _ in range(10):
            sim.cancel(sim.timeout(1.0))
        assert sim.compactions == 0  # below _COMPACT_MIN_DEAD
        assert sim.dead_entries == 10

    def test_heap_stats_dict(self, sim):
        sim.timeout(1.0)
        sim.cancel(sim.timeout(2.0))
        stats = sim.stats()
        assert stats == {"queued": 1, "dead_entries": 1, "compactions": 0,
                         "cancellations": 1, "tombstones_popped": 0}

    def test_repr_shows_heap_diagnostics(self, sim):
        sim.cancel(sim.timeout(1.0))
        r = repr(sim)
        assert "queued=0" in r
        assert "dead=1" in r
        assert "compactions=" in r

    def test_metrics_record_heap_stats(self, sim):
        from repro.metrics import MetricsRecorder

        metrics = MetricsRecorder(sim)
        sim.timeout(1.0)
        sim.cancel(sim.timeout(2.0))
        stats = metrics.record_stats(sim, "sim.heap")
        assert stats["queued"] == 1
        assert stats["dead_entries"] == 1
        assert metrics.gauge("sim.heap.queued").level == 1
        assert metrics.gauge("sim.heap.dead_entries").level == 1


class TestPendingFlushDraining:
    """Coalesced fluid reassignments must complete before time advances
    — including under step()-driven execution."""

    def _dirty_scheduler_in_process(self, sim):
        from repro.sim import FluidScheduler

        sched = FluidScheduler(sim, 2.0, name="cpu")
        out = {}

        def burst():
            out["item"] = sched.submit(work=4.0, demand=2.0)
            yield sim.timeout(10.0)

        sim.process(burst())
        return sched, out

    def test_step_drains_flushes_before_advancing(self, sim):
        sched, out = self._dirty_scheduler_in_process(sim)
        sim.step()  # runs the process: submit marks the scheduler dirty
        for _ in range(10):
            if out["item"].triggered:
                break
            sim.step()
        assert out["item"].triggered
        assert sim.now == pytest.approx(2.0)

    def test_run_observes_flush_at_marking_timestamp(self, sim):
        sched, out = self._dirty_scheduler_in_process(sim)
        times = []
        sched.add_observer(lambda s: times.append(sim.now))
        sim.run()
        assert times[0] == 0.0  # reassigned before leaving t=0
