"""Property tests for the clone path: winner uniqueness, kernel
hygiene after cancellation, and clone_to=1 transparency."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Proclet
from repro.units import MS

from ..conftest import make_qs


def quiet_qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False, enable_split_merge=False)


class Drawn(Proclet):
    """Each invocation burns the next duration from a drawn schedule."""

    def __init__(self, durations):
        super().__init__()
        self.durations = list(durations)
        self.i = 0

    def work(self, ctx):
        d = self.durations[self.i % len(self.durations)]
        self.i += 1
        yield ctx.cpu(d)
        return d


_durations = st.lists(
    st.floats(min_value=0.1 * MS, max_value=10 * MS,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(durations=_durations, clone_to=st.integers(2, 4),
       hedge=st.sampled_from([None, 0.5 * MS, 2 * MS]))
def test_exactly_one_winner_for_any_schedule(durations, clone_to, hedge):
    """However the drawn service times race — ties included — a cloned
    call settles with exactly one winner and every loser reclaimed."""
    qs = quiet_qs()
    ref = qs.spawn(Drawn(durations), qs.machines[0])
    ev = ref.call("work", clone_to=clone_to, hedge_after=hedge)
    call = qs.runtime.clone_calls[-1]
    result = qs.run(until_event=ev)
    assert result in durations
    assert sum(1 for a in call.attempts if a.won) == 1
    assert call.attempts[call.winner].won
    assert 1 <= len(call.attempts) <= clone_to
    qs.sim.run()  # wind down losers and drain every pending timer
    assert call.settled
    assert qs.runtime.clone_calls == []
    for att in call.attempts:
        assert att.process.triggered
        assert all(not item.active for item in att.work_items)
    assert not ref.proclet._active_cpu


@settings(max_examples=20, deadline=None)
@given(durations=_durations, clone_to=st.integers(2, 4))
def test_loser_cancellation_leaks_no_tombstones(durations, clone_to):
    """Cancelling losers goes through the real timer machinery: once
    the sim drains, every tombstoned heap/wheel entry was reclaimed."""
    qs = quiet_qs()
    ref = qs.spawn(Drawn(durations), qs.machines[0])
    for _ in range(3):
        qs.run(until_event=ref.call("work", clone_to=clone_to,
                                    hedge_after=0.5 * MS))
    qs.sim.run()
    stats = qs.sim.stats()
    assert stats["dead_entries"] == 0
    assert stats["queued"] == 0


@settings(max_examples=15, deadline=None)
@given(durations=_durations, calls=st.integers(1, 4))
def test_clone_to_one_is_byte_identical_to_a_plain_call(durations, calls):
    """clone_to=1 must take the exact plain-call path: same results,
    same virtual timestamps, same span trajectory (digest-pinned)."""
    from repro.obs import SpanTracer

    def run(clone_kwargs):
        qs = quiet_qs()
        tr = SpanTracer(qs.sim)
        ref = qs.spawn(Drawn(durations), qs.machines[0])
        results = [qs.run(until_event=ref.call("work", **clone_kwargs))
                   for _ in range(calls)]
        qs.sim.run()
        return results, qs.sim.now, tr.digest(), qs.sim.stats()

    plain = run({})
    cloned = run({"clone_to": 1})
    assert plain == cloned
