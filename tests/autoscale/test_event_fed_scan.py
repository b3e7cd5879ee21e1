"""Audit of the shard autoscaler's event-fed scan.

:func:`audit` runs the benchmark's chaos configuration with an audited
autoscaler.  On every tick it first runs, read-only and on the side,
the full scan the controller used to make (every shard of every
tracked structure, in ledger and table order), then lets the event-fed
tick run, and asserts that the tick

* logged the same decisions, in the same order, with the same reason
  and state;
* issued the same reshard ops;
* carried forward exactly the decisions that could not run (frozen,
  degraded, ``max_concurrent`` or a declined op), so that they are
  evaluated, and logged, again on the next tick.

The full scan is a test helper, not a controller option.  Tier-1 runs
seeds 0-4 and the Fig. 2 pipeline (a sealing vector and a queue,
beside chaos's range map); CI runs ``[audit(s) for s in range(45)]``
directly.
"""

from unittest import mock

import pytest

import repro.autoscale
from repro.apps.dnn import BatchPipeline, DatasetSpec
from repro.autoscale import ShardAutoscaler
from repro.chaos import ChaosConfig, run_chaos
from repro.core import Quicksand, QuicksandConfig
from repro.experiments.fig2_imbalance import PAPER_CONFIGS, cluster_for
from repro.runtime.proclet import ProcletStatus


def full_scan(auto, now):
    """The decisions a scan of every shard would make at *now*:
    ``[(pid, message, state, outcome)]`` in scan order, *outcome*
    ``"issued"`` or ``"carried"``.  Reads state only."""
    runtime = auto.qs.runtime
    ledger = runtime.reshard_ledger
    recovery = runtime.recovery
    state = auto.state
    out = []
    for ds in ledger.structures():
        inflight = len(ledger.active_for_structure(ds))
        for shard in list(ds.shards):
            pid = ds._shard_ref(shard).proclet_id
            proclet = runtime._proclets.get(pid)
            if proclet is None or proclet.status is not ProcletStatus.RUNNING:
                continue
            if pid in auto._busy \
                    or now < auto._cooldown_until.get(pid, 0.0):
                continue
            if recovery is not None and recovery.restoring(pid):
                continue
            action, reason = auto._decide(ds, pid, proclet)
            if action is None:
                continue
            message = f"{action} {proclet.name}: {reason}"
            outcome = "carried"
            if state == "active" \
                    and inflight < auto.config.max_concurrent \
                    and (action == "split" or _has_partner(ds, pid)):
                outcome = "issued"
                inflight += 1
            out.append((pid, message, state, outcome))
    return out


def _has_partner(ds, pid):
    """Would ``reshard_merge_by_id`` start an op (not return None)?"""
    idx = ds._find_by_id(pid)
    return (idx is not None and len(ds.shards) >= 2
            and ds._merge_partner(idx) is not None)


class AuditedAutoscaler(ShardAutoscaler):
    """The autoscaler under audit; see the module docstring."""

    ticks = 0
    settled = None
    #: The first disagreement.  The tick runs inside the autoscaler's
    #: simulator process, whose exception nobody waits for, so
    #: :func:`audit` re-raises it after the run.
    failure = None

    def _op_done(self, pid, event):
        if self.settled is not None:
            self.settled.add(pid)
        super()._op_done(pid, event)

    def _tick(self, now):
        try:
            self._audited_tick(now)
        except AssertionError as exc:
            if self.failure is None:
                self.failure = exc
            raise

    def _audited_tick(self, now):
        self.ticks += 1
        expected = full_scan(self, now)
        decisions = self.qs.runtime.decisions
        start = len(decisions)
        busy = set(self._busy)
        self.settled = set()
        super()._tick(now)
        logged = [(d.message, d.fields["state"]) for d in decisions[start:]
                  if d.category == "autoscale" and "state" in d.fields]
        where = f"tick {self.ticks} (t={now:.6f}s)"
        assert logged == [(msg, st) for _pid, msg, st, _ in expected], (
            f"{where}: the event-fed scan logged {logged!r}, the full "
            f"scan {[(msg, st) for _pid, msg, st, _ in expected]!r}")
        issued = {pid for pid, *_, outcome in expected
                  if outcome == "issued"}
        assert self._busy - busy | (self.settled & issued) == issued, (
            f"{where}: issued {sorted(self._busy - busy)}, the full scan "
            f"issues {sorted(issued)}")
        carried = {pid for pid, *_, outcome in expected
                   if outcome == "carried"}
        assert self._due - self.settled == carried, (
            f"{where}: carried {sorted(self._due - self.settled)}, the "
            f"full scan leaves {sorted(carried)} to the next tick")
        self.settled = None


def audit(seed, tamper=None):
    """Audit the event-fed scan over one seeded chaos run (the
    benchmark's configuration); raises AssertionError at the first tick
    that differs from the full scan.  *tamper*, if given, is called
    with the new autoscaler (to break its hooks in self-tests).
    Returns the number of ticks audited."""
    autoscalers = []

    class Audited(AuditedAutoscaler):
        def __init__(self, qs, config=None):
            super().__init__(qs, config)
            if tamper is not None:
                tamper(self)
            autoscalers.append(self)

    with mock.patch.object(repro.autoscale, "ShardAutoscaler", Audited):
        run_chaos(ChaosConfig(seed=seed, duration=0.5, autoscale=True,
                              recovery_policy="checkpoint"))
    (auto,) = autoscalers
    if auto.failure is not None:
        raise auto.failure
    return auto.ticks


@pytest.mark.parametrize("seed", range(5))
def test_event_fed_scan_matches_full_scan(seed):
    assert audit(seed) >= 400


def test_event_fed_scan_matches_full_scan_on_fig2():
    """The autoscaler attached to a built pipeline, whose structures it
    finds already tracked."""
    _name, machines = PAPER_CONFIGS[-1]
    qs = Quicksand(cluster_for(machines, 0),
                   config=QuicksandConfig(enable_global_scheduler=False))
    pipeline = BatchPipeline(qs, dataset=DatasetSpec(count=240))
    with mock.patch.object(repro.autoscale, "ShardAutoscaler",
                           AuditedAutoscaler):
        auto = qs.enable_autoscaler()
    pipeline.run()
    if auto.failure is not None:
        raise auto.failure
    assert auto.decision_count > 0
    assert {type(ds).__name__ for ds
            in qs.runtime.reshard_ledger.structures()} \
        == {"ShardedQueue", "ShardedVector"}


def drop_heap_hook(auto):
    """Stop the autoscaler hearing about heap changes."""
    auto.qs.runtime._heap_listeners.remove(auto._heap_changed.add)
    auto._hooks = [(listeners, fn) for listeners, fn in auto._hooks
                   if fn != auto._heap_changed.add]


def test_audit_fails_without_the_heap_hook():
    with pytest.raises(AssertionError, match="event-fed scan logged"):
        for seed in range(5):
            audit(seed, tamper=drop_heap_hook)
