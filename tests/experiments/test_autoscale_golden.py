"""Golden tests for the shard autoscaler.

Two acceptance bars from the robustness milestone:

* **Compatibility** — with the autoscaler *off* nothing moved: the
  chaos digests below are literals pinned before the autoscaler landed,
  so any change to default-path trajectories (an extra metric counter,
  an RNG draw, a reordered subscriber) fails loudly here.
* **Parity** — the autoscaled Fig. 2 pipeline completes within 1.25x
  of the hand-tuned ShardSizeController run.  The measured gap is ~1.2%
  (pure sampling-reaction latency; both controllers share their size
  predicates in repro.autoscale.policy).
"""

import pytest

from repro.chaos import ChaosConfig, InvariantChecker, run_chaos
from repro.experiments.autoscale import (
    AUTOSCALE_DATASET,
    AutoscaleRow,
    report,
    run_autoscale_config,
)
from repro.experiments.fig2_imbalance import PAPER_CONFIGS

#: Completion-time ceiling of autoscaled over hand-tuned (the issue's
#: acceptance bound; measured worst ratio across configs is 1.012).
RATIO_CEILING = 1.25

#: sha256 digests of autoscaler-off chaos runs, pinned before the
#: autoscaler was introduced.  These are literals on purpose: they must
#: only ever change with a deliberate, documented trajectory break.
PINNED_OFF_DIGESTS = {
    7: "01f58ee1c87d6d62dce4735169c2d789de9e97a96e352026fccceb59982bdb93",
    42: "af8e8f584a95b7c2e8f7e37779cfec235be27619c6d6f0cf22c6dca44c9935e6",
}

#: sha256 digests of the benchmark's chaos configuration (autoscaler on,
#: checkpoint recovery, 0.5 s) on three fault-plan seeds.  The invariant
#: checker is read-only, so rewriting it must leave these unchanged.
PINNED_AUTOSCALE_CHECKPOINT_DIGESTS = {
    0: "9aea61df4f549d31b4aaef20af7232da329ed7559c02a32b5969b009b95bde6c",
    5: "d207cbf3755667315dc098d5945e66db71121aef5f3f77b4c7346d3bb8d79925",
    11: "fc0ae6c50557e8a89230a0d1bcf6bef1b1d612fd669e29dba5e405054cb924c5",
}


class TestAutoscalerOffCompat:
    """Not enabling the autoscaler is bit-identical to the pre-autoscaler
    tree."""

    @pytest.mark.parametrize("seed", sorted(PINNED_OFF_DIGESTS))
    def test_off_digest_unchanged(self, seed):
        result = run_chaos(ChaosConfig(seed=seed, duration=0.5))
        assert result.digest() == PINNED_OFF_DIGESTS[seed]
        # And the new reshard-ledger counters confirm the two-phase
        # protocol never ran.
        assert result.reshard_splits == 0
        assert result.reshard_merges == 0
        assert result.autoscale_decisions == 0


class TestAutoscaleCheckpointChaosPinned:
    """The benchmark's chaos configuration replays its pinned trajectory
    with the invariant checker auditing every event."""

    @pytest.mark.parametrize("seed",
                             sorted(PINNED_AUTOSCALE_CHECKPOINT_DIGESTS))
    def test_digest_with_every_event_checked(self, seed, monkeypatch):
        checkers = []

        class Recording(InvariantChecker):
            def attach(self, sim=None):
                checkers.append(self)
                return super().attach(sim)

        monkeypatch.setattr("repro.chaos.scenario.InvariantChecker",
                            Recording)
        result = run_chaos(ChaosConfig(seed=seed, duration=0.5,
                                       autoscale=True,
                                       recovery_policy="checkpoint"))
        assert result.digest() == PINNED_AUTOSCALE_CHECKPOINT_DIGESTS[seed]
        (checker,) = checkers
        # One check per event, plus run_chaos's final-state check.
        assert checker.checks == checker.events_seen + 1
        assert result.invariant_checks == checker.checks
        assert result.reshard_splits > 0


@pytest.fixture(scope="module")
def parity_row():
    name, machines = PAPER_CONFIGS[1]  # cpu-unbalanced: 2 machines
    return run_autoscale_config(name, machines, AUTOSCALE_DATASET)


class TestFig2Parity:
    def test_ratio_within_ceiling(self, parity_row):
        assert isinstance(parity_row, AutoscaleRow)
        assert parity_row.ratio <= RATIO_CEILING
        assert parity_row.ratio > 0.5  # sanity: nothing degenerate

    def test_autoscaler_actually_worked(self, parity_row):
        """Parity must not come from the autoscaler doing nothing."""
        assert parity_row.autoscale_splits >= 1
        assert parity_row.decisions >= 1
        assert parity_row.final_state == "active"

    def test_split_decisions_comparable(self, parity_row):
        """Shared size policy: both controllers split a similar number
        of times.  Not exact equality — the sampling loop sees a
        vector's tail-seal at a slightly different instant than the
        heap-change hook does — but the same order of magnitude."""
        assert parity_row.legacy_splits >= 1
        lo = 0.5 * parity_row.legacy_splits
        hi = 2.0 * parity_row.legacy_splits + 2
        assert lo <= parity_row.autoscale_splits <= hi

    def test_report_renders(self, parity_row):
        text = report([parity_row])
        assert "ShardAutoscaler" in text
        assert parity_row.name in text


class TestAutoscaleChaosDeterminism:
    def test_autoscale_run_replays_identically(self):
        a = run_chaos(ChaosConfig(seed=11, duration=0.3, autoscale=True))
        b = run_chaos(ChaosConfig(seed=11, duration=0.3, autoscale=True))
        assert a.digest() == b.digest()
        assert a.invariant_checks > 0  # a completed run held every one
