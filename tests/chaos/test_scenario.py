"""End-to-end chaos scenario tests: determinism, crash coverage, and
the CLI entry point."""

import dataclasses

import pytest

from repro.chaos import ChaosConfig, run_chaos


def small(seed=42, **kw):
    kw.setdefault("machines", 3)
    kw.setdefault("duration", 0.4)
    return ChaosConfig(seed=seed, **kw)


class TestScenario:
    def test_completes_with_invariants_holding(self):
        result = run_chaos(small())
        assert result.invariant_checks > 100
        assert result.injected >= 1
        assert result.tasks_done > 0

    def test_at_least_one_machine_crashes(self):
        result = run_chaos(small())
        assert result.machines_crashed >= 1

    def test_replay_is_bit_identical(self):
        a = run_chaos(small(seed=11))
        b = run_chaos(small(seed=11))
        assert a.digest() == b.digest()
        assert a.decisions == b.decisions
        assert a.counters == b.counters
        assert a.tasks_done == b.tasks_done

    def test_different_seeds_diverge(self):
        a = run_chaos(small(seed=1))
        b = run_chaos(small(seed=2))
        assert a.digest() != b.digest()

    def test_report_mentions_the_schedule(self):
        result = run_chaos(small())
        report = result.report()
        assert "digest" in report
        assert "MachineCrash" in report
        assert str(result.machines_crashed) in report

    def test_oracle_mode(self):
        result = run_chaos(small(duration=0.2, oracle=True))
        assert result.oracle_comparisons > 0


class TestRecoveryMode:
    """Chaos with the runtime recovery subsystem active: every policy
    survives the fault schedule with invariants holding, and replays
    stay bit-identical."""

    @pytest.mark.parametrize(
        "policy", ["none", "restart", "checkpoint", "replicate", "lineage"])
    def test_policy_survives_chaos(self, policy):
        result = run_chaos(small(seed=13, recovery_policy=policy))
        assert result.invariant_checks > 100
        assert result.confirms >= result.machines_crashed
        if policy != "none":
            # Something died and something came back.
            assert result.recoveries >= 1

    def test_recovery_replay_is_bit_identical(self):
        a = run_chaos(small(seed=13, recovery_policy="checkpoint"))
        b = run_chaos(small(seed=13, recovery_policy="checkpoint"))
        assert a.digest() == b.digest()
        assert a.recoveries == b.recoveries
        assert a.call_retries == b.call_retries

    def test_policies_produce_distinct_trajectories(self):
        none = run_chaos(small(seed=13, recovery_policy="none"))
        ckpt = run_chaos(small(seed=13, recovery_policy="checkpoint"))
        assert none.digest() != ckpt.digest()

    def test_legacy_path_untouched_by_recovery_code(self):
        """recovery_policy=None must take the exact pre-subsystem path:
        zero recovery counters, app-level healing only."""
        result = run_chaos(small(seed=11))
        assert result.confirms == 0
        assert result.recoveries == 0
        assert result.sheds == 0

    def test_report_mentions_recovery(self):
        result = run_chaos(small(seed=13, recovery_policy="replicate"))
        assert "recovery (replicate)" in result.report()

    def test_report_names_the_unit_of_each_recovery_count(self, capsys):
        """Recoveries count proclets and confirms count machines.  At
        seed 0 two machines crash, but m3 restarts before the detector
        confirms it, so two proclets come back after one death."""
        from repro.cli import main

        rc = main(["chaos", "--seed", "0", "--duration", "0.5",
                   "--autoscale", "--recovery", "checkpoint"])
        out = capsys.readouterr().out
        assert rc == 0
        assert ("  recovery (checkpoint): 2 proclets recovered after "
                "1 confirmed machine death (0 failed, ") in out

    def test_report_counts_are_plural_unless_one(self):
        result = run_chaos(small(seed=13, recovery_policy="checkpoint"))
        one = dataclasses.replace(result, recoveries=1, confirms=2)
        assert ("1 proclet recovered after 2 confirmed machine deaths ("
                in one.report())
        none = dataclasses.replace(result, recoveries=0, confirms=1)
        assert ("0 proclets recovered after 1 confirmed machine death ("
                in none.report())


class TestChaosCli:
    def test_chaos_command_deterministic(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "--seed", "3", "--duration", "0.3",
                   "--machines", "3", "--check-determinism"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "deterministic" in out
        assert "MachineCrash" in out

