"""The decision stream: ``runtime.decisions`` written by ``NuRuntime.decide``.

``audit_tracing(seed)`` runs the benchmark's chaos configuration
untraced and under :func:`repro.obs.capture` and checks that tracing
changes nothing the run decides, and that every decision shows up in
the span export.  Tier-1 runs two seeds; CI runs more with::

    PYTHONPATH=src python -c "from tests.obs.test_decisions import \\
        audit_tracing; [audit_tracing(s) for s in range(10)]"
"""

import hashlib
from collections import Counter

import pytest

from repro.chaos import ChaosConfig, run_chaos
from repro.obs import Decision, SpanTracer, capture

from ..conftest import make_qs


def audit_tracing(seed: int) -> None:
    config = ChaosConfig(seed=seed, duration=0.5, autoscale=True,
                         recovery_policy="checkpoint")
    plain = run_chaos(config)
    with capture() as cap:
        traced = run_chaos(config)
    assert traced.digest() == plain.digest(), f"seed {seed}: digests differ"
    assert [str(d) for d in traced.decisions] \
        == [str(d) for d in plain.decisions], f"seed {seed}: decisions differ"
    assert traced.decisions, f"seed {seed}: no decisions"
    assert not any(tr.dropped for tr in cap.tracers)
    # Each decision closed (or recorded) a span of its category at its
    # time; equal (category, time) pairs need as many spans.
    ends = Counter((s.category, s.end) for s in cap.spans)
    wanted = Counter((d.category, d.time) for d in traced.decisions)
    missing = wanted - ends
    assert not missing, f"seed {seed}: decisions without a span: {missing}"


@pytest.mark.parametrize("seed", [0, 3])
def test_tracing_does_not_change_the_run(seed):
    audit_tracing(seed)


def quiet_qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False, enable_split_merge=False)


def lines_digest(decisions) -> str:
    """The chaos replay digest's decision part."""
    h = hashlib.sha256()
    for decision in decisions:
        h.update(str(decision).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestDecide:
    def test_line_format_is_unchanged(self):
        """The chaos digests hash this line, byte for byte."""
        d = Decision(time=0.0012, category="migration",
                     message="p m0->m1", fields={"bytes": 10, "x": 1.5})
        assert str(d) == \
            "[    1.200 ms] migration    p m0->m1 (bytes=10 x=1.5)"
        assert str(Decision(2.0, "failure", "machine m0 restored")) \
            == "[     2.000 s] failure      machine m0 restored"

    def test_the_log_has_no_cap(self):
        def log(last: str):
            qs = quiet_qs()
            for i in range(100_000):
                qs.runtime.decide("x", "same", i=i)
            qs.runtime.decide("x", last)
            return qs.runtime.decisions

        first, second = log("last"), log("changed")
        assert len(first) == 100_001
        assert first[-1].message == "last"
        assert lines_digest(first) != lines_digest(second)

    def test_untraced_decision_records_no_span(self):
        qs = quiet_qs()
        qs.runtime.decide("ft", "shed p", priority="low")
        (d,) = qs.runtime.decisions
        assert (d.category, d.message, d.fields) == \
            ("ft", "shed p", {"priority": "low"})
        assert qs.sim.tracer is None

    def test_traced_decision_without_span_is_an_instant(self):
        qs = quiet_qs()
        tracer = SpanTracer(qs.sim)
        qs.runtime.decide("ft", "shed p", priority="low")
        (span,) = tracer.by_category("ft")
        assert span.name == "shed p"
        assert span.start == span.end == qs.runtime.decisions[0].time
        assert span.args == {"priority": "low"}

    def test_traced_decision_closes_its_span(self):
        qs = quiet_qs()
        tracer = SpanTracer(qs.sim)
        span = tracer.begin("reshard", "split p", kind="split")
        qs.sim.timeout(1.0)
        qs.sim.run(until=1.0)
        qs.runtime.decide("reshard", "split p at 'k' -> p.hi", span=span,
                          moved_bytes=7)
        assert tracer.spans == [span]
        assert (span.start, span.end) == (0.0, 1.0)
        assert span.args == {"kind": "split", "moved_bytes": 7}
        assert qs.runtime.decisions[0].fields == {"moved_bytes": 7}

    def test_failure_decisions_are_spans_when_traced(self):
        qs = quiet_qs()
        tracer = SpanTracer(qs.sim)
        qs.runtime.fail_machine(qs.machines[1])
        qs.runtime.restore_machine(qs.machines[1])
        assert [s.name for s in tracer.by_category("failure")] == \
            ["machine m1 crashed", "machine m1 restored"]
        assert [d.message for d in qs.runtime.decisions] == \
            ["machine m1 crashed", "machine m1 restored"]
