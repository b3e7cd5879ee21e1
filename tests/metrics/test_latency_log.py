"""Tests for the two-column per-request latency log."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import LatencyLog, Summary

times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _log(pairs):
    log = LatencyLog()
    for arrived, latency in pairs:
        log.append(arrived, latency)
    return log


class TestLatencyLog:
    def test_empty(self):
        log = LatencyLog()
        assert len(log) == 0
        assert list(log) == []
        assert log.latencies() == []
        assert log.summary() == Summary.of([])

    @given(st.lists(st.tuples(times, times)))
    def test_pairs_iterate_in_append_order(self, pairs):
        log = _log(pairs)
        assert len(log) == len(pairs)
        assert list(log) == pairs
        assert [arrived for arrived, _lat in log] == list(log.arrived)

    def test_since_keeps_arrivals_at_or_after_it(self):
        # Completion order, not arrival order: a later arrival may
        # finish first.
        log = _log([(0.3, 1.0), (0.1, 2.0), (0.2, 3.0), (0.5, 4.0)])
        assert log.latencies() == [1.0, 2.0, 3.0, 4.0]
        assert log.latencies(since=0.2) == [1.0, 3.0, 4.0]
        assert log.latencies(since=0.6) == []

    @given(st.lists(st.tuples(times, times)), times)
    def test_summary_is_summary_of_the_filtered_list(self, pairs, since):
        log = _log(pairs)
        want = [lat for arrived, lat in pairs if arrived >= since]
        assert log.latencies(since) == want
        assert log.summary(since) == Summary.of(want)

    def test_summary_of_nothing_since_is_the_empty_summary(self):
        log = _log([(0.1, 1.0)])
        assert log.summary(since=1.0) == Summary.of([])
        assert log.summary(since=1.0).count == 0

    def test_bound_column_appends_keep_the_pairs(self):
        log = LatencyLog()
        add_arrived, add_latency = log.arrived.append, log.latency.append
        add_arrived(0.25)
        add_latency(0.5)
        assert list(log) == [(0.25, 0.5)]

    def test_floats_round_trip_exactly(self):
        x = 0.1 + 0.2
        log = _log([(x, x / 3)])
        assert list(log) == [(x, x / 3)]

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            LatencyLog().extra = 1
