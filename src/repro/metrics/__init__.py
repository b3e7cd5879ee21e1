"""Virtual-time metrics: series, counters, gauges, summaries."""

from .dashboard import machine_rows, snapshot
from .recorder import MetricsRecorder
from .stats import LatencyLog, Summary, mean, percentile, stddev
from .timeseries import Counter, Gauge, TimeSeries, merge_series

__all__ = [
    "Counter",
    "Gauge",
    "LatencyLog",
    "MetricsRecorder",
    "Summary",
    "TimeSeries",
    "machine_rows",
    "mean",
    "merge_series",
    "percentile",
    "snapshot",
    "stddev",
]
