"""Small statistics helpers (no numpy dependency in the core library)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


def mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def stddev(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def percentile(xs: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not xs:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    data = sorted(xs)
    if len(data) == 1:
        return data[0]
    k = (len(data) - 1) * (p / 100.0)
    lo = math.floor(k)
    hi = math.ceil(k)
    if lo == hi or data[lo] == data[hi]:
        # Short-circuit equal neighbours: the interpolation formula can
        # wobble by one ulp and break percentile monotonicity.
        return data[int(k)]
    return data[lo] * (hi - k) + data[hi] * (k - lo)


@dataclass
class Summary:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    stddev: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, xs: Sequence[float]) -> "Summary":
        if not xs:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        data: List[float] = sorted(xs)
        # The arithmetic mean lies in [min, max] mathematically, but
        # float rounding can push it one ulp outside (e.g. (3x)/3 < x);
        # clamp so Summary orderings hold exactly.
        return cls(
            count=len(data),
            mean=min(max(mean(data), data[0]), data[-1]),
            stddev=stddev(data),
            minimum=data[0],
            p50=percentile(data, 50),
            p90=percentile(data, 90),
            p99=percentile(data, 99),
            maximum=data[-1],
        )

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.6g} p50={self.p50:.6g} "
                f"p90={self.p90:.6g} p99={self.p99:.6g} max={self.maximum:.6g}")


class LatencyLog:
    """Per-request ``(arrival time, latency)`` samples, in append order.

    Two flat ``array('d')`` columns hold 16 B per sample, where a list of
    tuples holds a tuple and two boxed floats (about 118 B).  A hot path
    may bind ``log.arrived.append`` and ``log.latency.append`` once and
    call them directly; the columns must then grow together.
    """

    __slots__ = ("arrived", "latency")

    def __init__(self) -> None:
        # Loaded on first use: the extension module adds about 0.15 MB
        # of resident memory to runs that build no request plane.
        from array import array
        self.arrived = array("d")
        self.latency = array("d")

    def append(self, arrived: float, latency: float) -> None:
        self.arrived.append(arrived)
        self.latency.append(latency)

    def __len__(self) -> int:
        return len(self.latency)

    def __iter__(self):
        return zip(self.arrived, self.latency)

    def latencies(self, since: float = 0.0) -> List[float]:
        """Latencies of the samples that arrived at or after *since*,
        in append order."""
        return [lat for arr, lat in zip(self.arrived, self.latency)
                if arr >= since]

    def summary(self, since: float = 0.0) -> Summary:
        """:meth:`Summary.of` the :meth:`latencies` since *since*."""
        return Summary.of(self.latencies(since))
