"""Time-series metric collection for simulation runs.

Components record named counters, gauges and sampled series through a
single :class:`MetricsCollector`; the experiment harness summarises them
afterwards.  :class:`Histogram` (fixed log-spaced buckets, quantile
estimates) is the bounded-memory aggregate behind the span report's
per-kind durations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of pre-sorted values, linearly interpolated.

    Matches numpy's default ``linear`` method; an empty input returns 0.0
    so summaries of missing series stay all-zero rather than raising.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * q
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class SeriesSummary:
    """Summary statistics of a sampled series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    std: float
    p50: float = 0.0
    p95: float = 0.0

    @staticmethod
    def of(values: List[float]) -> "SeriesSummary":
        if not values:
            return SeriesSummary(0, 0.0, 0.0, 0.0, 0.0)
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        ordered = sorted(values)
        return SeriesSummary(
            n, mean, ordered[0], ordered[-1], math.sqrt(var),
            p50=percentile(ordered, 0.50), p95=percentile(ordered, 0.95),
        )

    def as_dict(self) -> dict:
        """Plain-dict form for JSON export (used by the telemetry hub)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "std": self.std,
            "p50": self.p50,
            "p95": self.p95,
        }


#: histogram resolution: log-spaced buckets per power of ten
BUCKETS_PER_DECADE = 5


class Histogram:
    """Bounded-memory histogram over fixed log-spaced buckets.

    Memory is O(buckets) regardless of observation count: one count per
    bucket plus scalar aggregates.  Bucket boundaries are geometric —
    :data:`BUCKETS_PER_DECADE` per power of ten between ``lower`` and
    ``upper`` — so the same relative resolution covers microseconds and
    kiloseconds.  Quantiles interpolate linearly inside the bucket, the
    same estimate Prometheus's ``histogram_quantile`` makes.
    """

    __slots__ = (
        "bounds", "counts", "count", "total", "minimum", "maximum",
    )

    def __init__(self, lower: float = 1e-6, upper: float = 1e4) -> None:
        if lower <= 0 or upper <= lower:
            raise ValueError(
                f"invalid histogram bounds: lower={lower}, upper={upper}"
            )
        decades = math.log10(upper / lower)
        n = int(round(decades * BUCKETS_PER_DECADE))
        # upper inclusive; the exponent grid keeps boundaries identical
        # across histograms with the same configuration
        self.bounds: List[float] = [
            lower * 10.0 ** (i / BUCKETS_PER_DECADE) for i in range(n + 1)
        ]
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation (values <= 0 land in the first bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1); 0.0 when empty.

        Exact at the recorded extremes (the min/max scalars), linear
        within the containing bucket elsewhere.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative < rank or not bucket_count:
                continue
            lo = self.bounds[index - 1] if index >= 1 else 0.0
            hi = (
                self.bounds[index] if index < len(self.bounds)
                else self.maximum
            )
            lo = max(lo, self.minimum) if index == 0 or lo < self.minimum \
                else lo
            hi = min(hi, self.maximum)
            if hi <= lo:
                return hi
            frac = (rank - (cumulative - bucket_count)) / bucket_count
            return lo + (hi - lo) * frac
        return self.maximum


class MetricsCollector:
    """Named counters, gauges and timestamped series."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._series: Dict[str, List[Tuple[float, float]]] = {}
        self._gauges: Dict[str, float] = {}

    # -- counters ---------------------------------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    # -- gauges -----------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    # -- series -----------------------------------------------------------
    def sample(self, name: str, time: float, value: float) -> None:
        self._series.setdefault(name, []).append((time, value))

    def series(self, name: str) -> List[Tuple[float, float]]:
        return list(self._series.get(name, ()))

    def series_values(self, name: str) -> List[float]:
        return [v for _, v in self._series.get(name, ())]

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def summarize(self, name: str) -> SeriesSummary:
        return SeriesSummary.of(self.series_values(name))

    def ratio(self, numerator: str, denominator: str) -> Optional[float]:
        """Counter ratio, or None when the denominator is zero."""
        denom = self.counter(denominator)
        if denom == 0.0:
            return None
        return self.counter(numerator) / denom
