"""Summary statistics and bootstrap confidence intervals."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    """Population standard deviation."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: coverage of :func:`bootstrap_ci`'s interval
CONFIDENCE = 0.95
#: bootstrap resamples per interval
RESAMPLES = 2000


def bootstrap_ci(values: Sequence[float], *, seed: int = 0) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean."""
    values = list(values)
    if not values:
        return (0.0, 0.0)
    if len(values) == 1:
        return (values[0], values[0])
    rng = random.Random(seed)
    stats = []
    n = len(values)
    for _ in range(RESAMPLES):
        resample = [values[rng.randrange(n)] for _ in range(n)]
        stats.append(mean(resample))
    alpha = (1.0 - CONFIDENCE) / 2.0
    return (percentile(stats, alpha * 100.0), percentile(stats, (1.0 - alpha) * 100.0))


@dataclass(frozen=True)
class Summary:
    """Summary of a sample."""

    n: int
    mean: float
    std: float
    median: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float


def summarize(values: Sequence[float]) -> Summary:
    """Full summary with a bootstrap 95 % CI on the mean."""
    values = list(values)
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    low, high = bootstrap_ci(values)
    return Summary(
        n=len(values),
        mean=mean(values),
        std=std(values),
        median=median(values),
        minimum=min(values),
        maximum=max(values),
        ci_low=low,
        ci_high=high,
    )
