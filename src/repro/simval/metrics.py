"""Distribution-divergence metrics for simulation validation.

Built on scipy where it helps (two-sample KS with p-value) and implemented
directly where the construction matters (histogram KL with smoothing,
empirical Wasserstein-1).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and p-value."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("KS requires non-empty samples")
    result = scipy_stats.ks_2samp(np.asarray(a), np.asarray(b))
    return float(result.statistic), float(result.pvalue)


def wasserstein(a: Sequence[float], b: Sequence[float]) -> float:
    """Empirical Wasserstein-1 (earth mover's) distance."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Wasserstein requires non-empty samples")
    return float(scipy_stats.wasserstein_distance(np.asarray(a), np.asarray(b)))


#: histogram bins of :func:`kl_divergence`
KL_BINS = 32
#: Laplace smoothing added to every bin count
KL_SMOOTHING = 1e-6


def kl_divergence(a: Sequence[float], b: Sequence[float]) -> float:
    """KL(P_a || P_b) over a shared histogram with Laplace smoothing.

    Symmetric treatment of support: bins span the union of both samples.
    """
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a_arr.size == 0 or b_arr.size == 0:
        raise ValueError("KL requires non-empty samples")
    lo = min(a_arr.min(), b_arr.min())
    hi = max(a_arr.max(), b_arr.max())
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, KL_BINS + 1)
    p, _ = np.histogram(a_arr, bins=edges)
    q, _ = np.histogram(b_arr, bins=edges)
    p = p.astype(float) + KL_SMOOTHING
    q = q.astype(float) + KL_SMOOTHING
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))
