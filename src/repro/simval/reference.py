"""The reference model standing in for field measurements.

The paper notes real forestry datasets do not exist, so validation must
bootstrap from surrogates.  The reference model generates the same
observables as the simulator's sensor stack — detection range at first
confirm, camera quality vs range, GNSS error — from *independent*
parameterisations (different falloff shape, heavier noise tails), playing
the role of the field campaign the simulation must match within tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class ReferenceModel:
    """Parameterisation of the surrogate field data.

    Attributes
    ----------
    detection_range_mean / detection_range_std:
        First-detection range of a walking person, metres (lognormal-ish).
    """

    #: horizontal GNSS error, metres (with occasional multipath outliers)
    gnss_error_sigma = 0.9
    #: range at which image quality halves in the field data, metres
    quality_falloff_range = 38.0

    detection_range_mean: float = 32.0
    detection_range_std: float = 9.0
    multipath_rate: float = 0.05


#: seed of the reference GNSS error sample
GNSS_ERRORS_SEED = 1
#: seed of the reference image-quality noise
QUALITY_CURVE_SEED = 2


def reference_detection_samples(
    model: ReferenceModel, n: int, seed: int = 0
) -> List[float]:
    """First-detection ranges from the reference model."""
    rng = random.Random(seed)
    samples = []
    mu = math.log(
        model.detection_range_mean**2
        / math.sqrt(model.detection_range_mean**2 + model.detection_range_std**2)
    )
    sigma = math.sqrt(
        math.log(1.0 + (model.detection_range_std / model.detection_range_mean) ** 2)
    )
    for _ in range(n):
        samples.append(rng.lognormvariate(mu, sigma))
    return samples


def reference_gnss_errors(model: ReferenceModel, n: int) -> List[float]:
    """Horizontal GNSS errors with multipath outliers."""
    rng = random.Random(GNSS_ERRORS_SEED)
    samples = []
    for _ in range(n):
        if rng.random() < model.multipath_rate:
            samples.append(abs(rng.gauss(0.0, 5.0 * model.gnss_error_sigma)))
        else:
            samples.append(abs(rng.gauss(0.0, model.gnss_error_sigma)))
    return samples


def reference_quality_curve(
    model: ReferenceModel, ranges: Sequence[float]
) -> List[float]:
    """Image-quality observations at given ranges (field curve + noise)."""
    rng = random.Random(QUALITY_CURVE_SEED)
    out = []
    for r in ranges:
        base = 1.0 / (1.0 + (r / model.quality_falloff_range) ** 1.8)
        out.append(max(0.0, min(1.0, base + rng.gauss(0.0, 0.06))))
    return out
