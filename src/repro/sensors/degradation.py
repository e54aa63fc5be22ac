"""Weather and lighting degradation of sensors.

Section III-D: "assessing the validity of an AI model for people detection
... would require validating the virtual sensor, simulated environmental
factors such as lighting conditions or precipitation".  These curves are that
virtual environmental model: multiplicative factors on detection performance
per sensor modality, derived from the weather state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.sim.weather import Weather, WeatherConditions


@dataclass(frozen=True)
class DegradationFactors:
    """Multiplicative performance factors in [0, 1] per modality."""

    camera: float
    ultrasonic: float


class DegradationModel:
    """Maps weather conditions to per-modality degradation factors.

    The shapes follow the qualitative literature the paper cites (rain
    blurs cameras; fog hits optics hardest; ultrasonic degrades in wind).
    """

    def __init__(self, weather: Weather) -> None:
        self.weather = weather

    def factors(self) -> DegradationFactors:
        return self.factors_for(self.weather.conditions())

    @staticmethod
    @lru_cache(maxsize=64)
    def factors_for(c: WeatherConditions) -> DegradationFactors:
        # pure in the (frozen, hashable) conditions and returns a frozen
        # result, so the per-state factors are computed once per regime
        camera = c.visibility * (0.55 + 0.45 * c.light_level)
        camera *= 1.0 - 0.35 * c.precipitation
        ultrasonic = max(0.2, 1.0 - 0.04 * c.wind_speed)
        clamp = lambda v: max(0.0, min(1.0, v))
        return DegradationFactors(
            camera=clamp(camera), ultrasonic=clamp(ultrasonic),
        )
