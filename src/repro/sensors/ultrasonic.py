"""Short-range ultrasonic array.

Ultrasonic sensing is the last line of proximity detection: very short range,
immune to light and largely immune to optical attacks, degraded by wind.  It
backs up the optical stack in the fused safety function — the redundancy
defence Petit et al. recommend.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sensors.base import Observation, Sensor
from repro.sensors.degradation import DegradationModel
from repro.sim.entities import Entity
from repro.sim.rng import RngStreams


class UltrasonicArray(Sensor):
    """A ring of ultrasonic transducers around the carrier.

    Parameters
    ----------
    max_range:
        Detection range in metres (typically 5–8 m).
    """

    #: detection probability for a target at half range in still air
    base_prob = 0.95

    def __init__(
        self,
        name: str,
        carrier: Entity,
        streams: RngStreams,
        degradation: Optional[DegradationModel] = None,
        *,
        max_range: float = 6.0,
    ) -> None:
        super().__init__(name, carrier)
        self._rng = streams.stream(f"ultrasonic.{name}")
        self.degradation = degradation
        self.max_range = max_range
        # last computed probability per target, replayed while fault-frozen
        self._stale_prob: Dict[str, float] = {}

    def detection_probability(self, now: float, target: Entity) -> float:
        if self.fault_frozen:
            return self._stale_prob.get(target.name, 0.0)
        if not self.operational(now):
            return 0.0
        distance = self.position.distance_to(target.position)
        if distance > self.max_range:
            return 0.0
        p = self.base_prob * (1.0 - (distance / self.max_range) ** 2)
        if self.degradation is not None:
            p *= self.degradation.factors().ultrasonic
        if self.fault_gain != 1.0:
            p = min(1.0, p * self.fault_gain)
        p = max(0.0, p)
        self._stale_prob[target.name] = p
        return p

    def observe(self, now: float, targets: List[Entity]) -> List[Observation]:
        observations = []
        for target in targets:
            if target is self.carrier:
                continue
            p = self.detection_probability(now, target)
            detected = self._rng.random() < p
            distance = self.position.distance_to(target.position)
            observations.append(
                Observation(
                    time=now,
                    sensor=self.name,
                    target=target.name,
                    distance=distance,
                    detected=detected,
                    confidence=p if detected else 0.0,
                )
            )
        return observations
