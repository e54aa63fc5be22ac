"""LiDAR sensor model.

LiDAR is range-limited but light-independent.
It detects *obstacles* (anything with a body) rather than classifying people,
so it contributes range gating and redundancy to the fused safety function.
"""

from __future__ import annotations

from typing import List

from repro.sensors.base import Observation, Sensor
from repro.sensors.occlusion import OcclusionModel
from repro.sim.entities import Entity
from repro.sim.rng import RngStreams


class Lidar(Sensor):
    """Scanning LiDAR with probabilistic returns.

    Parameters
    ----------
    max_range:
        Hard range limit in metres.
    """

    #: return probability for an unoccluded target at close range
    base_return_prob = 0.97

    def __init__(
        self,
        name: str,
        carrier: Entity,
        occlusion: OcclusionModel,
        streams: RngStreams,
        *,
        max_range: float = 60.0,
        range_sigma: float = 0.05,
    ) -> None:
        super().__init__(name, carrier)
        self.occlusion = occlusion
        self._rng = streams.stream(f"lidar.{name}")
        self.max_range = max_range
        self.range_sigma = range_sigma

    def return_probability(self, now: float, target: Entity) -> float:
        if not self.operational(now):
            return 0.0
        line = self.occlusion.sight_line(
            self.position, self.mount_height, target.position, target.body_height
        )
        if line.distance > self.max_range:
            return 0.0
        p = self.base_return_prob * line.visibility
        p *= max(0.0, 1.0 - (line.distance / self.max_range) ** 3)
        return p

    def observe(self, now: float, targets: List[Entity]) -> List[Observation]:
        observations = []
        for target in targets:
            if target is self.carrier:
                continue
            p = self.return_probability(now, target)
            detected = self._rng.random() < p
            distance = self.position.distance_to(target.position)
            measured = distance
            if detected:
                measured = max(0.0, self._rng.gauss(distance, self.range_sigma))
            observations.append(
                Observation(
                    time=now,
                    sensor=self.name,
                    target=target.name,
                    distance=distance,
                    detected=detected,
                    confidence=p if detected else 0.0,
                    data={"measured_range": measured},
                )
            )
            self.observations_made += 1
        return observations
