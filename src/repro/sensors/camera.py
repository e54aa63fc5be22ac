"""Camera sensor model.

The camera is the modality the paper's survey worries most about (blinding,
feed theft, remote control — Petit et al., Kyrkou et al.).  Its output here is
an *image quality* per target, combining range falloff, occlusion visibility
and weather/light degradation; the synthetic people-detection AI
(:mod:`repro.sensors.detection`) turns quality into detections.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.sensors.base import Observation, Sensor
from repro.sensors.degradation import DegradationModel
from repro.sensors.occlusion import OcclusionModel
from repro.sim.entities import Entity
from repro.sim.geometry import angle_difference


class Camera(Sensor):
    """A mounted camera with field of view, range falloff and attack state.

    Parameters
    ----------
    name, carrier:
        See :class:`repro.sensors.base.Sensor`.
    occlusion:
        Shared occlusion model for the worksite.
    degradation:
        Weather degradation model (None = always clear conditions).
    fov_deg:
        Horizontal field of view; 360 models a gimbal or camera ring.
    nominal_range:
        Range at which image quality halves.
    """

    #: mounting angle relative to the carrier heading, radians
    heading_offset = 0.0

    def __init__(
        self,
        name: str,
        carrier: Entity,
        occlusion: OcclusionModel,
        degradation: Optional[DegradationModel] = None,
        *,
        fov_deg: float = 360.0,
        nominal_range: float = 40.0,
    ) -> None:
        super().__init__(name, carrier)
        self.occlusion = occlusion
        self.degradation = degradation
        self.fov = math.radians(fov_deg)
        self.nominal_range = nominal_range
        # last computed quality per target, replayed while fault-frozen
        self._stale_quality: Dict[str, float] = {}

    def in_fov(self, target: Entity) -> bool:
        if self.fov >= 2.0 * math.pi - 1e-9:
            return True
        bearing = (target.position - self.position).heading()
        boresight = self.carrier.state.heading + self.heading_offset
        return abs(angle_difference(bearing, boresight)) <= self.fov / 2.0

    def _range_factor(self, distance: float) -> float:
        """Smooth falloff: 1 near the camera, 0.5 at nominal range."""
        return 1.0 / (1.0 + (distance / self.nominal_range) ** 2)

    def image_quality(self, now: float, target: Entity) -> float:
        """Quality of the target's image in [0, 1]; 0 if unseeable."""
        if self.fault_frozen:
            # frozen feed: the detector keeps seeing the stale image
            return self._stale_quality.get(target.name, 0.0)
        if not self.operational(now):
            return 0.0
        if not self.in_fov(target):
            return 0.0
        line = self.occlusion.sight_line(
            self.position, self.mount_height, target.position, target.body_height
        )
        quality = line.visibility * self._range_factor(line.distance)
        if self.degradation is not None:
            quality *= self.degradation.factors().camera
        if self.fault_gain != 1.0:
            quality = max(0.0, min(1.0, quality * self.fault_gain))
        self._stale_quality[target.name] = quality
        return quality

    def observe(self, now: float, targets: List[Entity]) -> List[Observation]:
        """Raw quality observations — detection is the AI layer's job."""
        observations = []
        for target in targets:
            if target is self.carrier:
                continue
            quality = self.image_quality(now, target)
            distance = self.position.distance_to(target.position)
            observations.append(
                Observation(
                    time=now,
                    sensor=self.name,
                    target=target.name,
                    distance=distance,
                    detected=quality > 0.0,
                    confidence=quality,
                    data={"quality": quality, "hijacked": self.hijacked_by is not None},
                )
            )
        return observations
