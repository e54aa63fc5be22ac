"""Synthetic people-detection AI.

Section III-D: autonomous forestry machines rely on AI for "interpreting
their surroundings using sensor data, performing object detection".  Training
a real detector is out of scope (and the paper itself notes the data does not
exist); what the safety and SOTIF analyses need is the detector's *operating
characteristic* — how true/false positive rates move with image quality.

The model: given an image quality ``q`` in [0, 1] from the camera,

* the true-positive probability follows a calibrated logistic in ``q``;
* false positives arise per frame at a quality-dependent rate (clutter looks
  more like people in bad conditions);
* a hijacked camera feed produces *no* detections reaching the safety
  function (the attacker consumes or suppresses the stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sensors.camera import Camera
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class Detection:
    """A people-detection output.

    ``target`` is None for false positives.  ``estimated_position`` carries
    camera-frame localisation noise.
    """

    time: float
    sensor: str
    target: Optional[str]
    confidence: float
    estimated_position: Vec2
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_false_positive(self) -> bool:
        return self.target is None


#: image quality at which the true-positive rate is 50 %
TPR_Q50 = 0.18
#: steepness of the logistic TPR curve
TPR_SLOPE = 14.0
#: asymptotic true-positive rate (model ceiling)
MAX_TPR = 0.985
#: per-frame false-positive probability at scene quality 1
FP_RATE_CLEAR = 0.002
#: per-frame false-positive probability at scene quality 0
FP_RATE_DEGRADED = 0.03
#: position noise of detections, metres
LOCALIZATION_SIGMA = 1.0
#: the logistic's value at quality 0, subtracted so the TPR curve is
#: exactly zero there
TPR_FLOOR = 1.0 / (1.0 + math.exp(TPR_SLOPE * TPR_Q50))


class PeopleDetector:
    """Quality-conditioned detection model over a camera.

    Parameters
    ----------
    camera:
        The camera supplying image quality.
    """

    def __init__(self, camera: Camera, streams: RngStreams) -> None:
        self.camera = camera
        self._rng = streams.stream(f"detector.{camera.name}")
        self.true_positives = 0
        self.misses = 0

    def tpr(self, quality: float) -> float:
        """True-positive rate at image quality ``quality``.

        A shifted logistic: exactly zero at quality 0 (no fat floor for
        specks at extreme range), :data:`MAX_TPR` asymptotically.
        """
        if quality <= 0.0:
            return 0.0
        raw = 1.0 / (1.0 + math.exp(-TPR_SLOPE * (quality - TPR_Q50)))
        return MAX_TPR * max(0.0, raw - TPR_FLOOR) / (1.0 - TPR_FLOOR)

    def fp_probability(self, quality_context: float) -> float:
        """Per-frame false-positive probability given scene quality."""
        return FP_RATE_DEGRADED + (FP_RATE_CLEAR - FP_RATE_DEGRADED) * quality_context

    def process_frame(self, now: float, people: List[Entity]) -> List[Detection]:
        """Run the detector on the current frame.

        Returns detections of real people plus possible false positives.
        A hijacked or blinded camera yields nothing.
        """
        camera = self.camera
        if camera.hijacked_by is not None or not camera.operational(now):
            return []
        detections: List[Detection] = []
        scene_quality = 1.0
        image_quality = camera.image_quality
        rng_random = self._rng.random
        tpr = self.tpr
        for person in people:
            quality = image_quality(now, person)
            scene_quality = min(scene_quality, max(quality, 0.05))
            p = tpr(quality)
            if rng_random() < p:
                self.true_positives += 1
                jitter = Vec2(
                    self._rng.gauss(0.0, LOCALIZATION_SIGMA),
                    self._rng.gauss(0.0, LOCALIZATION_SIGMA),
                )
                detections.append(
                    Detection(
                        time=now,
                        sensor=self.camera.name,
                        target=person.name,
                        confidence=min(1.0, 0.5 + 0.5 * quality + self._rng.gauss(0.0, 0.05)),
                        estimated_position=person.position + jitter,
                        data={"quality": quality},
                    )
                )
            elif quality > 0.0:
                self.misses += 1
        if self._rng.random() < self.fp_probability(scene_quality):
            ghost = self.camera.position + Vec2.from_polar(
                self._rng.uniform(3.0, self.camera.nominal_range),
                self._rng.uniform(-math.pi, math.pi),
            )
            detections.append(
                Detection(
                    time=now,
                    sensor=self.camera.name,
                    target=None,
                    confidence=self._rng.uniform(0.4, 0.75),
                    estimated_position=ghost,
                    data={"false_positive": True},
                )
            )
        return detections
