"""Camera defences: redundancy voting and AI anti-hacking detection.

Petit et al. (Section IV-C): "the use of redundancy where multiple cameras
cooperate ... provide adequate protection from various angles against camera
attacks."  Kyrkou et al.: "the usage of AI to detect and mitigate remote
attacks via a dedicated anti-hacking device."

* :class:`CameraRedundancy` — merges detector outputs across cameras and
  flags a camera whose output diverges from its healthy peers;
* :class:`AntiHackingDetector` — a feed-health watchdog modelling Kyrkou's
  dedicated device: it monitors frame statistics (here: whether a camera
  that *should* see activity produces none) and raises IDS alerts on
  blinding/hijack signatures.
"""

from __future__ import annotations

from typing import Dict, List

from repro.defense.ids.base import IntrusionDetector
from repro.sensors.detection import Detection, PeopleDetector
from repro.sim.engine import Simulator
from repro.sim.events import EventLog


class CameraRedundancy:
    """Merge detections across cameras; quarantine divergent feeds.

    A camera is *suspect* when, over the comparison window, its detector
    produced nothing while at least ``quorum`` healthy peers with overlapping
    coverage produced confirmed detections.  Suspect feeds are excluded from
    the merged output (fail-operational behaviour).
    """

    quorum = 1

    def __init__(self, detectors: List[PeopleDetector]) -> None:
        if not detectors:
            raise ValueError("redundancy needs at least one detector")
        self.detectors = list(detectors)
        self.suspect: Dict[str, bool] = {d.camera.name: False for d in detectors}
        self._window_counts: Dict[str, int] = {d.camera.name: 0 for d in detectors}

    def process_frame(self, now: float, people) -> List[Detection]:
        """Run all healthy detectors and update suspicion state."""
        outputs: Dict[str, List[Detection]] = {}
        for detector in self.detectors:
            outputs[detector.camera.name] = detector.process_frame(now, people)
        active = {
            name: dets for name, dets in outputs.items()
            if any(not d.is_false_positive for d in dets)
        }
        for detector in self.detectors:
            name = detector.camera.name
            if name in active:
                self._window_counts[name] += 1
        # suspicion: a feed silent while >= quorum peers repeatedly see people
        for detector in self.detectors:
            name = detector.camera.name
            peers_seeing = sum(1 for other, dets in active.items() if other != name)
            if name not in active and peers_seeing >= self.quorum:
                if not self.suspect[name] and self._peers_confirmed(name):
                    self.suspect[name] = True
            elif name in active and self.suspect[name]:
                self.suspect[name] = False
        merged: List[Detection] = []
        for name, dets in outputs.items():
            if not self.suspect[name]:
                merged.extend(dets)
        return merged

    def _peers_confirmed(self, name: str) -> bool:
        peer_hits = sum(
            count for other, count in self._window_counts.items() if other != name
        )
        own = self._window_counts[name]
        return peer_hits >= 5 and peer_hits > 3 * max(own, 1)


class AntiHackingDetector(IntrusionDetector):
    """Kyrkou-style feed-health watchdog over a set of cameras.

    Checks each camera every interval: a blinded camera is directly
    observable from its exposure state; a hijacked feed is inferred when the
    camera reports operational but its detector has produced no output while
    a reference (peer) detector has.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        detectors: List[PeopleDetector],
        *,
        interval_s: float = 2.0,
        silence_factor: float = 12.0,
        expectation_fn=None,
    ) -> None:
        super().__init__(name, sim, log)
        self.detectors = list(detectors)
        self.silence_factor = silence_factor
        #: ``expectation_fn(camera) -> bool``: should this camera currently be
        #: producing detections?  Without it, a camera is only expected to
        #: produce when some peer camera does (coarse, more false alarms).
        self.expectation_fn = expectation_fn
        self._last_tp: Dict[str, int] = {d.camera.name: 0 for d in self.detectors}
        self._silent_rounds: Dict[str, int] = {d.camera.name: 0 for d in self.detectors}
        sim.every(interval_s, self._check)

    def _expected(self, camera, any_peer_progress: bool) -> bool:
        if self.expectation_fn is not None:
            return bool(self.expectation_fn(camera))
        return any_peer_progress

    def _check(self) -> None:
        progressed = {
            d.camera.name: d.true_positives - self._last_tp[d.camera.name]
            for d in self.detectors
        }
        for detector in self.detectors:
            camera = detector.camera
            if camera.is_blinded(self.sim.now):
                self.raise_alert("camera_blinding", 0.95, camera=camera.name)
            peers_progress = any(
                v > 0 for name, v in progressed.items() if name != camera.name
            )
            if progressed[camera.name] == 0 and self._expected(camera, peers_progress):
                self._silent_rounds[camera.name] += 1
                if self._silent_rounds[camera.name] >= self.silence_factor:
                    self.raise_alert(
                        "camera_hijack", 0.7, camera=camera.name,
                        silent_rounds=self._silent_rounds[camera.name],
                    )
                    self._silent_rounds[camera.name] = 0
            else:
                self._silent_rounds[camera.name] = 0
            self._last_tp[camera.name] = detector.true_positives
