"""The collaborative people-detection safety function (Figure 2).

Composes the whole stack: the forwarder's own cameras and ultrasonic array,
the drone's camera (detections relayed over the network), track fusion, and
the protective stop + speed limiter.  This is the safety function whose
performance the E-F2 experiment measures with and without the drone, and
whose degradation under attack the E-S4B interplay experiment measures.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.comms.messages import Message
from repro.sensors.detection import Detection, PeopleDetector
from repro.sensors.fusion import TrackFusion
from repro.sensors.ultrasonic import UltrasonicArray
from repro.safety.functions import ProtectiveStop, SpeedLimiter
from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog
from repro.sim.forwarder import Forwarder
from repro.sim.geometry import Vec2


class CollaborativePeopleDetection:
    """The fused people-detection safety function on the forwarder.

    Parameters
    ----------
    forwarder:
        The protected machine.
    own_detectors:
        People detectors on the forwarder's cameras.
    ultrasonic:
        Optional short-range backup array.
    people_fn:
        Callable returning the current list of people (ground truth input to
        the sensor models; the function itself only sees detections).
    remote_detections_fn:
        Callable draining detections relayed from the drone since the last
        frame (empty when the drone path is down).
    """

    #: seconds between sensor frames
    frame_interval_s = 0.5

    def __init__(
        self,
        forwarder: Forwarder,
        sim: Simulator,
        log: EventLog,
        own_detectors: List[PeopleDetector],
        people_fn: Callable[[], List[Entity]],
        *,
        ultrasonic: Optional[UltrasonicArray] = None,
        remote_detections_fn: Optional[Callable[[], List[Detection]]] = None,
        stop_distance_m: float = 10.0,
    ) -> None:
        self.forwarder = forwarder
        self.sim = sim
        self.log = log
        self.own_detectors = list(own_detectors)
        self.ultrasonic = ultrasonic
        self.people_fn = people_fn
        self.remote_detections_fn = remote_detections_fn
        self.fusion = TrackFusion()
        self.protective_stop = ProtectiveStop(
            forwarder, sim, log, stop_distance_m=stop_distance_m
        )
        self.speed_limiter = SpeedLimiter(forwarder, sim, log)
        self.first_confirm_times: dict = {}
        sim.every(self.frame_interval_s, self._frame)

    # -- per-frame pipeline ---------------------------------------------------
    def _frame(self) -> None:
        now = self.sim.now
        people = [p for p in self.people_fn() if p.alive]
        detections: List[Detection] = []
        for detector in self.own_detectors:
            detections.extend(detector.process_frame(now, people))
        if self.ultrasonic is not None:
            for obs in self.ultrasonic.observe(now, people):
                if obs.detected:
                    detections.append(
                        Detection(
                            time=now,
                            sensor=self.ultrasonic.name,
                            target=obs.target,
                            confidence=min(0.9, obs.confidence + 0.3),
                            estimated_position=self._target_position(obs.target, people),
                        )
                    )
        if self.remote_detections_fn is not None:
            detections.extend(self.remote_detections_fn())

        self.fusion.update(now, detections)
        confirmed = self.fusion.confirmed_tracks()
        for track in confirmed:
            if track.target is not None and track.target not in self.first_confirm_times:
                self.first_confirm_times[track.target] = now
                self.log.emit(
                    now, EventCategory.DETECTION, "person_confirmed",
                    self.forwarder.name, target=track.target,
                    sources=list(track.sources),
                )
        nearest = self._nearest_confirmed_distance(confirmed)
        self.protective_stop.evaluate(nearest)

    def _nearest_confirmed_distance(self, confirmed) -> Optional[float]:
        if not confirmed:
            return None
        me = self.forwarder.position
        return min(t.position.distance_to(me) for t in confirmed)

    @staticmethod
    def _target_position(target_name: str, people: List[Entity]) -> Vec2:
        for person in people:
            if person.name == target_name:
                return person.position
        return Vec2(0.0, 0.0)

    # -- remote feed helper -----------------------------------------------------
    @staticmethod
    def detections_from_report(message: Message) -> List[Detection]:
        """Rebuild Detection objects from a relayed detection report."""
        rebuilt = []
        for entry in message.payload.get("detections", []):
            rebuilt.append(
                Detection(
                    time=float(entry.get("time", message.timestamp)),
                    sensor=str(entry.get("sensor", message.sender)),
                    target=entry.get("target"),
                    confidence=float(entry.get("confidence", 0.5)),
                    estimated_position=Vec2(
                        float(entry.get("x", 0.0)), float(entry.get("y", 0.0))
                    ),
                )
            )
        return rebuilt

    @staticmethod
    def report_from_detections(detections: List[Detection]) -> List[dict]:
        """Serialise detections for a network report."""
        return [
            {
                "time": d.time,
                "sensor": d.sensor,
                "target": d.target,
                "confidence": round(d.confidence, 3),
                "x": round(d.estimated_position.x, 2),
                "y": round(d.estimated_position.y, 2),
            }
            for d in detections
        ]
