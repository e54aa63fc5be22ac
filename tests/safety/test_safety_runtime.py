"""Unit tests for runtime safety functions, monitor and the collaborative
people-detection function."""

import pytest

from repro.safety.functions import ProtectiveStop, SpeedLimiter
from repro.safety.monitor import SafetyMonitor
from repro.safety.people_detection import CollaborativePeopleDetection
from repro.sensors.camera import Camera
from repro.sensors.detection import Detection, PeopleDetector
from repro.sensors.occlusion import OcclusionModel
from repro.sim.entities import Entity
from repro.sim.forwarder import Forwarder
from repro.sim.geometry import Vec2
from repro.sim.missions import LogPile, MissionPlan
from repro.sim.terrain import Terrain
from repro.sim.world import World


@pytest.fixture
def world():
    return World(Terrain(200, 200))


@pytest.fixture
def forwarder(sim, log, world):
    mission = MissionPlan(
        piles=[LogPile(Vec2(150, 150), 12.0)], landing_point=Vec2(20, 20),
        load_time_s=5.0, unload_time_s=5.0,
    )
    return Forwarder("fwd", sim, log, Vec2(50, 50), world, mission)


class TestProtectiveStop:
    def test_engages_below_stop_distance(self, sim, log, forwarder):
        stop = ProtectiveStop(forwarder, sim, log, stop_distance_m=10.0)
        stop.evaluate(8.0)
        assert stop.engaged
        assert forwarder.safe_stopped

    def test_hysteresis_prevents_oscillation(self, sim, log, forwarder):
        stop = ProtectiveStop(
            forwarder, sim, log, stop_distance_m=10.0, clear_distance_m=15.0
        )
        stop.evaluate(8.0)
        stop.evaluate(12.0)  # between stop and clear: stays engaged
        assert stop.engaged
        stop.evaluate(16.0)
        assert not stop.engaged
        assert not forwarder.safe_stopped

    def test_clears_when_no_tracks(self, sim, log, forwarder):
        stop = ProtectiveStop(forwarder, sim, log)
        stop.evaluate(5.0)
        stop.evaluate(None)
        assert not stop.engaged


class TestSpeedLimiter:
    def test_tier_transitions(self, sim, log, forwarder):
        limiter = SpeedLimiter(forwarder, sim, log, degraded_speed=1.0,
                               crawl_speed=0.4)
        limiter.set_assurance("degraded")
        assert forwarder.speed_limit == 1.0
        limiter.set_assurance("minimal")
        assert forwarder.speed_limit == 0.4
        limiter.set_assurance("full")
        assert forwarder.speed_limit is None
        assert limiter.transitions == 3

    def test_same_tier_noop(self, sim, log, forwarder):
        limiter = SpeedLimiter(forwarder, sim, log)
        limiter.set_assurance("full")
        assert limiter.transitions == 0

    def test_unknown_tier_raises(self, sim, log, forwarder):
        with pytest.raises(ValueError):
            SpeedLimiter(forwarder, sim, log).set_assurance("warp")


class TestSafetyMonitor:
    def test_violation_requires_motion(self, sim, log, world):
        machine = Entity("m", sim, log, Vec2(50, 50), max_speed=2.0)
        person = Entity("p", sim, log, Vec2(53, 50))
        monitor = SafetyMonitor([machine], [person], sim, log)
        sim.run_until(5.0)  # machine stationary
        assert monitor.violation_count == 0
        machine.set_route([Vec2(100, 50)])
        sim.run_until(10.0)
        assert monitor.violation_count >= 1

    def test_min_separation_tracked(self, sim, log):
        machine = Entity("m", sim, log, Vec2(50, 50))
        person = Entity("p", sim, log, Vec2(60, 50))
        monitor = SafetyMonitor([machine], [person], sim, log)
        sim.run_until(2.0)
        assert monitor.min_separation_m == pytest.approx(10.0)

    def test_near_miss_edge_detection(self, sim, log):
        machine = Entity("m", sim, log, Vec2(50, 50), max_speed=2.0)
        person = Entity("p", sim, log, Vec2(58, 50))
        monitor = SafetyMonitor([machine], [person], sim, log,
                                violation_distance_m=3.0, near_miss_distance_m=10.0)
        machine.set_route([Vec2(56, 50)])  # approaches to ~2m... stops at 56
        sim.run_until(10.0)
        assert monitor.near_misses >= 1
        # staying in the near zone does not re-count
        count = monitor.near_misses
        sim.run_until(20.0)
        assert monitor.near_misses == count

    def test_summary_shape(self, sim, log):
        machine = Entity("m", sim, log, Vec2(0, 0))
        person = Entity("p", sim, log, Vec2(100, 100))
        monitor = SafetyMonitor([machine], [person], sim, log)
        sim.run_until(1.0)
        summary = monitor.summary()
        assert set(summary) == {
            "violations", "violation_seconds", "near_misses", "min_separation_m"
        }


class TestCollaborativePeopleDetection:
    def test_confirm_and_stop_on_approach(self, sim, log, streams, world, forwarder):
        occ = OcclusionModel(world)
        camera = Camera("cam", forwarder, occ, nominal_range=40.0)
        detector = PeopleDetector(camera, streams)
        person = Entity("p", sim, log, Vec2(70, 50), max_speed=1.5)
        person.body_height = 1.8
        function = CollaborativePeopleDetection(
            forwarder, sim, log, [detector], people_fn=lambda: [person],
            stop_distance_m=12.0,
        )
        person.set_route([forwarder.position])
        sim.run_until(40.0)
        assert "p" in function.first_confirm_times
        assert forwarder.safe_stops >= 1
        assert log.count("person_confirmed") == 1

    def test_remote_detections_fused(self, sim, log, streams, world, forwarder):
        occ = OcclusionModel(world)
        camera = Camera("cam", forwarder, occ, nominal_range=40.0)
        detector = PeopleDetector(camera, streams)
        remote = []
        function = CollaborativePeopleDetection(
            forwarder, sim, log, [detector], people_fn=lambda: [],
            remote_detections_fn=lambda: [remote.pop() for _ in range(len(remote))],
        )
        remote.append(Detection(
            time=0.0, sensor="drone-cam", target="p", confidence=0.9,
            estimated_position=Vec2(55, 50),
        ))
        sim.run_until(1.0)
        assert any(
            t.target == "p" for t in function.fusion.tracks.values()
        )

    def test_report_serialization_roundtrip(self):
        detections = [Detection(
            time=1.0, sensor="s", target="p", confidence=0.8,
            estimated_position=Vec2(1.0, 2.0),
        )]
        payload = CollaborativePeopleDetection.report_from_detections(detections)
        from repro.comms.messages import DetectionReport

        message = DetectionReport(sender="drone", recipient="fwd",
                                  payload={"detections": payload}, timestamp=1.0)
        rebuilt = CollaborativePeopleDetection.detections_from_report(message)
        assert rebuilt[0].target == "p"
        assert rebuilt[0].estimated_position == Vec2(1.0, 2.0)
