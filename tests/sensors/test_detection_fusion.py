"""Unit tests for the people detector and track fusion."""

import pytest

from repro.sensors.camera import Camera
from repro.sensors.detection import Detection, PeopleDetector
from repro.sensors.fusion import TrackFusion
from repro.sensors.occlusion import OcclusionModel
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2


@pytest.fixture
def detector_rig(sim, log, streams, flat_world):
    occ = OcclusionModel(flat_world)
    carrier = Entity("carrier", sim, log, Vec2(10, 10))
    camera = Camera("cam", carrier, occ, nominal_range=40.0)
    detector = PeopleDetector(camera, streams)
    return carrier, camera, detector


class TestPeopleDetector:
    def test_tpr_monotone_in_quality(self, detector_rig):
        _, __, detector = detector_rig
        qualities = [0.0, 0.1, 0.3, 0.6, 1.0]
        rates = [detector.tpr(q) for q in qualities]
        assert rates == sorted(rates)
        assert rates[0] == 0.0
        assert rates[-1] > 0.9

    def test_detects_close_person_reliably(self, detector_rig, sim, log):
        _, __, detector = detector_rig
        person = Entity("p", sim, log, Vec2(18, 10))
        person.body_height = 1.8
        hits = sum(
            1 for i in range(100)
            if any(
                d.target == "p" for d in detector.process_frame(float(i), [person])
            )
        )
        assert hits > 85

    def test_misses_distant_person(self, detector_rig, sim, log):
        _, __, detector = detector_rig
        person = Entity("p", sim, log, Vec2(200, 10))
        hits = sum(
            1 for i in range(100)
            if any(
                d.target == "p" for d in detector.process_frame(float(i), [person])
            )
        )
        assert hits < 10

    def test_hijacked_feed_produces_nothing(self, detector_rig, sim, log):
        _, camera, detector = detector_rig
        person = Entity("p", sim, log, Vec2(15, 10))
        camera.hijack("attacker")
        for i in range(50):
            assert detector.process_frame(float(i), [person]) == []
        camera.release()
        results = [detector.process_frame(float(i + 50), [person]) for i in range(20)]
        assert any(results)

    def test_false_positive_rate_in_expected_band(self, detector_rig):
        _, __, detector = detector_rig
        frames = 3000
        ghosts = sum(len(detector.process_frame(float(i), []))
                     for i in range(frames))
        rate = ghosts / frames
        # empty scene in clear conditions: fp probability is fp_rate_clear
        assert 0.0 < rate < 0.02

    def test_localization_noise_bounded(self, detector_rig, sim, log):
        _, __, detector = detector_rig
        person = Entity("p", sim, log, Vec2(20, 10))
        errors = []
        for i in range(200):
            for det in detector.process_frame(float(i), [person]):
                if det.target == "p":
                    errors.append(det.estimated_position.distance_to(person.position))
        assert errors
        assert sum(errors) / len(errors) < 3.0


class TestTrackFusion:
    def _detection(self, time, sensor, pos, conf=0.6, target="p"):
        return Detection(
            time=time, sensor=sensor, target=target, confidence=conf,
            estimated_position=pos,
        )

    def test_new_detection_creates_track(self):
        fusion = TrackFusion()
        tracks = fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5))])
        assert len(tracks) == 1
        assert tracks[0].confidence == 0.6

    def test_nearby_detections_associate(self):
        fusion = TrackFusion(gate_m=5.0)
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5))])
        tracks = fusion.update(0.5, [self._detection(0.5, "b", Vec2(6, 5))])
        assert len(tracks) == 1
        assert set(tracks[0].sources) == {"a", "b"}

    def test_independent_sources_raise_confidence(self):
        fusion = TrackFusion()
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5), conf=0.6)])
        tracks = fusion.update(0.0, [self._detection(0.0, "b", Vec2(5, 5), conf=0.6)])
        assert tracks[0].confidence == pytest.approx(1 - 0.4 * 0.4, abs=0.01)

    def test_distant_detections_make_separate_tracks(self):
        fusion = TrackFusion(gate_m=5.0)
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5))])
        tracks = fusion.update(0.0, [self._detection(0.0, "a", Vec2(50, 50))])
        assert len(tracks) == 2

    def test_confidence_decays_without_updates(self):
        fusion = TrackFusion(decay_halflife_s=2.0)
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5), conf=0.8)])
        tracks = fusion.update(2.0, [])
        assert tracks[0].confidence == pytest.approx(0.4, abs=0.02)

    def test_stale_tracks_pruned(self):
        fusion = TrackFusion(decay_halflife_s=1.0, drop_threshold=0.05)
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5), conf=0.5)])
        tracks = fusion.update(30.0, [])
        assert tracks == []

    def test_confirmed_threshold(self):
        fusion = TrackFusion(confirm_threshold=0.7)
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5), conf=0.5)])
        assert fusion.confirmed_tracks() == []
        fusion.update(0.1, [self._detection(0.1, "b", Vec2(5, 5), conf=0.6)])
        assert len(fusion.confirmed_tracks()) == 1

    def test_ground_truth_identity_attaches(self):
        fusion = TrackFusion()
        fusion.update(0.0, [self._detection(0.0, "a", Vec2(5, 5), target=None)])
        tracks = fusion.update(0.1, [self._detection(0.1, "b", Vec2(5, 5), target="p")])
        assert tracks[0].target == "p"
