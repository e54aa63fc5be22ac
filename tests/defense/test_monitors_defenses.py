"""Unit tests for GNSS monitor, camera defences, access control,
countermeasures and recovery."""

import pytest

from repro.comms.crypto.keys import KeyPair
from repro.comms.crypto.numbers import TEST_GROUP
from repro.defense.access_control import AccessControlPolicy
from repro.defense.camera_defense import AntiHackingDetector, CameraRedundancy
from repro.defense.countermeasures import CountermeasureCatalog
from repro.defense.gnss_monitor import GnssPlausibilityMonitor
from repro.defense.recovery import ContinuityManager, RecoveryPlan, ServiceObjective
from repro.sensors.camera import Camera
from repro.sensors.detection import PeopleDetector
from repro.sensors.gnss import GnssReceiver
from repro.sensors.occlusion import OcclusionModel
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2


class TestGnssMonitor:
    def _rig(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(100, 100), max_speed=3.0)
        gnss = GnssReceiver("g", carrier, streams)
        monitor = GnssPlausibilityMonitor("mon", sim, log, gnss)
        return carrier, gnss, monitor

    def test_nominal_fixes_trusted(self, sim, log, streams):
        carrier, gnss, monitor = self._rig(sim, log, streams)
        sim.run_until(60.0)
        assert monitor.alerts == []

    def test_jamming_detected_by_cn0_floor(self, sim, log, streams):
        carrier, gnss, monitor = self._rig(sim, log, streams)
        sim.run_until(30.0)
        gnss.jammer_power_db = 25.0
        sim.run_until(45.0)
        assert any(a.alert_type == "gnss_jamming" for a in monitor.alerts)

    def test_overpowered_spoof_detected_by_cn0_ceiling(self, sim, log, streams):
        carrier, gnss, monitor = self._rig(sim, log, streams)
        sim.run_until(30.0)
        gnss.spoof_offset = Vec2(0.5, 0.0)  # tiny offset, power gives it away
        gnss.spoof_power_advantage_db = 8.0
        sim.run_until(60.0)
        assert any(a.alert_type == "gnss_spoofing" for a in monitor.alerts)

    def test_position_jump_detected_by_innovation(self, sim, log, streams):
        carrier, gnss, monitor = self._rig(sim, log, streams)
        gnss.spoof_power_advantage_db = 0.0  # power-stealthy spoofer
        sim.run_until(30.0)
        gnss.spoof_offset = Vec2(50.0, 0.0)  # sudden 50 m jump
        sim.run_until(40.0)
        innovation = [
            a for a in monitor.alerts if a.details.get("check") == "innovation"
        ]
        assert innovation

    def test_slow_drag_detected_by_dead_reckoning(self, sim, log, streams):
        carrier, gnss, monitor = self._rig(sim, log, streams)
        gnss.spoof_power_advantage_db = 0.0
        sim.run_until(30.0)
        offset = [0.0]

        def drag():
            offset[0] += 0.5
            gnss.spoof_offset = Vec2(offset[0], 0.0)

        sim.every(1.0, drag)
        sim.run_until(120.0)
        dr = [a for a in monitor.alerts if a.details.get("check") == "dead_reckoning"]
        assert dr


@pytest.fixture
def camera_pair(sim, log, streams, flat_world):
    occ = OcclusionModel(flat_world)
    carrier_a = Entity("a", sim, log, Vec2(10, 10))
    carrier_b = Entity("b", sim, log, Vec2(12, 10))
    cam_a = Camera("cam-a", carrier_a, occ)
    cam_b = Camera("cam-b", carrier_b, occ)
    det_a = PeopleDetector(cam_a, streams)
    det_b = PeopleDetector(cam_b, streams)
    return cam_a, cam_b, det_a, det_b


class TestCameraRedundancy:
    def test_merges_healthy_feeds(self, camera_pair, sim, log):
        cam_a, cam_b, det_a, det_b = camera_pair
        redundancy = CameraRedundancy([det_a, det_b])
        person = Entity("p", sim, log, Vec2(15, 10))
        person.body_height = 1.8
        merged = []
        for i in range(50):
            merged.extend(redundancy.process_frame(float(i), [person]))
        assert any(d.target == "p" and d.sensor == "cam-a" for d in merged)
        assert any(d.target == "p" and d.sensor == "cam-b" for d in merged)

    def test_quarantines_hijacked_feed(self, camera_pair, sim, log):
        cam_a, cam_b, det_a, det_b = camera_pair
        redundancy = CameraRedundancy([det_a, det_b])
        person = Entity("p", sim, log, Vec2(15, 10))
        person.body_height = 1.8
        cam_a.hijack("attacker")
        for i in range(60):
            redundancy.process_frame(float(i), [person])
        assert redundancy.suspect["cam-a"]
        assert not redundancy.suspect["cam-b"]

    def test_recovered_feed_reinstated(self, camera_pair, sim, log):
        cam_a, cam_b, det_a, det_b = camera_pair
        redundancy = CameraRedundancy([det_a, det_b])
        person = Entity("p", sim, log, Vec2(15, 10))
        person.body_height = 1.8
        cam_a.hijack("attacker")
        for i in range(60):
            redundancy.process_frame(float(i), [person])
        cam_a.release()
        for i in range(60, 120):
            redundancy.process_frame(float(i), [person])
        assert not redundancy.suspect["cam-a"]

    def test_requires_detectors(self):
        with pytest.raises(ValueError):
            CameraRedundancy([])


class TestAntiHacking:
    def test_blinding_alert(self, camera_pair, sim, log):
        cam_a, cam_b, det_a, det_b = camera_pair
        detector = AntiHackingDetector("ah", sim, log, [det_a, det_b], interval_s=1.0)
        cam_a.blind(0.0, 10.0)
        sim.run_until(3.0)
        assert any(a.alert_type == "camera_blinding" for a in detector.alerts)

    def test_hijack_alert_via_silence(self, camera_pair, sim, log):
        cam_a, cam_b, det_a, det_b = camera_pair
        detector = AntiHackingDetector(
            "ah", sim, log, [det_a, det_b], interval_s=1.0, silence_factor=5,
        )
        person = Entity("p", sim, log, Vec2(15, 10))
        person.body_height = 1.8
        cam_a.hijack("attacker")
        sim.every(0.5, lambda: (det_a.process_frame(sim.now, [person]),
                                det_b.process_frame(sim.now, [person])))
        sim.run_until(30.0)
        hijack = [a for a in detector.alerts if a.alert_type == "camera_hijack"]
        assert hijack
        assert hijack[0].details["camera"] == "cam-a"


class TestAccessControl:
    def test_role_based_authorization(self, sim):
        policy = AccessControlPolicy()
        policy.assign("op", "operator")
        policy.authenticate("op", credential_valid=True, now=0.0)
        assert policy.authorize("op", "command.emergency_stop", 1.0)
        assert not policy.authorize("op", "config.write", 1.0)

    def test_observer_cannot_command(self):
        policy = AccessControlPolicy()
        policy.assign("viewer", "observer")
        policy.authenticate("viewer", credential_valid=True, now=0.0)
        assert not policy.authorize("viewer", "command.resume", 1.0)
        assert policy.authorize("viewer", "telemetry.read", 1.0)

    def test_no_session_no_access(self):
        policy = AccessControlPolicy()
        policy.assign("op", "operator")
        assert not policy.authorize("op", "command.resume", 1.0)

    def test_session_expiry(self):
        policy = AccessControlPolicy(session_lifetime_s=10.0)
        policy.assign("op", "operator")
        policy.authenticate("op", credential_valid=True, now=0.0)
        assert policy.authorize("op", "command.resume", 5.0)
        assert not policy.authorize("op", "command.resume", 20.0)

    def test_lockout_after_failures(self):
        policy = AccessControlPolicy(max_failures=3, lockout_s=100.0)
        for _ in range(3):
            assert policy.authenticate("op", credential_valid=False, now=0.0) is None
        assert policy.is_locked("op", 1.0)
        # even a valid credential is refused while locked
        assert policy.authenticate("op", credential_valid=True, now=50.0) is None
        assert policy.authenticate("op", credential_valid=True, now=200.0) is not None

    def test_unknown_role_raises(self):
        with pytest.raises(KeyError):
            AccessControlPolicy().assign("x", "superuser")

    def test_revoke_role(self):
        policy = AccessControlPolicy()
        policy.assign("op", "operator")
        policy.authenticate("op", credential_valid=True, now=0.0)
        policy.revoke("op", "operator")
        assert not policy.authorize("op", "command.resume", 1.0)

    def test_certificate_role_authorization(self):
        from repro.comms.crypto.certificates import CertificateAuthority

        ca = CertificateAuthority("ca", TEST_GROUP)
        kp = KeyPair.generate(TEST_GROUP, seed=b"x")
        cert = ca.issue("op", kp.public, roles=("operator",))
        policy = AccessControlPolicy()
        assert policy.authorize_from_certificate(cert, "command.resume")
        assert not policy.authorize_from_certificate(cert, "config.write")


class TestCountermeasures:
    def test_mitigating_sorted_strongest_first(self):
        catalog = CountermeasureCatalog()
        measures = catalog.mitigating("message_injection")
        strengths = [m.feasibility_increase for m in measures]
        assert strengths == sorted(strengths, reverse=True)

    def test_sl_capability_max_of_deployed(self):
        catalog = CountermeasureCatalog()
        assert catalog.sl_capability("FR6", []) == 0
        assert catalog.sl_capability("FR6", ["signature_ids"]) == 2
        assert catalog.sl_capability("FR6", ["signature_ids", "spec_ids"]) == 3

    def test_cheapest_covering_covers(self):
        catalog = CountermeasureCatalog()
        targets = ["message_injection", "gnss_spoofing", "wifi_deauth"]
        chosen = catalog.cheapest_covering(targets)
        covered = set()
        for measure in chosen:
            covered |= measure.mitigates
        assert set(targets) <= covered

    def test_cheapest_covering_unmitigable(self):
        catalog = CountermeasureCatalog()
        chosen = catalog.cheapest_covering(["alien_attack"])
        assert chosen == []

    def test_duplicate_names_rejected(self):
        catalog = CountermeasureCatalog()
        with pytest.raises(ValueError):
            CountermeasureCatalog(catalog.measures + [catalog.measures[0]])


class TestRecovery:
    def test_outage_activates_fallback(self, sim, log):
        manager = ContinuityManager(RecoveryPlan.worksite_default(), sim, log)
        fallback = manager.service_down("command_link", cause="jamming")
        assert fallback == "safe_stop"
        assert [e.data["fallback"] for e in log
                if e.kind == "service_down"] == ["safe_stop"]

    def test_rto_compliance_report(self, sim, log):
        plan = RecoveryPlan([ServiceObjective("svc", rto_s=10.0, rpo_s=1.0,
                                              fallback="degraded")])
        manager = ContinuityManager(plan, sim, log)
        manager.service_down("svc")
        sim.run_until(5.0)
        manager.service_up("svc")
        manager.service_down("svc")
        sim.run_until(30.0)
        manager.service_up("svc")
        report = manager.compliance_report()
        assert report["svc"]["outages"] == 2
        assert report["svc"]["rto_violations"] == 1
        assert report["svc"]["worst_outage_s"] == 25.0

    def test_duplicate_down_ignored(self, sim, log):
        manager = ContinuityManager(RecoveryPlan.worksite_default(), sim, log)
        manager.service_down("telemetry")
        assert manager.service_down("telemetry") is None
        assert len(manager.outages) == 1

    def test_open_outage_charged_to_now(self, sim, log):
        manager = ContinuityManager(RecoveryPlan.worksite_default(), sim, log)
        manager.service_down("telemetry")
        sim.run_until(10.0)
        assert manager.outages[0].downtime(sim.now) == 10.0
        assert manager.compliance_report()["telemetry"]["worst_outage_s"] == 10.0
        assert manager.outages[0].duration is None
        assert log.count("service_up") == 0
