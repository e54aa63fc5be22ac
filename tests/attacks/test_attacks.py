"""Unit tests for the attack substrate."""

import pytest

from repro.attacks.base import Attack, Attacker
from repro.attacks.camera_attacks import CameraBlindingAttack, CameraHijackAttack
from repro.attacks.deauth import DeauthAttack
from repro.attacks.gnss_attacks import GnssJammingAttack, GnssSpoofingAttack
from repro.attacks.interference import InterferenceSource
from repro.attacks.jamming import JammingAttack
from repro.attacks.scenarios import AttackCampaign
from repro.comms.medium import WirelessMedium
from repro.comms.link import LinkEndpoint
from repro.sensors.camera import Camera
from repro.sensors.gnss import GnssReceiver
from repro.sensors.occlusion import OcclusionModel
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2


@pytest.fixture
def medium(sim, log, streams):
    return WirelessMedium(sim, log, streams)


class TestAttackLifecycle:
    def test_start_stop_events(self, sim, log):
        attack = Attack("a1", sim, log)
        attack.start()
        assert attack.active
        assert attack.started_at == 0.0
        attack.stop()
        assert not attack.active
        assert log.count("attack_started") == 1
        assert log.count("attack_stopped") == 1

    def test_start_idempotent(self, sim, log):
        attack = Attack("a1", sim, log)
        attack.start()
        attack.start()
        assert log.count("attack_started") == 1

    def test_scheduled_window(self, sim, log):
        attack = Attack("a1", sim, log)
        attack.schedule(10.0, duration=5.0)
        sim.run_until(9.0)
        assert not attack.active
        sim.run_until(12.0)
        assert attack.active
        sim.run_until(20.0)
        assert not attack.active

    def test_attacker_toolkit(self, sim, log):
        attacker = Attacker("mallory", sim, log, Vec2(0, 0))
        a1 = attacker.add(Attack("a1", sim, log))
        a2 = attacker.add(Attack("a2", sim, log))
        a1.start()
        assert attacker.active_attacks == [a1]
        attacker.stop_all()
        assert attacker.active_attacks == []


class TestJamming:
    def test_jammer_registered_and_removed(self, sim, log, medium):
        attack = JammingAttack("jam", sim, log, medium, Vec2(0, 0))
        attack.start()
        assert len(medium.jammers) == 1
        attack.stop()
        assert medium.jammers == []

    def test_jamming_degrades_link(self, sim, log, medium):
        a = LinkEndpoint("a", lambda: Vec2(0, 0), medium, sim, log)
        b = LinkEndpoint("b", lambda: Vec2(80, 0), medium, sim, log)
        received = []
        b.on_receive(lambda frame, raw: received.append(1))
        attack = JammingAttack("jam", sim, log, medium, Vec2(40, 0), power_dbm=33.0)
        attack.start()
        for i in range(30):
            sim.schedule(i * 0.1, lambda: a.send("b", b"x", reliable=False))
        sim.run_until(5.0)
        assert len(received) < 5

    def test_interference_is_bursty(self, sim, log, medium, streams):
        attack = InterferenceSource(
            "intf", sim, log, medium, streams, Vec2(0, 0), duty_cycle=0.5,
        )
        attack.start()
        states = []
        sim.every(0.5, lambda: states.append(attack._transmitting))
        sim.run_until(60.0)
        assert any(states) and not all(states)
        attack.stop()
        assert not attack._transmitting


class TestDeauth:
    def test_flood_disconnects_unprotected_victim(self, sim, log, medium):
        victim = LinkEndpoint("victim", lambda: Vec2(10, 0), medium, sim, log,
                              reassociation_time_s=3.0)
        attack = DeauthAttack(
            "deauth", sim, log, medium, Vec2(5, 0), victim="victim",
            spoofed_peer="control", rate_hz=5.0,
        )
        attack.start()
        sim.run_until(5.0)
        assert victim.deauths_received > 5
        assert log.count("deauthenticated") >= 1
        attack.stop()

    def test_protected_victim_resists(self, sim, log, medium):
        victim = LinkEndpoint(
            "victim", lambda: Vec2(10, 0), medium, sim, log,
            protected_management=True, management_key=b"key",
        )
        attack = DeauthAttack(
            "deauth", sim, log, medium, Vec2(5, 0), victim="victim",
            spoofed_peer="control", rate_hz=5.0,
        )
        attack.start()
        sim.run_until(5.0)
        assert victim.associated
        assert victim.deauths_rejected > 5


class TestGnssAttacks:
    def test_jamming_suppression_scales_with_distance(self, sim, log, streams):
        near_carrier = Entity("n", sim, log, Vec2(10, 0))
        far_carrier = Entity("f", sim, log, Vec2(500, 0))
        near = GnssReceiver("gn", near_carrier, streams)
        far = GnssReceiver("gf", far_carrier, streams)
        attack = GnssJammingAttack(
            "gjam", sim, log, Vec2(0, 0), [near, far], power_dbm=33.0,
        )
        attack.start()
        sim.run_until(2.0)
        assert near.jammer_power_db > far.jammer_power_db
        assert not near.fix(sim.now).valid
        attack.stop()
        assert near.jammer_power_db == 0.0
        assert near.fix(sim.now).valid

    def test_spoofing_slow_drag(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(100, 100))
        gnss = GnssReceiver("g", carrier, streams)
        attack = GnssSpoofingAttack(
            "spoof", sim, log, gnss, drift_per_s=Vec2(1.0, 0.0),
            max_offset_m=20.0,
        )
        attack.start()
        sim.run_until(5.0)
        offset_5 = gnss.spoof_offset.norm()
        sim.run_until(50.0)
        offset_50 = gnss.spoof_offset.norm()
        assert 3.0 < offset_5 < 7.0
        assert offset_50 == pytest.approx(20.0, abs=1.5)  # capped
        attack.stop()
        assert gnss.spoof_offset is None


class TestCameraAttacks:
    def _camera(self, sim, log, flat_world):
        occ = OcclusionModel(flat_world)
        carrier = Entity("c", sim, log, Vec2(10, 10))
        return Camera("cam", carrier, occ)

    def test_blinding_within_range(self, sim, log, flat_world):
        camera = self._camera(sim, log, flat_world)
        attack = CameraBlindingAttack(
            "blind", sim, log, camera, Vec2(30, 10), effective_range=50.0,
            pulse_s=1.0,
        )
        attack.start()
        sim.run_until(3.0)
        assert camera.is_blinded(sim.now)
        assert log.count("sensor_blinded") >= 2
        attack.stop()
        sim.run_until(10.0)
        assert not camera.is_blinded(sim.now)

    def test_blinding_out_of_range_no_effect(self, sim, log, flat_world):
        camera = self._camera(sim, log, flat_world)
        attack = CameraBlindingAttack(
            "blind", sim, log, camera, Vec2(190, 190), effective_range=20.0,
        )
        attack.start()
        sim.run_until(5.0)
        assert not camera.is_blinded(sim.now)
        assert log.count("sensor_blinded") == 0

    def test_hijack_and_release(self, sim, log, flat_world):
        camera = self._camera(sim, log, flat_world)
        attack = CameraHijackAttack("hijack", sim, log, camera)
        attack.start()
        assert camera.hijacked_by == "hijack"
        attack.stop()
        assert camera.hijacked_by is None


class TestCampaign:
    def test_arming_schedules_steps(self, sim, log):
        campaign = AttackCampaign("c", "test")
        a1 = Attack("a1", sim, log)
        a2 = Attack("a2", sim, log)
        campaign.add(a1, 5.0, 10.0).add(a2, 20.0)
        campaign.arm()
        sim.run_until(6.0)
        assert a1.active and not a2.active
        sim.run_until(25.0)
        assert not a1.active and a2.active

    def test_double_arm_raises(self, sim, log):
        campaign = AttackCampaign("c")
        campaign.add(Attack("a", sim, log), 1.0)
        campaign.arm()
        with pytest.raises(RuntimeError):
            campaign.arm()

    def test_ground_truth_windows(self, sim, log):
        campaign = AttackCampaign("c")
        campaign.add(Attack("a", sim, log), 5.0, 10.0)
        campaign.add(Attack("b", sim, log), 20.0)
        windows = campaign.ground_truth_windows()
        assert windows[0] == ("generic", 5.0, 15.0)
        assert windows[1][2] == float("inf")
