"""Unit tests for the eavesdropping attack and the drone cross-validation
defence (paper extensions)."""

import pytest

from repro.attacks.eavesdropping import EavesdroppingAttack
from repro.attacks.gnss_attacks import GnssSpoofingAttack
from repro.comms.crypto.numbers import TEST_GROUP
from repro.comms.crypto.secure_channel import SecurityProfile
from repro.comms.medium import WirelessMedium
from repro.comms.messages import Telemetry
from repro.comms.network import Network
from repro.defense.cross_validation import CollaborativePositionCheck, drone_observer
from repro.sensors.gnss import GnssReceiver
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2


def _net(sim, log, streams, profile):
    medium = WirelessMedium(sim, log, streams)
    network = Network(sim, log, medium, group=TEST_GROUP, profile=profile)
    a = network.add_node("machine", lambda: Vec2(0, 0))
    b = network.add_node("control", lambda: Vec2(60, 0))
    network.establish_all()
    return medium, a


class TestEavesdropping:
    def _run(self, sim, log, streams, profile, n=20):
        medium, node = _net(sim, log, streams, profile)
        attack = EavesdroppingAttack("ear", sim, log, medium)
        attack.start()
        for i in range(n):
            sim.schedule(i * 0.5, lambda: node.send(
                Telemetry(sender="machine", recipient="control",
                          payload={"x": 1.0, "y": 2.0}),
                reliable=False,
            ))
        sim.run_until(n * 0.5 + 2.0)
        return attack

    def test_plaintext_traffic_fully_disclosed(self, sim, log, streams):
        attack = self._run(sim, log, streams, SecurityProfile.PLAINTEXT)
        assert attack.messages_disclosed == attack.frames_observed > 0
        assert attack.positions_tracked > 0
        assert attack.disclosed_types.get("telemetry", 0) > 0

    def test_integrity_profile_still_leaks_content(self, sim, log, streams):
        attack = self._run(sim, log, streams, SecurityProfile.INTEGRITY)
        assert attack.messages_disclosed > 0
        assert attack.positions_tracked > 0

    def test_aead_traffic_opaque(self, sim, log, streams):
        attack = self._run(sim, log, streams, SecurityProfile.AEAD)
        assert attack.messages_disclosed == 0
        assert attack.positions_tracked == 0
        assert attack.disclosed_types == {}
        assert attack.frames_observed > 0

    def test_inactive_attack_captures_nothing(self, sim, log, streams):
        medium, node = _net(sim, log, streams, SecurityProfile.PLAINTEXT)
        attack = EavesdroppingAttack("ear", sim, log, medium)
        node.send(Telemetry(sender="machine", recipient="control"),
                  reliable=False)
        sim.run_until(1.0)
        assert attack.frames_observed == 0


class TestCrossValidation:
    def _rig(self, sim, log, streams):
        forwarder = Entity("fwd", sim, log, Vec2(100, 100), max_speed=3.0)
        drone = Entity("drone", sim, log, Vec2(105, 100))
        drone.state.altitude = 40.0
        gnss = GnssReceiver("g", forwarder, streams)
        observer = drone_observer(drone, forwarder, streams)
        check = CollaborativePositionCheck(
            "crossval", sim, log, gnss, observer, interval_s=1.0,
        )
        return forwarder, drone, gnss, check

    def test_nominal_fixes_cross_validate(self, sim, log, streams):
        _, __, ___, check = self._rig(sim, log, streams)
        sim.run_until(30.0)
        assert check.alerts == []
        assert check.checks > 20

    def test_power_stealthy_slow_drag_caught(self, sim, log, streams):
        forwarder, drone, gnss, check = self._rig(sim, log, streams)
        gnss.spoof_power_advantage_db = 0.0  # evades the C/N0 ceiling
        attack = GnssSpoofingAttack(
            "spoof", sim, log, gnss, drift_per_s=Vec2(0.8, 0.0),
        )
        attack.schedule(10.0, 120.0)
        sim.run_until(120.0)
        assert any(
            a.details.get("check") == "drone_cross_validation"
            for a in check.alerts
        )

    def test_no_reference_when_drone_grounded(self, sim, log, streams):
        forwarder, drone, gnss, check = self._rig(sim, log, streams)
        drone.state.altitude = 0.0  # grounded: no visual reference
        gnss.spoof_offset = Vec2(50, 0)
        sim.run_until(30.0)
        assert check.alerts == []  # silent, not wrong
        assert check.checks == 0

    def test_no_reference_beyond_visual_range(self, sim, log, streams):
        forwarder, drone, gnss, check = self._rig(sim, log, streams)
        drone.state.position = Vec2(500, 500)
        gnss.spoof_offset = Vec2(50, 0)
        sim.run_until(30.0)
        assert check.checks == 0


class TestWorksiteWiring:
    def test_crossval_attached_with_drone(self):
        from repro.scenarios.worksite import ScenarioConfig, build_worksite

        scenario = build_worksite(ScenarioConfig(seed=1))
        names = [d.name for d in scenario.ids_manager.detectors]
        assert "drone-crossval" in names

    def test_eavesdropping_campaign_builds(self):
        from repro.scenarios.campaigns import build_campaign
        from repro.scenarios.worksite import ScenarioConfig, build_worksite

        scenario = build_worksite(ScenarioConfig(seed=1))
        campaign = build_campaign("eavesdropping", scenario, start=10.0)
        campaign.arm()
        scenario.run(60.0)
        attack = campaign.steps[0].attack
        assert attack.frames_observed > 0
        assert attack.messages_disclosed == 0  # AEAD default profile
