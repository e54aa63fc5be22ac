"""Failure-injection integration tests.

The SoS discussion (Section IV-E) and Table I's disaster row both demand
graceful behaviour under partial failure: these tests kill components
mid-run and check the worksite degrades instead of breaking.
"""

import pytest

from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.sim.weather import WeatherState


class TestDroneLoss:
    def test_grounding_degrades_but_does_not_crash(self):
        scenario = build_worksite(ScenarioConfig(seed=21))
        scenario.run(300.0)
        scenario.drone.ground("failure-injection")
        scenario.run(600.0)  # advances past the grounding without error
        assert scenario.drone.mode.value == "grounded"
        # the forwarder keeps operating on its own sensors
        assert scenario.forwarder.alive
        assert scenario.safety_monitor.summary()["violations"] == 0

    def test_grounded_drone_stops_relaying(self):
        scenario = build_worksite(ScenarioConfig(seed=21))
        reports = []
        scenario.network.nodes["forwarder"].on_message(
            "detection_report", reports.append)
        scenario.run(300.0)
        received_before = len(reports)
        assert received_before > 0
        scenario.drone.ground("failure-injection")
        scenario.run(300.0)
        # a few in-flight reports may land; the stream must essentially stop
        assert len(reports) - received_before <= 2


class TestPowerLoss:
    def test_control_station_outage_triggers_degraded_mode(self):
        scenario = build_worksite(ScenarioConfig(seed=22))
        scenario.run(120.0)
        control = scenario.network.nodes["control"].endpoint
        control.powered = False
        scenario.run(60.0)
        # supervision loss: the forwarder limits speed rather than stopping
        assert scenario.forwarder.speed_limit == 1.0
        assert scenario.log.count("heartbeat_lost") >= 1
        control.powered = True
        scenario.run(120.0)
        assert scenario.forwarder.speed_limit is None
        assert scenario.log.count("heartbeat_recovered") >= 1

    def test_forwarder_radio_loss_seen_by_control(self):
        scenario = build_worksite(ScenarioConfig(seed=23))
        scenario.run(120.0)
        scenario.network.nodes["forwarder"].endpoint.powered = False
        scenario.run(30.0)
        lost = [e for e in scenario.log if e.kind == "heartbeat_lost"
                and e.source == "control"]
        assert lost


class TestWeatherShift:
    def test_fog_degrades_ground_detection(self):
        scenario = build_worksite(ScenarioConfig(
            seed=24, weather_frozen=True, drone_enabled=False,
        ))
        detector = scenario.detectors["forwarder"]
        scenario.run(600.0)
        clear_tp = detector.true_positives
        scenario.weather.force_state(WeatherState.FOG)
        scenario.run(600.0)
        fog_tp = detector.true_positives - clear_tp
        # same duration, markedly fewer true positives under fog
        assert fog_tp < 0.7 * max(clear_tp, 1)

    def test_wind_accelerates_drone_battery_drain(self):
        calm = build_worksite(ScenarioConfig(
            seed=25, weather_frozen=True, weather_initial=WeatherState.CLEAR,
        ))
        stormy = build_worksite(ScenarioConfig(
            seed=25, weather_frozen=True,
            weather_initial=WeatherState.HEAVY_RAIN,
        ))
        calm.run(600.0)
        stormy.run(600.0)
        assert stormy.drone.battery_s < calm.drone.battery_s


class TestPkiFailure:
    def test_revoked_node_cannot_reestablish(self):
        scenario = build_worksite(ScenarioConfig(seed=26))
        network = scenario.network
        drone_cert = network.identity("drone").chain[0]
        network.ca.revoke(drone_cert.serial)
        from repro.comms.crypto.secure_channel import HandshakeError

        with pytest.raises(HandshakeError):
            network.establish("control", "drone")

    def test_existing_channels_survive_revocation(self):
        # revocation gates *new* handshakes; established record keys keep
        # working until rotated (documented behaviour)
        scenario = build_worksite(ScenarioConfig(seed=26))
        network = scenario.network
        network.ca.revoke(network.identity("drone").chain[0].serial)
        reports = []
        network.nodes["forwarder"].on_message("detection_report",
                                              reports.append)
        scenario.run(60.0)
        assert reports
        assert network.nodes["forwarder"].records_rejected == 0
