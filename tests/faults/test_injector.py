"""FaultInjector: arming, per-kind hooks, and the non-perturbation no-op."""

import pytest

from repro.faults.campaigns import FAULT_CAMPAIGNS, build_fault_campaign
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.inputs import InputError
from repro.scenarios.worksite import ScenarioConfig, build_worksite


def scenario_with(*faults, seed=5):
    scenario = build_worksite(ScenarioConfig(seed=seed))
    schedule = FaultSchedule(faults=tuple(faults))
    return scenario, FaultInjector(scenario, schedule).arm()


def assert_nothing_installed(scenario, injector, pending):
    assert injector.armed is False
    assert injector.machines == {}
    assert scenario.sim.pending == pending
    for node in scenario.network.nodes.values():
        assert node.endpoint.retry_policy is None


class TestArming:
    def test_empty_schedule_arms_nothing(self):
        scenario = build_worksite(ScenarioConfig(seed=5))
        injector = FaultInjector(scenario, FaultSchedule()).arm()
        assert injector.armed is False
        assert injector.machines == {}
        assert injector.continuities == {}
        # no retry hardening either
        for node in scenario.network.nodes.values():
            assert node.endpoint.retry_policy is None

    def test_nonempty_schedule_builds_resilience_stack(self):
        scenario, injector = scenario_with(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0)
        )
        assert injector.armed is True
        assert set(injector.machines) == {"forwarder", "drone"}
        assert set(injector.continuities) == {"forwarder", "drone"}
        for node in scenario.network.nodes.values():
            assert node.endpoint.retry_policy is not None

    @pytest.mark.parametrize("kind", ["sensor_freeze", "sensor_dropout",
                                      "sensor_bias"])
    def test_unknown_sensor_target_refused_before_arming(self, kind):
        scenario = build_worksite(ScenarioConfig(seed=5))
        schedule = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0),
            FaultSpec.make(kind, "cam-nowhere", 10.0, 5.0),
        ))
        injector = FaultInjector(scenario, schedule)
        pending = scenario.sim.pending
        with pytest.raises(InputError,
                           match=r"'cam-nowhere'.*'cam-forwarder'"):
            injector.arm()
        assert_nothing_installed(scenario, injector, pending)

    @pytest.mark.parametrize("kind", ["node_crash", "radio_brownout",
                                      "clock_drift"])
    def test_unknown_node_target_refused_before_arming(self, kind):
        # on a name outside the worksite these kinds would do nothing
        scenario = build_worksite(ScenarioConfig(seed=5))
        schedule = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0),
            FaultSpec.make(kind, "nowhere", 10.0, 5.0),
        ))
        injector = FaultInjector(scenario, schedule)
        pending = scenario.sim.pending
        with pytest.raises(
            InputError,
            match=r"'nowhere' for " + kind + r".*'control', 'drone', 'forwarder'",
        ):
            injector.arm()
        assert_nothing_installed(scenario, injector, pending)

    def test_drone_fault_without_a_drone_arms_as_a_no_op(self):
        scenario = build_worksite(ScenarioConfig(seed=5, drone_enabled=False))
        injector = FaultInjector(scenario, FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0),
        ))).arm()
        assert injector.armed is True
        assert "drone" not in injector.machines
        scenario.run(20.0)
        assert (injector.faults_injected, injector.faults_cleared) == (1, 1)

    def test_unresolved_jitter_refused_before_arming(self):
        # jitter is drawn once, when the run spec is built; arming a
        # schedule that still carries it would draw a second timeline
        scenario = build_worksite(ScenarioConfig(seed=5))
        schedule = FaultSchedule(
            faults=(FaultSpec.make("node_crash", "drone", 10.0, 5.0),),
            jitter_s=2.0,
        )
        injector = FaultInjector(scenario, schedule)
        pending = scenario.sim.pending
        with pytest.raises(ValueError, match="unresolved jitter_s=2.0"):
            injector.arm()
        assert_nothing_installed(scenario, injector, pending)

    def test_arm_is_idempotent(self):
        scenario, injector = scenario_with(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0)
        )
        assert injector.arm() is injector
        assert injector.faults_injected == 0


class TestFaultKinds:
    def test_node_crash_powers_endpoint_down_and_back(self):
        scenario, injector = scenario_with(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0)
        )
        endpoint = scenario.network.nodes["drone"].endpoint
        scenario.run(12.0)
        assert endpoint.powered is False
        assert injector.faults_injected == 1
        scenario.run(16.0)
        assert endpoint.powered is True
        assert injector.faults_cleared == 1

    def test_radio_brownout_sags_tx_power(self):
        scenario, injector = scenario_with(
            FaultSpec.make("radio_brownout", "forwarder", 10.0, 5.0,
                           {"sag_db": 9.0})
        )
        scenario.run(12.0)
        assert scenario.medium._power_sag == {"forwarder": 9.0}
        scenario.run(16.0)
        assert scenario.medium._power_sag == {}

    def test_sensor_freeze_and_dropout(self):
        scenario, injector = scenario_with(
            FaultSpec.make("sensor_freeze", "cam-forwarder", 10.0, 5.0),
            FaultSpec.make("sensor_dropout", "us-forwarder", 10.0, 5.0),
        )
        camera = scenario.cameras["forwarder"]
        ultrasonic = scenario.safety_function.ultrasonic
        scenario.run(12.0)
        assert camera.fault_frozen is True
        assert ultrasonic.fault_dropout is True
        assert not ultrasonic.operational(scenario.sim.now)
        scenario.run(16.0)
        assert camera.fault_frozen is False
        assert ultrasonic.fault_dropout is False

    def test_gnss_bias_offsets_fixes(self):
        scenario, injector = scenario_with(
            FaultSpec.make("sensor_bias", "gnss-forwarder", 10.0, 20.0,
                           {"bias_east_m": 5.0, "bias_north_m": 0.0})
        )
        scenario.run(12.0)
        assert scenario.gnss.fault_bias is not None
        assert scenario.gnss.fault_bias.x == 5.0
        scenario.run(40.0)
        assert scenario.gnss.fault_bias is None

    def test_clock_drift_offsets_local_time(self):
        scenario, injector = scenario_with(
            FaultSpec.make("clock_drift", "drone", 10.0, 20.0,
                           {"offset_s": 0.5, "rate": 0.0})
        )
        sim = scenario.sim
        scenario.run(12.0)
        assert sim.local_time("drone") == pytest.approx(sim.now + 0.5)
        assert sim.local_time("forwarder") == sim.now
        scenario.run(40.0)
        assert sim.local_time("drone") == sim.now

    def test_packet_corruption_drops_frames(self):
        scenario, injector = scenario_with(
            FaultSpec.make("packet_corruption", "medium", 5.0, 30.0,
                           {"probability": 0.5})
        )
        scenario.run(40.0)
        assert scenario.log.count("frame_corrupted") > 0
        assert scenario.medium._corruption is None  # cleared


class TestDegradedModes:
    def test_drone_crash_drives_forwarder_to_safe_stop_within_rto(self):
        scenario, injector = scenario_with(
            FaultSpec.make("node_crash", "drone", 20.0, 30.0)
        )
        scenario.run(60.0)
        machine = injector.machines["forwarder"]
        stops = [t for t in machine.transitions if t[2] == "safe_stop"]
        assert stops, machine.transitions
        # heartbeat timeout (<= ~6 s) + detection_relay RTO (10 s)
        assert stops[0][0] <= 20.0 + 6.5 + 10.0
        assert scenario.forwarder.safe_stops >= 1

    def test_vehicles_recover_to_nominal_after_clear(self):
        scenario, injector = scenario_with(
            FaultSpec.make("node_crash", "drone", 20.0, 30.0)
        )
        scenario.run(90.0)
        assert {name: mode.value for name, mode in injector.final_modes().items()} == {
            "forwarder": "nominal", "drone": "nominal",
        }
        assert scenario.network.rejoins > 0


class TestResilienceSummary:
    def test_summary_shape_and_accounting(self):
        scenario, injector = scenario_with(
            FaultSpec.make("node_crash", "drone", 20.0, 30.0)
        )
        scenario.run(90.0)
        summary = injector.resilience_summary(90.0)
        assert summary["faults"] == {
            "scheduled": 1, "injected": 1, "cleared": 1, "active_at_end": 0,
        }
        assert 0.0 < summary["availability"]["forwarder.detection_relay"] < 1.0
        assert summary["mttr_s"] > 0.0
        assert summary["safe_stop_latency"]["count"] >= 1
        compliance = summary["compliance"]["forwarder"]
        assert compliance["detection_relay"]["outages"] == 1
        assert compliance["detection_relay"]["rto_violations"] == 1

    def test_open_faults_counted_at_end(self):
        scenario, injector = scenario_with(
            FaultSpec.make("sensor_dropout", "us-forwarder", 10.0)
        )
        scenario.run(30.0)
        summary = injector.resilience_summary(30.0)
        assert summary["faults"]["active_at_end"] == 1
        assert summary["faults"]["cleared"] == 0


class TestCampaignCatalogue:
    def test_known_campaigns_build(self):
        for name in FAULT_CAMPAIGNS:
            schedule = build_fault_campaign(name, start=10.0, duration=20.0)
            assert len(schedule) >= 2

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown fault campaign"):
            build_fault_campaign("nope")

    def test_crash_brownout_runs_deterministically(self):
        def run_once():
            scenario = build_worksite(ScenarioConfig(seed=11))
            schedule = build_fault_campaign(
                "crash_brownout", start=20.0, duration=30.0
            )
            injector = FaultInjector(scenario, schedule).arm()
            scenario.run(90.0)
            return injector.resilience_summary(90.0)

        assert run_once() == run_once()
