"""ModeMachine transitions and SensorHealthVoter quorum behaviour."""

import pytest

from repro.defense.recovery import ContinuityManager, RecoveryPlan
from repro.faults.modes import ModeMachine, SensorHealthVoter, VehicleMode
from repro.sim.engine import Simulator
from repro.sim.events import EventLog


@pytest.fixture
def machine_env():
    sim = Simulator()
    log = EventLog()
    continuity = ContinuityManager(
        RecoveryPlan.worksite_default(), sim, log, scope="forwarder"
    )
    return sim, log, continuity


class TestModeMachine:
    def test_starts_nominal(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        assert machine.mode is VehicleMode.NOMINAL
        assert machine.transitions == []

    def test_safe_stop_fallback_goes_straight_to_safe_stop(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        machine.service_down("command_link", cause="heartbeat_loss")
        assert machine.mode is VehicleMode.SAFE_STOP

    def test_reduced_speed_fallback_degrades_first(self, machine_env):
        sim, log, continuity = machine_env
        actions = []
        machine = ModeMachine(
            "forwarder", sim, log, continuity,
            on_degraded=lambda: actions.append("degraded"),
            on_safe_stop=lambda: actions.append("safe_stop"),
        )
        machine.service_down("detection_relay", cause="heartbeat_loss")
        assert machine.mode is VehicleMode.DEGRADED
        assert actions == ["degraded"]

    def test_rto_deadline_escalates_to_safe_stop(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        machine.service_down("detection_relay", cause="heartbeat_loss")
        # detection_relay RTO is 10 s in the worksite default plan
        sim.run_until(9.9)
        assert machine.mode is VehicleMode.DEGRADED
        sim.run_until(10.1)
        assert machine.mode is VehicleMode.SAFE_STOP
        assert machine.safe_stop_latencies == [pytest.approx(10.0)]

    def test_recovery_within_rto_avoids_safe_stop(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity,
                              recovery_time_s=5.0)
        machine.service_down("detection_relay", cause="heartbeat_loss")
        sim.run_until(4.0)
        machine.service_up("detection_relay")
        assert machine.mode is VehicleMode.RECOVERING
        sim.run_until(20.0)
        assert machine.mode is VehicleMode.NOMINAL
        # the cancelled deadline must not have fired
        assert all(t[2] != "safe_stop" for t in machine.transitions)

    def test_unplanned_service_uses_default_rto(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity,
                              default_rto_s=7.0)
        machine.service_down("mystery_service", cause="test")
        sim.run_until(6.9)
        assert machine.mode is VehicleMode.DEGRADED
        sim.run_until(7.1)
        assert machine.mode is VehicleMode.SAFE_STOP

    def test_explicit_fallback_overrides_plan(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("drone", sim, log, continuity)
        machine.service_down("compute", cause="node_crash",
                             fallback="safe_stop")
        assert machine.mode is VehicleMode.SAFE_STOP

    def test_service_down_is_idempotent(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        machine.service_down("detection_relay")
        machine.service_down("detection_relay")
        assert len(machine.transitions) == 1
        assert len(continuity.outages) == 1

    def test_recovery_waits_for_last_outage(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        machine.service_down("detection_relay")
        machine.service_down("telemetry")
        machine.service_up("detection_relay")
        assert machine.mode is VehicleMode.DEGRADED
        assert machine.down_services == ["telemetry"]
        machine.service_up("telemetry")
        assert machine.mode is VehicleMode.RECOVERING

    def test_new_outage_during_recovery_cancels_it(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity,
                              recovery_time_s=5.0)
        machine.service_down("detection_relay")
        machine.service_up("detection_relay")
        assert machine.mode is VehicleMode.RECOVERING
        machine.service_down("detection_relay", cause="relapse")
        sim.run_until(30.0)
        # recovery never completed; the RTO deadline escalated instead
        assert machine.mode is VehicleMode.SAFE_STOP

    def test_summary_shape(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        machine.service_down("command_link")
        summary = machine.summary()
        assert summary["mode"] == "safe_stop"
        assert summary["transitions"] == 1
        assert summary["down_services"] == ["command_link"]


class TestSensorHealthVoter:
    def test_quorum_loss_degrades_and_recovery_restores(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity,
                              recovery_time_s=1.0)
        health = {"cam": True, "us": True, "gnss": True}
        voter = SensorHealthVoter(
            sim,
            [(name, lambda n=name: health[n]) for name in health],
            machine,
            interval_s=1.0,
        )
        assert voter.quorum == 2
        sim.run_until(3.0)
        assert machine.mode is VehicleMode.NOMINAL
        health["cam"] = health["us"] = False
        sim.run_until(6.0)
        assert machine.mode is VehicleMode.DEGRADED
        assert "perception" in machine.down_services
        health["cam"] = health["us"] = True
        sim.run_until(12.0)
        assert machine.mode is VehicleMode.NOMINAL

    def test_stop_halts_voting(self, machine_env):
        sim, log, continuity = machine_env
        machine = ModeMachine("forwarder", sim, log, continuity)
        votes = []
        voter = SensorHealthVoter(
            sim, [("always", lambda: votes.append(sim.now) or True)], machine,
            interval_s=1.0,
        )
        sim.run_until(3.0)
        cast = len(votes)
        assert cast >= 2
        voter.stop()
        sim.run_until(10.0)
        assert len(votes) == cast
