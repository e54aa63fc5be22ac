"""End-to-end tests for the ground-station plane: the scripted operator
session, the three adversaries, IDS attribution, and the serial == pool
byte-identity of the audit chain."""

import json

import pytest

from repro.comms.crypto.replay import ReplayWindow
from repro.groundstation.audit import verify_chain
from repro.groundstation.station import GAP_TIMEOUT_S, PAUSE_SPEED_LIMIT
from repro.runner import RunSpec, execute_run, run_sweep
from repro.scenarios.worksite import ScenarioConfig, build_worksite

SEED = 11
HORIZON = 90.0


def run_plane(gs_attacks="", seed=SEED, horizon=HORIZON, **config_over):
    scenario = build_worksite(ScenarioConfig(
        seed=seed, groundstation_enabled=True, gs_attacks=gs_attacks,
        **config_over,
    ))
    scenario.run(horizon)
    scenario.groundstation.finalize()
    return scenario


class TestReplayWindow:
    """The per-sender window the vehicles and the control station run."""

    def test_fresh_counters_admitted(self):
        window = ReplayWindow()
        for counter in (0, 1, 2):
            assert window.verdict(counter) is None
            window.accept(counter)

    def test_duplicate_rejected(self):
        window = ReplayWindow()
        window.accept(5)
        assert window.verdict(5) == "replay"

    def test_out_of_order_within_window_admitted_once(self):
        window = ReplayWindow()
        window.accept(10)
        assert window.verdict(3) is None
        window.accept(3)
        assert window.verdict(3) == "replay"

    def test_below_window_horizon_rejected(self):
        window = ReplayWindow()
        window.accept(100)
        assert window.verdict(36) == "stale"
        assert window.verdict(37) is None


class TestScriptedSession:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_plane()

    def test_script_executes_at_the_vehicle(self, scenario):
        vehicle = scenario.groundstation.vehicle("forwarder")
        assert vehicle.verdicts == {"executed": 4}

    def test_pause_caps_speed_then_start_lifts_it(self):
        scenario = build_worksite(ScenarioConfig(
            seed=SEED, groundstation_enabled=True,
        ))
        scenario.run(35.0)  # pause at t=30 has landed, start (t=45) has not
        assert scenario.forwarder.speed_limit == PAUSE_SPEED_LIMIT
        # start lands at t=45, the machine re-enters NOMINAL (and lifts
        # the cap) after its 5 s recovery dwell
        scenario.run(16.0)
        assert scenario.forwarder.speed_limit is None

    def test_safe_stop_and_rejoin(self):
        scenario = build_worksite(ScenarioConfig(
            seed=SEED, groundstation_enabled=True,
        ))
        scenario.run(65.0)  # safe_stop at t=60
        assert scenario.forwarder.safe_stopped
        scenario.run(15.0)  # now t=80: rejoin at t=75 has cleared it
        assert not scenario.forwarder.safe_stopped

    def test_station_audits_every_delivery(self, scenario):
        gs = scenario.groundstation
        audit_entries = len(gs.audit.entries)
        # every bus publish reached the station exactly once (plus close)
        assert audit_entries == gs.bus.published + 1
        assert gs.station.verdicts.get("ok") == gs.bus.published

    def test_audit_chain_verifies_from_seed_alone(self, scenario):
        report = verify_chain(scenario.groundstation.audit.entries, SEED)
        assert report["ok"] and report["complete"]

    def test_clean_session_raises_no_gs_ids_alerts(self, scenario):
        gs_kinds = ("command_forgery", "command_replay", "alert_suppression")
        for kind in gs_kinds:
            assert scenario.ids_manager.alerts_of_type(kind) == []

    def test_plane_off_has_no_groundstation(self):
        scenario = build_worksite(ScenarioConfig(seed=SEED))
        assert scenario.groundstation is None

    def test_attacks_without_plane_rejected(self):
        with pytest.raises(ValueError, match="groundstation"):
            build_worksite(ScenarioConfig(
                seed=SEED, gs_attacks="command_replay",
            ))

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_worksite(ScenarioConfig(
                seed=SEED, groundstation_enabled=True, gs_attacks="nope",
            ))


class TestCommandForgery:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_plane(gs_attacks="command_forgery")

    def test_no_forged_command_executes(self, scenario):
        vehicle = scenario.groundstation.vehicle("forwarder")
        # the scripted session still executes; every injection bounces
        assert vehicle.verdicts.get("executed") == 4
        assert vehicle.verdicts.get("bad_signature", 0) > 0
        assert vehicle.verdicts.get("bad_signature") >= 10

    def test_ids_attributes_forgery(self, scenario):
        assert scenario.ids_manager.alerts_of_type("command_forgery")

    def test_rejections_are_audited(self, scenario):
        verdicts = scenario.groundstation.station.verdicts
        assert verdicts.get("bad_signature", 0) > 0

    def test_audit_chain_survives_the_attack(self, scenario):
        report = verify_chain(scenario.groundstation.audit.entries, SEED)
        assert report["ok"] and report["complete"]


class TestCommandReplay:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_plane(gs_attacks="command_replay")

    def test_replays_bounce_off_the_window(self, scenario):
        vehicle = scenario.groundstation.vehicle("forwarder")
        assert vehicle.verdicts.get("executed") == 4  # originals only
        assert vehicle.verdicts.get("replay", 0) > 0

    def test_ids_attributes_replay(self, scenario):
        assert scenario.ids_manager.alerts_of_type("command_replay")

    def test_audit_chain_survives_the_attack(self, scenario):
        report = verify_chain(scenario.groundstation.audit.entries, SEED)
        assert report["ok"] and report["complete"]


class TestAlertSuppression:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_plane(gs_attacks="alert_suppression")

    def test_broker_drops_alert_topics(self, scenario):
        assert scenario.groundstation.bus.suppressed > 0

    def test_watchdog_flags_the_silence(self, scenario):
        assert scenario.log.count("gs_alert_gap") >= 1

    def test_ids_attributes_suppression(self, scenario):
        assert scenario.ids_manager.alerts_of_type("alert_suppression")

    def test_gap_timeout_exceeds_beacon_period(self):
        # sanity on the constants the detection-by-absence logic rests on
        from repro.groundstation.station import STATUS_INTERVAL_S

        assert GAP_TIMEOUT_S > 2 * STATUS_INTERVAL_S


class TestAuditDeterminism:
    SPEC = dict(
        seed=SEED, horizon_s=60.0,
        overrides={
            "groundstation_enabled": True,
            "gs_attacks": "command_forgery+command_replay+alert_suppression",
        },
    )

    def _spec(self):
        return RunSpec.single("baseline", **self.SPEC)

    def test_same_seed_audit_chain_byte_identical(self):
        a = run_plane(gs_attacks="command_replay")
        b = run_plane(gs_attacks="command_replay")
        assert json.dumps(a.groundstation.audit.entries, sort_keys=True) == \
            json.dumps(b.groundstation.audit.entries, sort_keys=True)

    def test_serial_matches_pool(self):
        # the acceptance criterion: the audit chain a pool worker builds in
        # a fresh interpreter is byte-identical to the in-process one
        serial = execute_run(self._spec())
        assert serial["status"] == "ok", serial["error"]
        (pooled,) = run_sweep([self._spec()], jobs=2).records
        assert json.dumps(serial["result"], sort_keys=True) == \
            json.dumps(pooled["result"], sort_keys=True)
        audit = serial["result"]["summary"]["groundstation"]["audit"]
        assert audit["closed"] and audit["entries"] > 0
