"""Engine behaviour: registry, the REPRO_CHECK switch, summaries and the
zero-perturbation contract on a real traced run."""

from repro.invariants import engine as checks
from repro.invariants.base import Invariant, Violation
from repro.invariants.engine import InvariantEngine, default_invariants
from repro.scenarios.campaigns import build_campaign
from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.telemetry.tracer import Tracer, installed as trace_installed

EXPECTED_REGISTRY = {
    "clock.monotonic",
    "clock.record_index",
    "crypto.nonce_sequence",
    "crypto.replay_window",
    "frames.causality",
    "frames.drop_taxonomy",
    "gs.audit_chain",
    "gs.command_causality",
    "modes.transition_legality",
    "modes.rto_ordering",
    "ids.alert_attribution",
    "telemetry.spans",
}


class TestRegistry:
    def test_default_registry_is_complete(self):
        names = {inv.name for inv in default_invariants()}
        assert names == EXPECTED_REGISTRY

    def test_instances_are_fresh_per_call(self):
        first, second = default_invariants(), default_invariants()
        assert all(a is not b for a, b in zip(first, second))

    def test_every_invariant_names_a_subsystem(self):
        for inv in default_invariants():
            assert inv.subsystem != Invariant.subsystem or inv.name.startswith(
                "clock."
            ), f"{inv.name} kept the base-class subsystem"


class TestGuard:
    def test_env_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert checks.env_enabled() is False
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert checks.env_enabled() is False
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert checks.env_enabled() is True


class _AlwaysFires(Invariant):
    name = "test.always"
    subsystem = "test"

    def observe(self, record):
        yield self.violation(record, "fired", marker=record.get("i"))


class TestEngineReporting:
    def test_clean_stream_summary(self):
        engine = InvariantEngine()
        engine.check([{"type": "mission.phase", "t": 1.0, "i": 0}])
        assert engine.ok
        assert engine.record_count == 1
        summary = engine.summary()
        assert summary["violations"] == 0
        assert summary["checked"] == len(EXPECTED_REGISTRY)
        assert "details" not in summary

    def test_violations_grouped_by_invariant(self):
        engine = InvariantEngine()
        engine.check([
            {"type": "mission.phase", "t": 5.0, "i": 0},
            {"type": "mission.phase", "t": 4.0, "i": 7},  # clock + index
        ])
        assert not engine.ok
        assert engine.by_invariant() == {
            "clock.monotonic": 1, "clock.record_index": 1,
        }

    def test_summary_details_are_capped(self):
        engine = InvariantEngine(invariants=[_AlwaysFires()])
        engine.check([
            {"type": "mission.phase", "t": float(i), "i": i}
            for i in range(checks.SUMMARY_DETAIL_CAP + 5)
        ])
        summary = engine.summary()
        assert len(summary["details"]) == checks.SUMMARY_DETAIL_CAP
        assert summary["truncated"] == 5
        assert summary["violations"] == checks.SUMMARY_DETAIL_CAP + 5

    def test_finish_is_idempotent(self):
        engine = InvariantEngine()
        engine.observe({"type": "service.down", "t": 1.0, "i": 0,
                        "machine": "m", "service": "s"})
        assert engine.finish() == engine.finish()

    def test_violation_to_dict_is_json_shaped(self):
        violation = Violation(
            invariant="crypto.nonce_sequence", subsystem="comms.crypto",
            message="skipped", t=1.5, index=9, context={"seq": 3},
        )
        assert violation.to_dict() == {
            "invariant": "crypto.nonce_sequence",
            "subsystem": "comms.crypto",
            "message": "skipped",
            "t": 1.5,
            "i": 9,
            "context": {"seq": 3},
        }


def _attacked_records(seed=11, *, checker=None):
    scenario = build_worksite(ScenarioConfig(seed=seed))
    tracer = Tracer(scenario.sim, keep_records=True, checker=checker)
    build_campaign("rf_jamming", scenario, start=15.0, duration=30.0).arm()
    tracer.meta(seed=seed, horizon_s=60.0, campaign="rf_jamming")
    with trace_installed(tracer):
        scenario.run(60.0)
    return tracer.records


class TestOnRealRun:
    def test_attacked_run_is_violation_free(self):
        engine = InvariantEngine()
        records = _attacked_records(checker=engine)
        engine.finish()
        assert engine.ok, engine.summary()
        assert engine.record_count == len(records) > 0

    def test_checking_does_not_perturb_the_stream(self):
        baseline = _attacked_records()
        checked = _attacked_records(checker=InvariantEngine())
        assert checked == baseline
