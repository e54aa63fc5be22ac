"""``compose_spec`` and ``PreparedRun.run``: the one path from a RunSpec
to an executed, optionally traced run."""

import pytest

from repro.inputs import InputError
from repro.runner.spec import RunSpec
from repro.scenarios.factory import compose_run, compose_spec
from repro.telemetry import tracer as trace

#: a small worksite with the ground-station plane on, quick to simulate
TINY_GS = {
    "width": 160.0, "height": 160.0, "tree_density": 0.01,
    "n_workers": 1, "drone_enabled": False, "groundstation_enabled": True,
}


def tiny_spec(horizon_s=30.0):
    return RunSpec.single(
        "baseline", seed=3, horizon_s=horizon_s, overrides=TINY_GS,
    )


class TestComposeSpec:
    def test_forwards_the_spec_and_the_output_settings(self, tmp_path):
        audit = str(tmp_path / "audit.jsonl")
        prepared = compose_spec(
            tiny_spec(), audit_path=audit, metrics_interval_s=5.0,
        )
        config = prepared.scenario.config
        assert prepared.horizon_s == 30.0
        assert config.seed == 3 and config.groundstation_enabled
        assert config.gs_audit_path == audit
        assert config.metrics_interval_s == 5.0

    def test_output_settings_default_off(self):
        config = compose_spec(tiny_spec()).scenario.config
        assert config.gs_audit_path is None
        assert config.metrics_interval_s is None


class TestComposeRun:
    @pytest.mark.parametrize("campaign", [
        "wifi_deauth", "message_injection", "message_tampering", "rf_jamming",
    ])
    def test_a_plan_that_repeats_a_campaign_is_refused(self, campaign):
        # a second instance would collide with the first: a duplicate
        # radio endpoint, or (rf_jamming) two attackers of one name
        plan = ((campaign, 5.0, None), (campaign, 15.0, None))
        with pytest.raises(InputError,
                           match=f"campaign '{campaign}' appears twice"):
            compose_run(seed=3, horizon_s=25.0, plan=plan)


class TestPreparedRun:
    def test_closes_the_audit_chain_inside_the_traced_window(self):
        prepared = compose_spec(tiny_spec())
        tracer = trace.Tracer(prepared.scenario.sim, keep_records=True)
        prepared.run(tracer)
        assert prepared.scenario.sim.now == 30.0
        audits = [r for r in tracer.records if r["type"] == "gs.audit"]
        assert audits[-1]["verdict"] == "close"
        assert trace.ACTIVE is False and trace.TRACER is None

    def test_uninstalls_the_tracer_when_the_run_raises(self, monkeypatch):
        prepared = compose_spec(tiny_spec())
        tracer = trace.Tracer(prepared.scenario.sim)

        def explode(horizon_s):
            assert trace.ACTIVE and trace.TRACER is tracer
            raise RuntimeError("boom")

        monkeypatch.setattr(prepared.scenario, "run", explode)
        with pytest.raises(RuntimeError):
            prepared.run(tracer)
        assert trace.ACTIVE is False and trace.TRACER is None
