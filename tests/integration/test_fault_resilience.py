"""End-to-end fault campaigns: acceptance scenarios from the resilience PR.

* a drone crash mid-mission drives the forwarder to SAFE_STOP within its
  RecoveryPlan objective, and the outage is attributed in the analysis
  report;
* the crash_brownout campaign run twice — and once more through the
  parallel sweep runner — yields identical aggregated resilience metrics;
* faulted traces validate against the schema and feed the resilience
  analysis report;
* the trace report and ``run`` read the same availability, MTTR and
  safe-stop latency off the same run.
"""

import pytest

from repro.defense.recovery import RecoveryPlan
from repro.faults.campaigns import build_fault_campaign
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec, FaultSchedule, load_fault_schedule
from repro.runner.engine import SweepRunner
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_run
from repro.scenarios.factory import compose_spec
from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.sim.rng import RngStreams
from repro.telemetry.analysis import resilience_metrics
from repro.telemetry.schema import validate_trace
from repro.telemetry.tracer import Tracer, installed
from repro.telemetry.writer import TraceWriter, read_trace


def run_campaign(name, *, seed=11, start=20.0, duration=30.0, horizon=90.0,
                 trace_path=None):
    scenario = build_worksite(ScenarioConfig(seed=seed))
    schedule = build_fault_campaign(name, start=start, duration=duration)
    injector = FaultInjector(scenario, schedule).arm()
    if trace_path is not None:
        writer = TraceWriter(trace_path)
        tracer = Tracer(scenario.sim, writer)
        tracer.meta(seed=seed, horizon_s=horizon, campaign=name)
        with installed(tracer):
            scenario.run(horizon)
        writer.close()
    else:
        scenario.run(horizon)
    return scenario, injector


class TestDroneCrashAcceptance:
    def test_forwarder_safe_stops_within_objective(self):
        crash_at = 20.0
        scenario = build_worksite(ScenarioConfig(seed=11))
        schedule = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", crash_at, 40.0),
        ))
        injector = FaultInjector(scenario, schedule).arm()
        scenario.run(90.0)

        machine = injector.machines["forwarder"]
        stops = [t for t in machine.transitions if t[2] == "safe_stop"]
        assert stops, "forwarder never reached SAFE_STOP"
        objective = RecoveryPlan.worksite_default().objective("detection_relay")
        # detection margin: heartbeat interval 1 s + timeout 5 s + jitter
        detection_margin = 6.5
        assert stops[0][0] <= crash_at + detection_margin + objective.rto_s
        assert scenario.forwarder.safe_stops >= 1

    def test_outage_attributed_in_summary_and_compliance(self):
        scenario, injector = run_campaign("crash_brownout")
        summary = injector.resilience_summary(90.0)
        assert "forwarder.detection_relay" in summary["availability"]
        relay = summary["compliance"]["forwarder"]["detection_relay"]
        assert relay["outages"] == 1
        assert relay["rto_violations"] == 1
        assert relay["worst_outage_s"] > relay["rto_s"]


class TestCampaignDeterminism:
    def test_crash_brownout_twice_identical_metrics(self):
        _, first = run_campaign("crash_brownout")
        _, second = run_campaign("crash_brownout")
        assert first.resilience_summary(90.0) == second.resilience_summary(90.0)

    def test_direct_run_matches_sweep_runner(self, tmp_path):
        _, direct = run_campaign("crash_brownout", horizon=90.0)
        schedule = build_fault_campaign(
            "crash_brownout", start=20.0, duration=30.0
        )
        spec = RunSpec.single(
            "baseline", seed=11, horizon_s=90.0,
            faults=[f.to_primitives() for f in schedule.faults],
        )
        # once through the worker entry point directly...
        record = execute_run(spec)
        assert record["status"] == "ok", record["error"]
        # ...and once through the (in-process) sweep runner
        report = SweepRunner(jobs=1).run([spec])
        assert report.failed == 0
        swept = report.records[0]["result"]["resilience"]
        assert record["result"]["resilience"] == swept
        assert swept == direct.resilience_summary(90.0)

    def test_faults_change_the_spec_key(self):
        plain = RunSpec.single("baseline", seed=11, horizon_s=90.0)
        faulted = RunSpec.single(
            "baseline", seed=11, horizon_s=90.0,
            faults=[("node_crash", "drone", 20.0, 30.0, ())],
        )
        assert plain.key != faulted.key
        assert RunSpec.from_dict(faulted.to_dict()) == faulted


class TestFaultedTraceAnalysis:
    def test_trace_validates_and_reports_resilience(self, tmp_path):
        path = tmp_path / "faulted.jsonl"
        run_campaign("crash_brownout", trace_path=path)
        records = read_trace(path)
        assert validate_trace(records) == []

        metrics = resilience_metrics(records, horizon_s=90.0)
        assert metrics["faults_injected"] == 2
        assert metrics["faults_cleared"] == 2
        assert metrics["safe_stop"]["count"] >= 1
        assert metrics["outages"]["closed"] >= 2
        availability = metrics["availability"]
        assert "forwarder.detection_relay" in availability
        assert all(0.0 < v <= 1.0 for v in availability.values())

    def test_faulted_trace_is_reproducible(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_campaign("crash_brownout", trace_path=a)
        run_campaign("crash_brownout", trace_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_trace_summary_carries_resilience_block(self, tmp_path):
        scenario = build_worksite(ScenarioConfig(seed=11))
        schedule = build_fault_campaign("crash_brownout", start=20.0,
                                        duration=30.0)
        FaultInjector(scenario, schedule).arm()
        path = tmp_path / "t.jsonl"
        tracer = Tracer(scenario.sim, TraceWriter(path))
        with installed(tracer):
            scenario.run(90.0)
        tracer.close()
        metrics = resilience_metrics(read_trace(path))
        assert metrics["faults_injected"] == 2
        assert metrics["mode_transitions"] >= 4


def _rounded(metrics: dict) -> dict:
    """The resilience figures both reports print, at 3 decimals."""
    return {
        key: round(value, 3) if isinstance(value, float) else value
        for key, value in metrics.items()
    }


class TestOneSafeStopLatency:
    """The trace report and ``run`` share one safe-stop latency: from the
    mode machine's earliest open outage, not from the last fault onset."""

    @pytest.mark.parametrize("campaign,horizon", [
        ("crash_brownout", 120.0), ("storm", 180.0),
    ])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_trace_metrics_equal_run_summary(self, campaign, horizon, seed):
        if campaign == "storm":
            schedule = load_fault_schedule("examples/faults_storm.toml")
        else:
            schedule = build_fault_campaign(campaign, start=20.0,
                                            duration=30.0)
        faults = schedule.resolve(RngStreams(seed))
        prepared = compose_spec(RunSpec.single(
            "baseline", seed=seed, horizon_s=horizon,
            faults=tuple(fault.to_primitives() for fault in faults),
        ))
        tracer = Tracer(prepared.scenario.sim, keep_records=True)
        prepared.run(tracer)

        traced = resilience_metrics(tracer.records, horizon_s=horizon)
        summary = prepared.fault_injector.resilience_summary(horizon)
        stops = summary["safe_stop_latency"]
        assert stops["count"] > 0
        assert _rounded(traced["availability"]) == \
            _rounded(summary["availability"])
        assert traced["outages"]["mttr_s"] == round(summary["mttr_s"], 3)
        assert _rounded({
            "count": traced["safe_stop"]["count"],
            "p50": traced["safe_stop"]["latency_p50_s"],
            "p95": traced["safe_stop"]["latency_p95_s"],
        }) == _rounded({
            "count": stops["count"], "p50": stops["p50_s"],
            "p95": stops["p95_s"],
        })

    def test_outage_open_at_horizon(self):
        """An outage still open at the horizon is charged to the horizon in
        availability and left out of MTTR, and reading the summary writes
        no repair into the run's log."""
        horizon = 60.0
        faults = build_fault_campaign(
            "crash_brownout", start=30.0, duration=60.0,
        ).resolve(RngStreams(3))
        prepared = compose_spec(RunSpec.single(
            "baseline", seed=3, horizon_s=horizon,
            faults=tuple(fault.to_primitives() for fault in faults),
        ))
        tracer = Tracer(prepared.scenario.sim, keep_records=True)
        prepared.run(tracer)

        traced = resilience_metrics(tracer.records, horizon_s=horizon)
        summary = prepared.fault_injector.resilience_summary(horizon)
        assert traced["outages"]["closed"] == 0
        assert traced["outages"]["open_at_end"] == 3
        assert traced["outages"]["mttr_s"] is None
        assert summary["mttr_s"] is None
        assert _rounded(traced["availability"]) == \
            _rounded(summary["availability"])
        assert prepared.scenario.log.count("service_up") == 0
        relay = summary["compliance"]["forwarder"]["detection_relay"]
        assert relay["outages"] == 1
        assert summary["availability"]["forwarder.detection_relay"] == \
            round(1.0 - relay["worst_outage_s"] / horizon, 6)
