"""Worker-side observers: invariant folding into sweep records."""

from repro.runner import RunSpec
from repro.runner.aggregate import summarize_group
from repro.runner.worker import execute_run
from repro.telemetry import tracer as trace

TINY = {
    "width": 160.0, "height": 160.0, "tree_density": 0.01,
    "n_workers": 1, "drone_enabled": False,
}


def tiny_spec(campaign="rf_jamming", seed=1):
    return RunSpec.single(
        campaign, seed=seed, horizon_s=90.0,
        start=20.0, duration=40.0, overrides=TINY,
    )


class TestObserverSwitches:
    def test_trace_and_span_variables_leave_the_record_unchanged(
        self, monkeypatch
    ):
        # online checking (REPRO_CHECK) is the one observer a sweep cell
        # runs; the retired tracing and span variables are inert
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        plain = execute_run(tiny_spec())
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_SPANS", "1")
        flagged = execute_run(tiny_spec())
        assert flagged["status"] == "ok"
        for record in (plain, flagged):
            del record["wall_s"]
        assert flagged == plain
        assert trace.ACTIVE is False and trace.TRACER is None


class TestPerfFolding:
    def test_no_perf_section_when_disabled(self):
        record = execute_run(tiny_spec())
        assert "perf" not in record


class TestAggregateDigest:
    def test_summarize_group_without_extras(self, monkeypatch):
        # the aggregate table prints the headline numbers only, so the
        # per-cell summary folds nothing else, whatever the record carries
        monkeypatch.setenv("REPRO_CHECK", "1")
        records = [execute_run(tiny_spec())]
        assert "invariants" in records[0]["result"]
        summary = summarize_group(records)
        assert summary["runs"] == 1
        assert not {"telemetry", "invariants", "resilience", "perf"} & \
            set(summary)


class TestInvariantFolding:
    def test_no_invariants_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        record = execute_run(tiny_spec())
        assert record["status"] == "ok"
        assert "invariants" not in record["result"]

    def test_env_enabled_folds_summary_into_result(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        record = execute_run(tiny_spec())
        assert record["status"] == "ok"
        invariants = record["result"]["invariants"]
        assert invariants["violations"] == 0
        assert invariants["records"] > 0
        assert invariants["checked"] >= 9
        # the worker uninstalled its tracer on the way out
        assert trace.ACTIVE is False and trace.TRACER is None

    def test_checking_does_not_change_the_result(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        baseline = execute_run(tiny_spec())["result"]
        monkeypatch.setenv("REPRO_CHECK", "1")
        checked = dict(execute_run(tiny_spec())["result"])
        checked.pop("invariants")
        assert checked == baseline

    def test_checker_uninstalled_after_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        bad = RunSpec.single(
            "rf_jamming", seed=1, horizon_s=90.0,
            overrides={"no_such_knob": 1.0},
        )
        assert execute_run(bad)["status"] == "failed"
        assert trace.ACTIVE is False
