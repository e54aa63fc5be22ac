"""The causal span layer: emitter discipline, deterministic ids, tree
reconstruction, critical path and flamegraph export."""

from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.sim.engine import Simulator
from repro.telemetry.tracer import Tracer, installed
from repro.telemetry.spans import (
    build_span_tree,
    critical_path,
    flamegraph_folded,
    has_spans,
    parse_spans,
    run_prefix,
    span_id,
    span_kind_durations,
    span_report,
)


def _spanned_tracer():
    """A hand-driven tracer with spans armed and records kept."""
    tracer = Tracer(Simulator(), keep_records=True, spans=True)
    tracer.meta(seed=11, scenario="unit")
    return tracer


def _worksite_records(seed=11, horizon_s=60.0):
    scenario = build_worksite(ScenarioConfig(seed=seed))
    tracer = Tracer(scenario.sim, keep_records=True, spans=True)
    tracer.meta(seed=seed, horizon_s=horizon_s)
    with installed(tracer):
        scenario.run(horizon_s)
    tracer.close()
    return tracer.records


class TestSpanIds:
    def test_run_prefix_is_deterministic(self):
        assert run_prefix(11) == run_prefix(11)
        assert run_prefix(11) != run_prefix(12)
        assert len(run_prefix(11)) == 8

    def test_span_id_embeds_the_si(self):
        prefix = run_prefix(11)
        assert span_id(prefix, 0) == f"{prefix}-000000"
        assert span_id(prefix, 0x2a) == f"{prefix}-00002a"


class TestEmitter:
    def test_run_span_opens_on_meta_and_closes_on_close(self):
        tracer = _spanned_tracer()
        starts = [r for r in tracer.records if r["type"] == "span.start"]
        assert [s["kind"] for s in starts] == ["run"]
        tracer.close()
        ends = [r for r in tracer.records if r["type"] == "span.end"]
        assert [e["kind"] for e in ends] == ["run"]
        assert ends[0]["span"] == starts[0]["span"]

    def test_close_is_idempotent(self):
        tracer = _spanned_tracer()
        tracer.close()
        n = len(tracer.records)
        tracer.close()
        assert len(tracer.records) == n

    def test_fault_window_opens_and_closes_a_span(self):
        tracer = _spanned_tracer()
        tracer.fault_inject("power", "harvester")
        tracer.fault_clear("power", "harvester")
        tracer.close()
        spans = parse_spans(tracer.records)
        fault = [s for s in spans.values() if s.kind == "fault"]
        assert len(fault) == 1
        assert fault[0].name == "power@harvester"
        assert fault[0].end_t is not None
        assert fault[0].end_cause is None  # natural close, not eot

    def test_phase_change_supersedes_the_previous_phase_span(self):
        tracer = _spanned_tracer()
        tracer.mission_phase("harvester", "fell", "idle")
        tracer.mission_phase("harvester", "stack", "fell")
        tracer.close()
        phases = sorted(
            (s for s in parse_spans(tracer.records).values()
             if s.kind == "mission.phase"),
            key=lambda s: s.si,
        )
        assert [p.name for p in phases] == [
            "harvester:fell", "harvester:stack",
        ]
        assert phases[0].end_t is not None

    def test_unclosed_spans_end_with_eot_cause(self):
        tracer = _spanned_tracer()
        tracer.attack_started("jammer-1", "rf_jamming")
        tracer.close()
        spans = parse_spans(tracer.records)
        attack = [s for s in spans.values() if s.kind == "attack"][0]
        assert attack.end_cause == "eot"
        # the run span itself closes last, without a cause
        run = [s for s in spans.values() if s.kind == "run"][0]
        assert run.end_cause is None

    def test_si_counter_is_contiguous(self):
        records = _worksite_records()
        sis = [
            r["si"] for r in records
            if r["type"] in ("span.start", "span.end")
        ]
        assert sis == list(range(len(sis)))

    def test_same_seed_spans_identical(self):
        assert _worksite_records() == _worksite_records()


class TestAnalysis:
    def test_has_spans(self):
        records = _worksite_records()
        assert has_spans(records)
        assert not has_spans(
            [r for r in records if not r["type"].startswith("span.")]
        )

    def test_tree_has_single_run_root(self):
        roots = build_span_tree(_worksite_records())
        assert len(roots) == 1
        root = roots[0]
        assert root.kind == "run"
        assert root.children
        # children come back in si (stream) order
        sis = [c.si for c in root.children]
        assert sis == sorted(sis)

    def test_durations_are_non_negative(self):
        durations = span_kind_durations(_worksite_records())
        assert "run" in durations
        for kind, values in durations.items():
            assert all(v >= 0.0 for v in values), kind

    def test_critical_path_starts_at_the_run_span(self):
        path = critical_path(_worksite_records())
        assert path
        assert path[0].kind == "run"
        # each hop is a child of the previous one
        for parent, child in zip(path, path[1:]):
            assert child in parent.children

    def test_flamegraph_folded_format(self):
        folded = flamegraph_folded(_worksite_records())
        assert folded
        lines = folded.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert stack.split(";")[0].startswith("run:")

    def test_flamegraph_weights_do_not_exceed_the_run_span(self):
        records = _worksite_records()
        run = build_span_tree(records)[0]
        total_us = sum(
            int(line.rsplit(" ", 1)[1])
            for line in flamegraph_folded(records).splitlines()
        )
        assert total_us <= round(run.dur_s * 1e6) + 1

    def test_span_report_renders(self):
        report = span_report(_worksite_records())
        assert "span durations by kind" in report
        assert "critical path:" in report
        assert "run" in report

    def test_empty_report_on_spanless_trace(self):
        report = span_report([{"type": "trace.meta", "seed": 1}])
        assert "no span records" in report
