"""Tracing determinism and non-interference.

The telemetry contract: records are stamped with simulated time only and
the tracer never feeds back into the simulation, so (a) two runs of the
same scenario and seed write byte-identical trace files, and (b) a traced
run ends in exactly the same state as an untraced one.
"""

import pytest

from repro.faults.campaigns import build_fault_campaign
from repro.runner import RunSpec, run_sweep
from repro.scenarios.campaigns import build_campaign
from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.telemetry.schema import validate_trace
from repro.telemetry.tracer import Tracer, installed
from repro.telemetry.writer import TraceWriter, read_trace

HORIZON_S = 90.0


def _traced_run(path, seed=11, spans=False):
    scenario = build_worksite(ScenarioConfig(seed=seed))
    tracer = Tracer(scenario.sim, TraceWriter(path), spans=spans)
    tracer.meta(seed=seed, horizon_s=HORIZON_S, campaign="rf_jamming")
    campaign = build_campaign(
        "rf_jamming", scenario, start=20.0, duration=40.0
    )
    campaign.arm()
    with installed(tracer):
        scenario.run(HORIZON_S)
    tracer.close()
    return scenario


class TestTraceDeterminism:
    def test_same_seed_byte_identical_trace(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        _traced_run(first)
        _traced_run(second)
        a, b = first.read_bytes(), second.read_bytes()
        assert len(a) > 0
        assert a == b

    def test_different_seed_different_trace(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        _traced_run(first, seed=11)
        _traced_run(second, seed=12)
        assert first.read_bytes() != second.read_bytes()

    def test_real_trace_is_schema_valid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _traced_run(path)
        records = read_trace(path)
        assert validate_trace(records) == []
        assert records[0]["type"] == "trace.meta"
        # the attack window and its frame traffic made it into the trace
        types = {r["type"] for r in records}
        assert "attack.start" in types
        assert "frame.tx" in types

    def test_tracing_does_not_perturb_the_run(self, tmp_path):
        untraced = build_worksite(ScenarioConfig(seed=11))
        campaign = build_campaign(
            "rf_jamming", untraced, start=20.0, duration=40.0
        )
        campaign.arm()
        untraced.run(HORIZON_S)

        traced = _traced_run(tmp_path / "trace.jsonl")
        assert traced.summary() == untraced.summary()

    def test_sim_time_is_monotonic_in_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _traced_run(path)
        records = read_trace(path)
        times = [r["t"] for r in records]
        assert times == sorted(times)


class TestSpanLayerDeterminism:
    """The span layer's zero-perturbation contract: enabling spans adds
    span records but leaves every event record byte-identical, and
    span-augmented traces are themselves same-seed reproducible."""

    SPAN_TYPES = ("span.start", "span.end")

    def _lines(self, path):
        return path.read_text(encoding="utf-8").splitlines()

    def test_spans_on_same_seed_byte_identical(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        _traced_run(first, spans=True)
        _traced_run(second, spans=True)
        a, b = first.read_bytes(), second.read_bytes()
        assert len(a) > 0
        assert a == b

    def test_spans_do_not_perturb_event_records(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        spanned = tmp_path / "spanned.jsonl"
        _traced_run(plain, spans=False)
        _traced_run(spanned, spans=True)
        span_lines = [
            line for line in self._lines(spanned)
            if '"type":"span.' in line
        ]
        event_lines = [
            line for line in self._lines(spanned)
            if '"type":"span.' not in line
        ]
        assert span_lines, "spans=True recorded no span records"
        # the spans-off trace is exactly the spans-on trace minus spans
        assert event_lines == self._lines(plain)

    def test_spans_do_not_perturb_the_run(self, tmp_path):
        plain = _traced_run(tmp_path / "plain.jsonl", spans=False)
        spanned = _traced_run(tmp_path / "spanned.jsonl", spans=True)
        assert spanned.summary() == plain.summary()

    def test_span_trace_is_schema_valid_and_balanced(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _traced_run(path, spans=True)
        records = read_trace(path)
        assert validate_trace(records) == []
        starts = [r for r in records if r["type"] == "span.start"]
        ends = [r for r in records if r["type"] == "span.end"]
        assert len(starts) == len(ends)
        assert {r["span"] for r in starts} == {r["span"] for r in ends}


# -- cross-campaign determinism matrix --------------------------------------

#: the three fault campaigns with qualitatively different disturbance
#: shapes: node loss + power sag, sensor value corruption, link chaos
MATRIX_CAMPAIGNS = ("crash_brownout", "sensor_storm", "comms_chaos")
MATRIX_SEEDS = (7, 11, 23)
MATRIX_HORIZON_S = 60.0

#: tiny worksite so the 9-cell matrix simulates in seconds, not minutes
TINY = {
    "width": 160.0, "height": 160.0, "tree_density": 0.01,
    "n_workers": 1, "drone_enabled": False,
}


def _matrix_specs():
    specs = []
    for name in MATRIX_CAMPAIGNS:
        schedule = build_fault_campaign(name, start=15.0, duration=30.0)
        faults = tuple(f.to_primitives() for f in schedule.faults)
        for seed in MATRIX_SEEDS:
            specs.append(RunSpec.single(
                "baseline", seed=seed, horizon_s=MATRIX_HORIZON_S,
                overrides=TINY, faults=faults,
            ))
    return specs


def _matrix_results(jobs):
    report = run_sweep(_matrix_specs(), jobs=jobs)
    assert report.succeeded == len(MATRIX_CAMPAIGNS) * len(MATRIX_SEEDS)
    # wall_s is the only intentionally non-deterministic record field
    return [r["result"] for r in report.records]


class TestCrossCampaignDeterminismMatrix:
    """Every (fault campaign x seed) cell replays identically, and the
    process-pool path agrees with the serial one cell for cell."""

    @pytest.fixture(scope="class")
    def serial_results(self):
        return _matrix_results(jobs=1)

    def test_serial_rerun_is_identical(self, serial_results):
        assert _matrix_results(jobs=1) == serial_results

    def test_process_pool_matches_serial(self, serial_results):
        assert _matrix_results(jobs=3) == serial_results

    def test_cells_actually_inject_their_faults(self, serial_results):
        # a matrix of fault-free runs would pass the equality tests
        # vacuously; every cell must have armed and fired its campaign
        assert len(serial_results) == 9
        for result in serial_results:
            assert result["resilience"]["faults"]["injected"] > 0

    def test_seeds_steer_the_matrix(self, serial_results):
        # coarse summaries may occasionally collide across campaigns at
        # this tiny scale, but the seed must always leave a fingerprint
        fingerprints = {repr(sorted(r.items())) for r in serial_results}
        assert len(fingerprints) >= len(MATRIX_SEEDS)
