"""Differential replay oracle tests: spec extraction, replay fidelity,
record-level diffing, and the full ``check_trace`` report."""

import json

import pytest

from repro.invariants import selftest
from repro.invariants.oracle import (
    DIVERGENCE_CAP,
    REPORT_SCHEMA,
    check_trace,
    diff_records,
    replay_records,
    spec_from_meta,
    write_report,
)
from repro.telemetry.writer import TraceWriter


@pytest.fixture(scope="module")
def base_records():
    """One clean self-describing trace (attack + fault campaign)."""
    return selftest.build_base_records()


def _write(records, path):
    writer = TraceWriter(path)
    for record in records:
        writer.write(record)
    writer.close()
    return path


class TestSpecFromMeta:
    def test_extracts_the_embedded_spec(self, base_records):
        spec = spec_from_meta(base_records)
        assert spec is not None
        assert spec["seed"] == selftest.BASE_SEED
        assert spec["campaign"] == "rf_jamming"

    def test_none_without_meta_or_spec(self, base_records):
        assert spec_from_meta([]) is None
        assert spec_from_meta(base_records[1:]) is None  # header gone
        bare_meta = {k: v for k, v in base_records[0].items() if k != "spec"}
        assert spec_from_meta([bare_meta]) is None


class TestReplay:
    def test_replay_reproduces_the_stream_exactly(self, base_records):
        fresh = replay_records(base_records)
        diff = diff_records(base_records, fresh)
        assert diff["ok"], diff["first_divergences"]
        assert diff["recorded"] == diff["replayed"] == len(base_records)

    def test_replay_requires_a_self_describing_trace(self, base_records):
        headerless = base_records[1:]
        with pytest.raises(ValueError, match="not self-describing"):
            replay_records(headerless)


class TestDiff:
    def test_identical_streams_diff_clean(self, base_records):
        diff = diff_records(base_records, list(base_records))
        assert diff == {
            "recorded": len(base_records),
            "replayed": len(base_records),
            "divergences": 0,
            "first_divergences": [],
            "ok": True,
        }

    def test_field_change_localises_the_divergence(self, base_records):
        tampered = [dict(r) for r in base_records]
        tampered[5]["t"] = tampered[5]["t"] + 1e-6
        diff = diff_records(base_records, tampered)
        assert diff["divergences"] == 1
        assert diff["first_divergences"][0]["i"] == 5
        assert not diff["ok"]

    def test_truncated_stream_counts_every_missing_record(self, base_records):
        diff = diff_records(base_records, base_records[:-3])
        assert diff["divergences"] == 3
        # missing records diff against None
        assert diff["first_divergences"][0]["replayed"] is None

    def test_divergence_detail_is_capped(self, base_records):
        tampered = [dict(r) for r in base_records]
        for record in tampered:
            record["t"] = record["t"] + 1.0
        diff = diff_records(base_records, tampered)
        assert diff["divergences"] == len(base_records)
        assert len(diff["first_divergences"]) == DIVERGENCE_CAP


class TestCheckTrace:
    def test_clean_trace_full_report(self, base_records, tmp_path):
        path = _write(base_records, tmp_path / "clean.jsonl")
        report = check_trace(path)
        assert report["ok"], report
        assert report["schema"] == REPORT_SCHEMA
        assert report["records"] == len(base_records)
        assert report["invariants"]["violations"] == 0
        assert report["replay"]["performed"] is True
        assert report["replay"]["divergences"] == 0

    def test_tampered_trace_fails_both_oracles(self, base_records, tmp_path):
        tampered = [dict(r) for r in base_records]
        tampered[10]["t"] = tampered[10]["t"] - 50.0
        path = _write(tampered, tmp_path / "tampered.jsonl")
        report = check_trace(path)
        assert not report["ok"]
        assert report["invariants"]["by_invariant"].get("clock.monotonic")
        assert report["replay"]["divergences"] >= 1

    def test_replay_can_be_disabled(self, base_records, tmp_path):
        path = _write(base_records, tmp_path / "clean.jsonl")
        report = check_trace(path, replay=False)
        assert report["ok"]
        assert report["replay"] == {
            "performed": False, "reason": "disabled", "ok": True,
        }

    def test_non_self_describing_trace_skips_replay(
        self, base_records, tmp_path
    ):
        path = _write(base_records[1:], tmp_path / "headerless.jsonl")
        report = check_trace(path)
        # invariants still run; replay is skipped, not failed
        assert report["replay"]["performed"] is False
        assert "no RunSpec" in report["replay"]["reason"]

    def test_report_consumable_by_analysis_renderer(
        self, base_records, tmp_path
    ):
        from repro.telemetry.analysis import check_report

        path = _write(base_records, tmp_path / "clean.jsonl")
        rendered = check_report(check_trace(path))
        assert "verdict" in rendered.lower() or "OK" in rendered


class TestWriteReport:
    def test_written_report_is_stable_json(self, base_records, tmp_path):
        path = _write(base_records, tmp_path / "clean.jsonl")
        report = check_trace(path, replay=False)
        out = tmp_path / "nested" / "report.json"
        written = write_report(report, out)
        assert written == str(out)
        parsed = json.loads(out.read_text())
        assert parsed == report
        # stable: same report serialises to the same bytes
        first = out.read_bytes()
        write_report(report, out)
        assert out.read_bytes() == first
