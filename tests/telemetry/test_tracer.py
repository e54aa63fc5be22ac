"""Tracer behaviour: emission, install lifecycle, windows, analysis."""

import pytest

from repro.comms.link import Frame, FrameType
from repro.sim.engine import Simulator
from repro.telemetry import tracer as trace
from repro.telemetry.analysis import (
    detection_latencies,
    latency_report,
    link_breakdown,
)
from repro.telemetry.schema import (
    DETECTION_GRACE_S,
    SCHEMA_VERSION,
    validate_trace,
)
from repro.telemetry.tracer import Tracer
from repro.telemetry.writer import TraceWriter, read_trace


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim, keep_records=True)


class TestInstallLifecycle:
    def test_inactive_by_default(self):
        assert trace.ACTIVE is False
        assert trace.TRACER is None

    def test_install_uninstall(self, tracer):
        trace.install(tracer)
        try:
            assert trace.ACTIVE is True
            assert trace.TRACER is tracer
        finally:
            trace.uninstall()
        assert trace.ACTIVE is False
        assert trace.TRACER is None

    def test_installed_contextmanager_restores_on_error(self, tracer):
        with pytest.raises(RuntimeError):
            with trace.installed(tracer):
                assert trace.ACTIVE
                raise RuntimeError("boom")
        assert trace.ACTIVE is False


class TestEmission:
    def test_records_carry_common_fields_and_index(self, sim, tracer):
        tracer.meta(seed=1)
        sim.run_until(2.5)
        tracer.frame_rx("a", "b", 1, "data")
        first, second = tracer.records
        assert first["type"] == "trace.meta"
        assert first["v"] == SCHEMA_VERSION
        assert (first["i"], second["i"]) == (0, 1)
        assert second["t"] == 2.5
        assert tracer.record_count == 2

    def test_frame_lifecycle_counts(self, tracer):
        frame = Frame(src="a", dst="b", frame_type=FrameType.DATA, seq=1)
        tracer.frame_tx(frame, 64, 6)
        tracer.frame_delivered(frame, snr_db=12.34, delay_s=0.0101)
        frame2 = Frame(src="a", dst="b", frame_type=FrameType.DATA, seq=2)
        tracer.frame_tx(frame2, 64, 6)
        tracer.frame_drop("a", "b", 2, "link_budget", snr_db=-3.0)
        assert link_breakdown(tracer.records) == {
            "a->b": {
                "tx": 2, "delivered": 1, "dropped": 1,
                "causes": {"link_budget": 1},
            },
        }

    def test_all_records_schema_valid(self, tracer):
        tracer.meta(seed=3)
        frame = Frame(src="a", dst="b", frame_type=FrameType.DATA, seq=1)
        tracer.frame_tx(frame, 64, 6)
        tracer.record_seal("a", "b", "aead", 1, 80)
        tracer.record_open("b", "a", 1, "telemetry")
        tracer.record_drop("b", "a", "record_rejected", reason="tag")
        tracer.link_deauth("b", "mallory", False)
        tracer.attack_started("jam", "rf_jamming")
        tracer.ids_alert("sig-ids", "rf_jamming", 0.9)
        tracer.attack_stopped("jam", "rf_jamming")
        tracer.safety_intervention("fwd", "safe_stop", reason="person")
        tracer.safety_violation("fwd", "worker-1", 3.456)
        tracer.safety_near_miss("fwd", "worker-1", 8.0)
        tracer.mission_phase("fwd", "loading", "to_pile")
        assert validate_trace(tracer.records) == []


class TestAttackWindows:
    def test_alert_inside_window_gets_latency(self, sim, tracer):
        tracer.attack_started("jam", "rf_jamming")
        sim.run_until(10.0)
        tracer.ids_alert("sig-ids", "rf_jamming", 0.8)
        alert = tracer.records[-1]
        assert alert["in_window"] is True
        assert alert["latency_s"] == 10.0
        assert alert["window"] == "rf_jamming"
        assert detection_latencies(tracer.records) == [10.0]

    def test_alert_within_grace_still_counts(self, sim, tracer):
        tracer.attack_started("jam", "rf_jamming")
        sim.run_until(20.0)
        tracer.attack_stopped("jam", "rf_jamming")
        sim.run_until(20.0 + DETECTION_GRACE_S)
        tracer.ids_alert("anom-ids", "anomaly", 0.5)
        assert tracer.records[-1]["in_window"] is True

    def test_alert_after_grace_is_false_alarm(self, sim, tracer):
        tracer.attack_started("jam", "rf_jamming")
        sim.run_until(20.0)
        tracer.attack_stopped("jam", "rf_jamming")
        sim.run_until(20.0 + DETECTION_GRACE_S + 1.0)
        tracer.ids_alert("anom-ids", "anomaly", 0.5)
        alert = tracer.records[-1]
        assert alert["in_window"] is False
        assert "latency_s" not in alert

    def test_latest_of_nested_windows_wins(self, sim, tracer):
        tracer.attack_started("jam", "rf_jamming")
        sim.run_until(5.0)
        tracer.attack_started("spoof", "gnss_spoofing")
        sim.run_until(7.0)
        tracer.ids_alert("gnss-mon", "gnss_spoofing", 0.9)
        alert = tracer.records[-1]
        assert alert["window"] == "gnss_spoofing"
        assert alert["latency_s"] == 2.0

    def test_stop_computes_duration(self, sim, tracer):
        tracer.attack_started("jam", "rf_jamming")
        sim.run_until(12.5)
        tracer.attack_stopped("jam", "rf_jamming")
        assert tracer.records[-1]["duration_s"] == 12.5

    def test_detection_summary(self, sim, tracer):
        tracer.attack_started("jam", "rf_jamming")
        sim.run_until(4.0)
        tracer.ids_alert("sig-ids", "rf_jamming", 0.8)
        sim.run_until(8.0)
        tracer.ids_alert("sig-ids", "rf_jamming", 0.8)
        tracer.attack_stopped("jam", "rf_jamming")
        sim.run_until(200.0)
        tracer.ids_alert("anom-ids", "anomaly", 0.3)
        assert detection_latencies(tracer.records) == [4.0, 8.0]
        report = latency_report(tracer.records).splitlines()
        assert "alerts:          3" in report
        assert "in attack window: 2" in report
        assert "false alarms:    1" in report
        assert "latency p50:     6.00 s" in report


class TestWriterIntegration:
    def test_streamed_records_round_trip(self, sim, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sim, TraceWriter(path), keep_records=True)
        tracer.meta(seed=1)
        tracer.mission_phase("fwd", "loading", "idle")
        tracer.close()
        assert read_trace(path) == tracer.records

    def test_no_file_when_nothing_emitted(self, sim, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sim, TraceWriter(path))
        tracer.close()
        assert not path.exists()
