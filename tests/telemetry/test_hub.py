"""The worksite metrics exporter: JSON snapshot and Prometheus exposition."""

import json

import pytest

from repro.sim.metrics import MetricsCollector
from repro.telemetry import hub
from repro.telemetry.schema import SCHEMA_VERSION


@pytest.fixture
def collector():
    c = MetricsCollector()
    c.increment("frames", 10)
    c.set_gauge("ratio", 0.9)
    c.sample("speed", 0.0, 1.0)
    c.sample("speed", 1.0, 3.0)
    return c


class TestSnapshot:
    def test_metrics_section(self, collector):
        snapshot = hub.metrics_snapshot(collector)
        assert snapshot["schema"] == SCHEMA_VERSION
        assert list(snapshot["metrics"]) == ["worksite"]
        section = snapshot["metrics"]["worksite"]
        assert sorted(section) == ["counters", "gauges", "series"]
        assert section["counters"] == {"frames": 10}
        assert section["gauges"] == {"ratio": 0.9}
        assert section["series"]["speed"]["count"] == 2
        assert section["series"]["speed"]["p50"] == 2.0

    def test_snapshot_is_json_serialisable(self, collector):
        json.dumps(hub.metrics_snapshot(collector))


class TestExport:
    def test_export_creates_parents_and_round_trips(self, collector, tmp_path):
        target = tmp_path / "deep" / "metrics.json"
        written = hub.write_metrics_json(collector, target)
        assert written == target
        loaded = json.loads(target.read_text())
        assert loaded == hub.metrics_snapshot(collector)


class TestPrometheus:
    def _collector(self):
        collector = MetricsCollector()
        collector.increment("frames.sent", 10)
        collector.set_gauge("delivery.ratio", 0.9)
        collector.sample("speed", 1.0, 1.0)
        collector.sample("speed", 2.0, 3.0)
        return collector

    def test_counter_gauge_summary_families(self):
        text = hub.render_prometheus(self._collector())
        assert "# TYPE repro_worksite_frames_sent_total counter" in text
        assert "repro_worksite_frames_sent_total 10" in text
        assert "# TYPE repro_worksite_delivery_ratio gauge" in text
        assert "# TYPE repro_worksite_speed summary" in text
        assert 'repro_worksite_speed{quantile="0.5"}' in text
        assert "repro_worksite_speed_count 2" in text

    def test_names_are_sanitised(self):
        text = hub.render_prometheus(self._collector())
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert all(
                c.isalnum() or c in "_:" for c in name
            ), name

    def test_deterministic_output(self):
        assert hub.render_prometheus(self._collector()) == \
            hub.render_prometheus(self._collector())

    def test_export_prometheus_writes_file(self, tmp_path):
        target = tmp_path / "deep" / "metrics.prom"
        written = hub.write_prometheus(self._collector(), target)
        assert written == target
        assert target.read_text() == hub.render_prometheus(self._collector())
