"""Unit tests for weather, the event log and metrics."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.sim.metrics import MetricsCollector, SeriesSummary
from repro.sim.rng import RngStreams
from repro.sim.weather import Weather, WeatherState


class TestWeather:
    def test_initial_state(self):
        sim = Simulator()
        weather = Weather(sim, RngStreams(1), initial=WeatherState.FOG)
        assert weather.state is WeatherState.FOG
        assert weather.conditions().visibility < 0.5

    def test_frozen_weather_never_changes(self):
        sim = Simulator()
        weather = Weather(sim, RngStreams(1), frozen=True)
        sim.run_until(100000.0)
        assert weather.state is WeatherState.CLEAR
        assert len(weather.history) == 1

    def test_transitions_happen(self):
        sim = Simulator()
        weather = Weather(sim, RngStreams(1), mean_dwell_s=100.0)
        sim.run_until(5000.0)
        assert len(weather.history) > 3

    def test_transitions_follow_matrix(self):
        """No transition may leave the declared adjacency."""
        from repro.sim.weather import _TRANSITIONS

        sim = Simulator()
        weather = Weather(sim, RngStreams(7), mean_dwell_s=50.0)
        sim.run_until(20000.0)
        states = [s for _, s in weather.history]
        for a, b in zip(states, states[1:]):
            assert b in _TRANSITIONS[a], f"illegal transition {a} -> {b}"

    def test_listener_called_on_change(self):
        sim = Simulator()
        weather = Weather(sim, RngStreams(1), mean_dwell_s=100.0)
        seen = []
        weather.subscribe(seen.append)
        sim.run_until(5000.0)
        assert seen == [s for _, s in weather.history[1:]]

    def test_force_state(self):
        sim = Simulator()
        weather = Weather(sim, RngStreams(1), frozen=True)
        weather.force_state(WeatherState.HEAVY_RAIN)
        assert weather.state is WeatherState.HEAVY_RAIN
        assert weather.conditions().precipitation > 0.8

    def test_deterministic_history(self):
        def history(seed):
            sim = Simulator()
            weather = Weather(sim, RngStreams(seed), mean_dwell_s=100.0)
            sim.run_until(10000.0)
            return weather.history

        assert history(5) == history(5)


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(1.0, EventCategory.SAFETY, "safe_stop", "fwd", reason="test")
        assert len(log) == 1
        assert log.count("safe_stop") == 1
        assert log.of_kind("safe_stop")[0].data["reason"] == "test"

    def test_category_filter(self):
        log = EventLog()
        log.emit(1.0, EventCategory.SAFETY, "a", "x")
        log.emit(2.0, EventCategory.COMMS, "b", "y")
        assert len(log.of_category(EventCategory.SAFETY)) == 1

    def test_between(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0, 4.0):
            log.emit(t, EventCategory.SYSTEM, "tick", "t")
        assert len(log.between(2.0, 3.0)) == 2

    def test_last(self):
        log = EventLog()
        log.emit(1.0, EventCategory.SYSTEM, "tick", "a")
        log.emit(2.0, EventCategory.SYSTEM, "tick", "b")
        assert log.last("tick").source == "b"
        assert log.last("missing") is None

    def test_category_subscription(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append, EventCategory.ATTACK)
        log.emit(1.0, EventCategory.ATTACK, "jam", "atk")
        log.emit(2.0, EventCategory.COMMS, "frame", "n")
        assert [e.kind for e in seen] == ["jam"]

    def test_wildcard_subscription(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit(1.0, EventCategory.ATTACK, "jam", "atk")
        log.emit(2.0, EventCategory.COMMS, "frame", "n")
        assert len(seen) == 2


class TestMetrics:
    def test_counters(self):
        metrics = MetricsCollector()
        metrics.increment("a")
        metrics.increment("a", 2.0)
        assert metrics.counter("a") == 3.0
        assert metrics.counter("missing") == 0.0

    def test_gauges(self):
        metrics = MetricsCollector()
        metrics.set_gauge("g", 1.5)
        assert metrics.gauge("g") == 1.5
        assert metrics.gauge("other", default=-1.0) == -1.0

    def test_series_and_summary(self):
        metrics = MetricsCollector()
        for t, v in enumerate([1.0, 2.0, 3.0]):
            metrics.sample("s", float(t), v)
        summary = metrics.summarize("s")
        assert summary.count == 3
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_empty_summary(self):
        assert MetricsCollector().summarize("missing").count == 0
        assert SeriesSummary.of([]).std == 0.0

    def test_ratio(self):
        metrics = MetricsCollector()
        metrics.increment("hit", 3)
        metrics.increment("total", 4)
        assert metrics.ratio("hit", "total") == 0.75
        assert metrics.ratio("hit", "missing") is None

    def test_empty_summary_percentiles(self):
        summary = SeriesSummary.of([])
        assert (summary.p50, summary.p95) == (0.0, 0.0)
        assert summary.as_dict()["count"] == 0

    def test_percentiles(self):
        values = [float(v) for v in range(1, 101)]
        summary = SeriesSummary.of(values)
        assert summary.p50 == 50.5
        assert abs(summary.p95 - 95.05) < 1e-9
        assert SeriesSummary.of([4.0]).p95 == 4.0

    def test_percentiles_interpolate(self):
        summary = SeriesSummary.of([1.0, 2.0, 10.0])
        assert summary.p50 == 2.0
        # rank 0.95 * 2 = 1.9 -> between 2.0 and 10.0
        assert abs(summary.p95 - (2.0 + 0.9 * 8.0)) < 1e-9

    def test_gauges_property_is_a_copy(self):
        metrics = MetricsCollector()
        metrics.set_gauge("g", 1.0)
        metrics.gauges["g"] = 5.0
        assert metrics.gauge("g") == 1.0

    def test_series_names_sorted(self):
        metrics = MetricsCollector()
        metrics.sample("b", 0.0, 1.0)
        metrics.sample("a", 0.0, 1.0)
        assert metrics.series_names() == ["a", "b"]


class TestHistogram:
    def test_empty(self):
        from repro.sim.metrics import Histogram

        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.quantile(0.5) == 0.0

    def test_count_sum_min_max(self):
        from repro.sim.metrics import Histogram

        histogram = Histogram()
        for value in (0.001, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.count == 3
        assert abs(histogram.total - 0.111) < 1e-12
        assert histogram.minimum == 0.001
        assert histogram.maximum == 0.1

    def test_memory_is_bounded(self):
        from repro.sim.metrics import Histogram

        histogram = Histogram()
        buckets = len(histogram.counts)
        for i in range(10_000):
            histogram.observe(0.001 * (1 + i % 97))
        assert len(histogram.counts) == buckets
        assert histogram.count == 10_000

    def test_quantiles_are_ordered_and_bracketed(self):
        from repro.sim.metrics import Histogram

        histogram = Histogram()
        for i in range(1, 1001):
            histogram.observe(i / 1000.0)
        p50, p95, p99 = (
            histogram.quantile(q) for q in (0.50, 0.95, 0.99)
        )
        assert p50 <= p95 <= p99 <= histogram.maximum
        # log-spaced buckets: estimates land within a bucket's width
        assert 0.3 < p50 < 0.8
        assert 0.8 < p99 <= 1.0

    def test_out_of_range_values_still_counted(self):
        from repro.sim.metrics import Histogram

        histogram = Histogram(lower=1e-3, upper=1e3)
        histogram.observe(1e-9)   # below: first bucket
        histogram.observe(1e9)    # above: overflow bucket
        assert histogram.count == 2
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1

    def test_invalid_configuration_rejected(self):
        from repro.sim.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram(lower=0.0)
        with pytest.raises(ValueError):
            Histogram(lower=1.0, upper=0.5)
