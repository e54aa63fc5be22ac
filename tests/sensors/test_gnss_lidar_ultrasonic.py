"""Unit tests for GNSS, ultrasonic and degradation models."""

import pytest

from repro.sensors.degradation import DegradationModel
from repro.sensors.gnss import GnssReceiver
from repro.sensors.ultrasonic import UltrasonicArray
from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2
from repro.sim.weather import Weather, WeatherState
from repro.sim.rng import RngStreams


class TestGnss:
    def test_nominal_fix_near_truth(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(100, 100))
        gnss = GnssReceiver("g", carrier, streams, noise_sigma_m=0.5)
        errors = [
            gnss.fix(float(i)).position.distance_to(carrier.position)
            for i in range(100)
        ]
        assert sum(errors) / len(errors) < 2.0
        assert max(errors) < 5.0

    def test_nominal_cn0_band(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(0, 0))
        gnss = GnssReceiver("g", carrier, streams)
        fixes = [gnss.fix(float(i)) for i in range(50)]
        assert all(40.0 < f.cn0_dbhz < 48.0 for f in fixes)
        assert all(f.valid for f in fixes)

    def test_strong_jamming_denies_fix(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(0, 0))
        gnss = GnssReceiver("g", carrier, streams)
        gnss.jammer_power_db = 30.0
        fix = gnss.fix(0.0)
        assert not fix.valid
        assert fix.n_satellites == 0

    def test_partial_jamming_degrades(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(0, 0))
        gnss = GnssReceiver("g", carrier, streams)
        gnss.jammer_power_db = 10.0
        fixes = [gnss.fix(float(i)) for i in range(100)]
        valid = [f for f in fixes if f.valid]
        assert valid
        errors = [f.position.distance_to(carrier.position) for f in valid]
        assert sum(errors) / len(errors) > 1.0
        assert valid[0].hdop > 1.0

    def test_spoofing_offsets_position_and_raises_cn0(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(100, 100))
        gnss = GnssReceiver("g", carrier, streams)
        gnss.spoof_offset = Vec2(50, 0)
        fixes = [gnss.fix(float(i)) for i in range(50)]
        mean_x = sum(f.position.x for f in fixes) / 50
        assert mean_x == pytest.approx(150.0, abs=1.0)
        assert sum(f.cn0_dbhz for f in fixes) / 50 > 45.0

    def test_clear_attacks(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(0, 0))
        gnss = GnssReceiver("g", carrier, streams)
        gnss.jammer_power_db = 30.0
        gnss.spoof_offset = Vec2(1, 1)
        gnss.clear_attacks()
        assert gnss.fix(0.0).valid


class TestUltrasonic:
    def test_short_range_only(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(0, 0))
        array = UltrasonicArray("u", carrier, streams, max_range=6.0)
        near = Entity("n", sim, log, Vec2(2, 0))
        far = Entity("f", sim, log, Vec2(10, 0))
        assert array.detection_probability(0.0, near) > 0.7
        assert array.detection_probability(0.0, far) == 0.0

    def test_probability_decreases_with_range(self, sim, log, streams):
        carrier = Entity("c", sim, log, Vec2(0, 0))
        array = UltrasonicArray("u", carrier, streams, max_range=6.0)
        p2 = array.detection_probability(0.0, Entity("a", sim, log, Vec2(2, 0)))
        p5 = array.detection_probability(0.0, Entity("b", sim, log, Vec2(5, 0)))
        assert p2 > p5 > 0.0


class TestDegradation:
    def _factors(self, state):
        sim = Simulator()
        weather = Weather(sim, RngStreams(1), initial=state, frozen=True)
        return DegradationModel(weather).factors()

    def test_clear_is_best(self):
        clear = self._factors(WeatherState.CLEAR)
        assert clear.camera == pytest.approx(1.0)

    def test_fog_hits_optics_hardest(self):
        fog = self._factors(WeatherState.FOG)
        clear = self._factors(WeatherState.CLEAR)
        assert fog.camera < 0.4 * clear.camera

    def test_heavy_rain_degrades_camera(self):
        rain = self._factors(WeatherState.HEAVY_RAIN)
        assert rain.camera < 0.5

    def test_all_factors_bounded(self):
        for state in WeatherState:
            f = self._factors(state)
            for value in (f.camera, f.ultrasonic):
                assert 0.0 <= value <= 1.0
