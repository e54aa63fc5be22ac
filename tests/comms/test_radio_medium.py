"""Unit tests for the radio model and the shared medium."""

import math

import pytest

from repro.comms.link import Frame, FrameType, LinkEndpoint
from repro.comms.medium import Jammer, WirelessMedium
from repro.comms.radio import (
    RadioConfig,
    airtime_s,
    combine_noise_dbm,
    frame_success_probability,
    link_budget,
    path_loss_db,
    received_power_dbm,
    THERMAL_NOISE_DBM,
)
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams
from repro.telemetry.tracer import Tracer, installed


class TestRadioMath:
    def test_path_loss_increases_with_distance(self):
        assert path_loss_db(10.0) < path_loss_db(100.0) < path_loss_db(1000.0)

    def test_path_loss_clamps_below_one_metre(self):
        assert path_loss_db(0.1) == path_loss_db(1.0)

    def test_canopy_adds_loss(self):
        assert path_loss_db(50.0, canopy_m=20.0) == pytest.approx(
            path_loss_db(50.0) + 5.0
        )

    def test_received_power_composition(self):
        rx = received_power_dbm(20.0, 100.0, antenna_gain_db=2.0)
        assert rx == pytest.approx(22.0 - path_loss_db(100.0))

    def test_combine_noise_doubles_power(self):
        # two equal sources add 3 dB
        assert combine_noise_dbm(-90.0, -90.0) == pytest.approx(-87.0, abs=0.1)

    def test_combine_noise_empty(self):
        assert combine_noise_dbm() == -math.inf

    def test_success_probability_sigmoid(self):
        assert frame_success_probability(30.0) > 0.99
        assert frame_success_probability(-10.0) < 0.01
        assert frame_success_probability(8.0) == pytest.approx(0.5)

    def test_airtime_scales_with_size(self):
        small = airtime_s(100, 6e6)
        large = airtime_s(1000, 6e6)
        assert large > small

    def test_link_budget_interference_lowers_success(self):
        clean = link_budget(RadioConfig(), 100.0)
        noisy = link_budget(RadioConfig(), 100.0, interference_dbm=-70.0)
        assert noisy.success_probability < clean.success_probability
        assert noisy.noise_dbm > THERMAL_NOISE_DBM


@pytest.fixture
def medium(sim, log, streams):
    return WirelessMedium(sim, log, streams)


def make_endpoint(name, position, medium, sim, log, **kwargs):
    return LinkEndpoint(name, lambda: position, medium, sim, log, **kwargs)


class TestMedium:
    def test_delivery_between_close_endpoints(self, sim, log, medium):
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(50, 0), medium, sim, log)
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        a.send("b", b"hello", reliable=False)
        sim.run_until(1.0)
        assert received == [b"hello"]
        assert medium.delivery_ratio > 0.9

    def test_unknown_destination_lost(self, sim, log, medium):
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        a.send("ghost", b"hello", reliable=False)
        sim.run_until(1.0)
        assert medium.frames_lost == 1

    def test_duplicate_endpoint_name_rejected(self, sim, log, medium):
        make_endpoint("a", Vec2(0, 0), medium, sim, log)
        with pytest.raises(ValueError):
            make_endpoint("a", Vec2(1, 1), medium, sim, log)

    def test_extreme_range_loses_frames(self, sim, log, medium):
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(5000, 0), medium, sim, log)
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        for _ in range(20):
            a.send("b", b"x", reliable=False)
        sim.run_until(5.0)
        assert len(received) < 3

    def test_jammer_degrades_delivery(self, sim, log, medium):
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(80, 0), medium, sim, log)
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        for i in range(50):
            sim.schedule(i * 0.1, lambda: a.send("b", b"x", reliable=False))
        sim.run_until(6.0)
        clean_count = len(received)

        received.clear()
        medium.add_jammer(Jammer("j", lambda: Vec2(40, 0), power_dbm=30.0))
        for i in range(50):
            sim.schedule(sim.now + i * 0.1, lambda: a.send("b", b"x", reliable=False))
        sim.run_until(sim.now + 6.0)
        assert len(received) < clean_count / 2

    def test_jammer_channel_selectivity(self, sim, log, medium):
        jammer = Jammer("j", lambda: Vec2(0, 0), power_dbm=30.0, channel=3)
        assert jammer.interference_at(Vec2(10, 0), 3) > -50.0
        assert jammer.interference_at(Vec2(10, 0), 1) == -math.inf

    def test_reactive_jammer_activity_gate(self, sim, log, medium):
        active = {"on": False}
        jammer = Jammer(
            "j", lambda: Vec2(0, 0), power_dbm=30.0,
            active_fn=lambda: active["on"],
        )
        assert jammer.interference_at(Vec2(10, 0), 1) == -math.inf
        active["on"] = True
        assert jammer.interference_at(Vec2(10, 0), 1) > -50.0

    def test_eavesdropper_sees_all_frames(self, sim, log, medium):
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        make_endpoint("b", Vec2(50, 0), medium, sim, log)
        captured = []
        medium.add_eavesdropper(lambda frame, raw: captured.append((frame.dst, raw)))
        a.send("b", b"secret", reliable=False)
        sim.run_until(1.0)
        assert captured[0] == ("b", b"secret")


class TestLinkLayer:
    def test_reliable_delivery_retries(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(50, 0), medium, sim, log)
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        a.send("b", b"important")
        sim.run_until(2.0)
        assert received == [b"important"]  # duplicates suppressed

    def test_duplicate_suppression(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(10, 0), medium, sim, log)
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        frame = Frame(src="a", dst="b", frame_type=FrameType.DATA, seq=5)
        medium.transmit(a, frame, b"dup")
        medium.transmit(a, frame, b"dup")
        sim.run_until(1.0)
        assert len(received) == 1

    def test_unprotected_deauth_disassociates(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(10, 0), medium, sim, log,
                          reassociation_time_s=5.0)
        a.send_deauth("b")
        sim.run_until(1.0)
        assert not b.associated
        sim.run_until(10.0)
        assert b.associated  # reassociation completes

    def test_protected_management_rejects_forged_deauth(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        key = b"management-key"
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log,
                          protected_management=True, management_key=key)
        b = make_endpoint("b", Vec2(10, 0), medium, sim, log,
                          protected_management=True, management_key=key)
        attacker = make_endpoint("atk", Vec2(5, 0), medium, sim, log)
        forged = Frame(src="a", dst="b", frame_type=FrameType.DEAUTH, seq=1)
        medium.transmit(attacker, forged, b"\x00" * 26)
        sim.run_until(1.0)
        assert b.associated
        assert b.deauths_rejected == 1

    def test_protected_management_accepts_genuine_deauth(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        key = b"management-key"
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log,
                          protected_management=True, management_key=key)
        b = make_endpoint("b", Vec2(10, 0), medium, sim, log,
                          protected_management=True, management_key=key)
        a.send_deauth("b")
        sim.run_until(1.0)
        assert not b.associated

    def test_unassociated_endpoint_drops_traffic(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        a = make_endpoint("a", Vec2(0, 0), medium, sim, log)
        b = make_endpoint("b", Vec2(10, 0), medium, sim, log,
                          reassociation_time_s=100.0)
        b.associated = False
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        tracer = Tracer(sim, keep_records=True)
        with installed(tracer):
            a.send("b", b"x", reliable=False)
            sim.run_until(1.0)
        assert received == []
        assert [r["cause"] for r in tracer.records
                if r["type"] == "frame.drop"] == ["unassociated_rx"]
