"""Edge-case tests for protocols and link reliability."""

import pytest

from repro.comms.crypto.numbers import TEST_GROUP
from repro.comms.crypto.secure_channel import SecurityProfile
from repro.comms.link import LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.comms.network import Network
from repro.comms.protocols import HeartbeatMonitor, TelemetryPublisher
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2


class TestTelemetryEdgeCases:
    def test_dead_entity_stops_publishing(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        network = Network(sim, log, medium, group=TEST_GROUP,
                          profile=SecurityProfile.PLAINTEXT)
        node = network.add_node("m", lambda: Vec2(0, 0))
        network.add_node("c", lambda: Vec2(50, 0))
        entity = Entity("machine", sim, log, Vec2(0, 0))
        publisher = TelemetryPublisher(node, entity, "c", sim, interval_s=1.0)
        sim.run_until(5.0)
        published_alive = publisher.published
        entity.deactivate()
        sim.run_until(15.0)
        assert publisher.published == published_alive
        assert published_alive >= 4


class TestHeartbeatCounters:
    def test_sent_received_track(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        network = Network(sim, log, medium, group=TEST_GROUP,
                          profile=SecurityProfile.PLAINTEXT)
        a = network.add_node("a", lambda: Vec2(0, 0))
        b = network.add_node("b", lambda: Vec2(40, 0))
        monitor_a = HeartbeatMonitor(a, "b", sim, log, interval_s=1.0)
        monitor_b = HeartbeatMonitor(b, "a", sim, log, interval_s=1.0)
        sim.run_until(20.0)
        # close range: each side heard the other within the last interval
        assert monitor_a.last_heard > 18.5 and monitor_b.last_heard > 18.5
        assert log.count("heartbeat_lost") == 0
        assert monitor_a.link_up and monitor_b.link_up

    def test_ignores_heartbeats_from_other_peers(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        network = Network(sim, log, medium, group=TEST_GROUP,
                          profile=SecurityProfile.PLAINTEXT)
        a = network.add_node("a", lambda: Vec2(0, 0))
        b = network.add_node("b", lambda: Vec2(40, 0))
        c = network.add_node("c", lambda: Vec2(20, 0))
        # a watches b, but only c beats
        monitor = HeartbeatMonitor(a, "b", sim, log, interval_s=1.0,
                                   timeout_s=3.0)
        HeartbeatMonitor(c, "a", sim, log, interval_s=1.0)
        sim.run_until(10.0)
        assert monitor.last_heard == 0.0
        assert not monitor.link_up


class TestLinkReliability:
    def test_frame_abandoned_after_retries(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        a = LinkEndpoint("a", lambda: Vec2(0, 0), medium, sim, log)
        # destination exists but is unreachable (extreme range)
        LinkEndpoint("b", lambda: Vec2(50_000, 0), medium, sim, log)
        a.send("b", b"doomed", reliable=True)
        sim.run_until(5.0)
        assert log.count("frame_abandoned") == 1
        # original + MAX_RETRIES retransmissions
        assert medium.frames_sent == 1 + a.MAX_RETRIES

    def test_ack_stops_retransmission(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        a = LinkEndpoint("a", lambda: Vec2(0, 0), medium, sim, log)
        b = LinkEndpoint("b", lambda: Vec2(10, 0), medium, sim, log)
        b.on_receive(lambda frame, raw: None)
        a.send("b", b"easy", reliable=True)
        sim.run_until(5.0)
        assert log.count("frame_abandoned") == 0
        # one data frame + one ack only (no retries at 10 m)
        assert medium.frames_sent == 2
