"""Unit tests for messages, the network layer and application protocols."""

import pytest

from repro.comms.crypto.numbers import TEST_GROUP
from repro.comms.crypto.secure_channel import Record, SecurityProfile
from repro.comms.link import Frame, FrameType, LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.comms.messages import Command, Heartbeat, Message, Telemetry
from repro.comms.network import CommNode, Network, decode_record, encode_record
from repro.comms.protocols import (
    CommandChannel,
    DetectionRelay,
    HeartbeatMonitor,
    TelemetryPublisher,
    phase_offset,
)
from repro.sim.entities import Entity
from repro.sim.geometry import Vec2


class TestMessages:
    def test_encode_decode_roundtrip(self):
        msg = Command(sender="a", recipient="b",
                      payload={"command": "resume"}, timestamp=1.5, seq=7)
        decoded = Message.decode(msg.encode())
        assert isinstance(decoded, Command)
        assert decoded.command == "resume"
        assert decoded.seq == 7
        assert decoded.timestamp == 1.5

    def test_canonical_encoding_stable(self):
        a = Telemetry(sender="a", recipient="b", payload={"x": 1, "y": 2})
        b = Telemetry(sender="a", recipient="b", payload={"y": 2, "x": 1})
        assert a.encode() == b.encode()

    def test_type_registry_covers_all_types(self):
        for cls in (Message, Telemetry, Command, Heartbeat):
            msg = cls(sender="a", recipient="b")
            assert type(Message.decode(msg.encode())) is cls

    def test_size_bytes(self):
        msg = Heartbeat(sender="a", recipient="b")
        assert msg.size_bytes == len(msg.encode())


class TestRecordEncoding:
    def test_roundtrip(self):
        record = Record(seq=42, body=b"payload", profile="aead")
        decoded = decode_record(encode_record(record))
        assert decoded == record

    def test_truncated_rejected(self):
        from repro.comms.crypto.secure_channel import ChannelError

        with pytest.raises(ChannelError):
            decode_record(b"\x00" * 4)

    def test_unknown_profile_rejected(self):
        from repro.comms.crypto.secure_channel import ChannelError

        with pytest.raises(ChannelError):
            decode_record(b"\x09" + b"\x00" * 8 + b"body")


@pytest.fixture
def net(sim, log, streams):
    medium = WirelessMedium(sim, log, streams)
    network = Network(sim, log, medium, group=TEST_GROUP,
                      profile=SecurityProfile.AEAD)
    a = network.add_node("alpha", lambda: Vec2(0, 0), roles=("operator",))
    b = network.add_node("beta", lambda: Vec2(60, 0))
    network.establish_all()
    return network, a, b, medium


class TestNetwork:
    def test_protected_message_delivery(self, net, sim):
        network, a, b, _ = net
        got = []
        b.on_message("command", got.append)
        a.send(Command(sender="alpha", recipient="beta",
                       payload={"command": "resume"}))
        sim.run_until(1.0)
        assert len(got) == 1
        assert got[0].sender == "alpha"

    def test_sender_field_is_stamped_not_trusted(self, net, sim):
        network, a, b, _ = net
        got = []
        b.on_message("command", got.append)
        # the caller lies about the sender; the node stamps its own name
        a.send(Command(sender="mallory", recipient="beta",
                       payload={"command": "resume"}))
        sim.run_until(1.0)
        assert got[0].sender == "alpha"

    def test_plaintext_injection_rejected_on_protected_link(self, net, sim, log):
        network, a, b, medium = net
        attacker = LinkEndpoint("attacker", lambda: Vec2(30, 0), medium, sim, log)
        msg = Command(sender="alpha", recipient="beta",
                      payload={"command": "resume"}, seq=1)
        wire = encode_record(Record(seq=1, body=msg.encode(), profile="plaintext"))
        frame = Frame(src="alpha", dst="beta", frame_type=FrameType.DATA, seq=999)
        medium.transmit(attacker, frame, wire)
        sim.run_until(1.0)
        assert b.records_rejected == 1
        assert b.messages_received == 0

    def test_plaintext_profile_accepts_unprotected(self, sim, log, streams):
        medium = WirelessMedium(sim, log, streams)
        network = Network(sim, log, medium, group=TEST_GROUP,
                          profile=SecurityProfile.PLAINTEXT)
        a = network.add_node("alpha", lambda: Vec2(0, 0))
        b = network.add_node("beta", lambda: Vec2(60, 0))
        network.establish_all()  # no channels created for PLAINTEXT
        got = []
        b.on_message("*", got.append)
        a.send(Telemetry(sender="alpha", recipient="beta", payload={"x": 1}))
        sim.run_until(1.0)
        assert len(got) == 1

    def test_wildcard_handler(self, net, sim):
        network, a, b, _ = net
        got = []
        b.on_message("*", got.append)
        a.send(Heartbeat(sender="alpha", recipient="beta"))
        a.send(Telemetry(sender="alpha", recipient="beta"))
        sim.run_until(1.0)
        assert len(got) == 2


class TestProtocols:
    def test_phase_offset_deterministic_and_in_range(self):
        a = phase_offset("x", 1.0)
        assert a == phase_offset("x", 1.0)
        assert 0.0 < a < 1.0
        assert phase_offset("x", 1.0) != phase_offset("y", 1.0)

    def test_telemetry_publishes_state(self, net, sim, log):
        network, a, b, _ = net
        entity = Entity("machine", sim, log, Vec2(5, 5))
        got = []
        b.on_message("telemetry", got.append)
        TelemetryPublisher(a, entity, "beta", sim, interval_s=1.0)
        sim.run_until(5.0)
        assert len(got) >= 3
        assert got[0].payload["x"] == 5.0

    def test_heartbeat_loss_and_recovery(self, net, sim, log):
        network, a, b, medium = net
        events = {"loss": 0, "recovery": 0}
        monitor = HeartbeatMonitor(
            b, "alpha", sim, log, interval_s=1.0, timeout_s=3.0,
            on_loss=lambda: events.__setitem__("loss", events["loss"] + 1),
            on_recovery=lambda: events.__setitem__("recovery", events["recovery"] + 1),
        )
        HeartbeatMonitor(a, "beta", sim, log, interval_s=1.0)
        sim.run_until(10.0)
        assert monitor.link_up
        # power off the peer: heartbeats stop
        a.endpoint.powered = False
        sim.run_until(20.0)
        assert not monitor.link_up
        assert events["loss"] == 1
        # power restored
        a.endpoint.powered = True
        sim.run_until(30.0)
        assert monitor.link_up
        assert events["recovery"] == 1

    def test_command_channel_executes_authorized(self, net, sim, log):
        network, a, b, _ = net
        executed = []

        def executor(command, **params):
            executed.append((command, params))
            return True

        channel = CommandChannel(b, executor, log, sim)
        channel.send_command(a, "beta", "set_speed_limit", limit=1.0)
        sim.run_until(1.0)
        assert executed == [("set_speed_limit", {"limit": 1.0})]
        assert channel.executed == 1

    def test_command_channel_rejects_unauthorized(self, net, sim, log):
        network, a, b, _ = net
        executed = []
        channel = CommandChannel(
            b, lambda c, **p: executed.append(c) or True, log, sim,
            authorize=lambda message: False,
        )
        channel.send_command(a, "beta", "resume")
        sim.run_until(1.0)
        assert executed == []
        assert channel.rejected == 1
        assert log.count("command_rejected") == 1

    def test_detection_relay(self, net, sim):
        network, a, b, _ = net
        reports = []
        relay = DetectionRelay(a, b, sim, on_report=reports.append)
        relay.publish([{"target": "p1", "confidence": 0.8, "x": 1.0, "y": 2.0}])
        sim.run_until(1.0)
        assert len(reports) == 1
        assert reports[0].payload["detections"][0]["target"] == "p1"
