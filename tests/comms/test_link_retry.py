"""Hardened-delivery link layer: RetryPolicy backoff, bounded
retransmission with ``retry_exhausted``, teardown cleanup, dead-peer
detection — and the legacy byte-identical default when no policy is set."""

import random

import pytest

from repro.comms.link import FrameType, LinkEndpoint, RetryPolicy
from repro.comms.medium import WirelessMedium
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams


@pytest.fixture
def link_pair():
    sim = Simulator()
    log = EventLog()
    medium = WirelessMedium(sim, log, RngStreams(1))
    a = LinkEndpoint("a", lambda: Vec2(0.0, 0.0), medium, sim, log)
    b = LinkEndpoint("b", lambda: Vec2(10.0, 0.0), medium, sim, log)
    return sim, medium, a, b


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_timeout_s=0.05, backoff_factor=2.0,
                             max_timeout_s=0.4, jitter_s=0.0)
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.20)
        assert policy.delay(4) == pytest.approx(0.40)
        assert policy.delay(10) == pytest.approx(0.40)  # capped

    def test_jitter_comes_from_the_injected_rng(self):
        policy = RetryPolicy(jitter_s=0.02, rng=random.Random(7))
        same = RetryPolicy(jitter_s=0.02, rng=random.Random(7))
        draws = [policy.delay(1) for _ in range(5)]
        assert draws == [same.delay(1) for _ in range(5)]
        base = RetryPolicy(jitter_s=0.0).delay(1)
        assert all(base <= d <= base + 0.02 for d in draws)

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(jitter_s=0.02, rng=None)
        assert policy.delay(1) == pytest.approx(0.05)


class TestBoundedRetransmission:
    def test_retry_exhausted_when_peer_gone(self, link_pair):
        sim, medium, a, b = link_pair
        a.retry_policy = RetryPolicy.hardened(random.Random(3))
        b.powered = False  # frames to b die on the medium
        a.send("b", b"payload")
        sim.run_until(30.0)
        assert a.retry_exhausted == 1
        assert a._pending_acks == {}

    def test_legacy_default_still_abandons_silently(self, link_pair):
        sim, medium, a, b = link_pair
        b.powered = False
        a.send("b", b"payload")
        sim.run_until(5.0)
        assert a.retry_exhausted == 0  # legacy counter untouched
        assert a._pending_acks == {}

    def test_delivery_needs_no_retry_when_peer_alive(self, link_pair):
        sim, medium, a, b = link_pair
        a.retry_policy = RetryPolicy.hardened(random.Random(3))
        received = []
        b.on_receive(lambda frame, raw: received.append(raw))
        a.send("b", b"hello")
        sim.run_until(5.0)
        assert received == [b"hello"]
        assert a.retry_exhausted == 0
        assert a._pending_acks == {}


class TestTeardownCleanup:
    def test_deauth_flushes_pending_acks(self, link_pair):
        sim, medium, a, b = link_pair
        b.powered = False
        a.send("b", b"one")
        a.send("b", b"two")
        assert len(a._pending_acks) == 2
        deauth_sender = LinkEndpoint(
            "c", lambda: Vec2(5.0, 0.0), medium, sim, log=a.log
        )
        deauth_sender.send_deauth("a")
        sim.run_until(1.0)
        assert a.associated is False
        assert a._pending_acks == {}

    def test_power_off_flushes_pending_and_peer_state(self, link_pair):
        sim, medium, a, b = link_pair
        a.retry_policy = RetryPolicy.hardened(random.Random(3))
        b.powered = False
        a.send("b", b"one")
        a._peer_failures["b"] = 2
        a.power_off()
        assert a._pending_acks == {}
        assert a._peer_failures == {}
        a.power_on()
        assert a.powered and a.associated


class TestDeadPeerDetection:
    def test_fires_once_at_threshold(self, link_pair):
        sim, medium, a, b = link_pair
        a.retry_policy = RetryPolicy.hardened(random.Random(3))
        dead = []
        a.on_peer_dead = dead.append
        b.powered = False
        for _ in range(5):  # threshold is 3; extra exhaustions stay silent
            a.send("b", b"x")
            sim.run_until(sim.now + 30.0)
        assert a.retry_exhausted == 5
        assert dead == ["b"]

    def test_ack_resets_the_failure_count(self, link_pair):
        sim, medium, a, b = link_pair
        a.retry_policy = RetryPolicy.hardened(random.Random(3))
        dead = []
        a.on_peer_dead = dead.append
        b.powered = False
        for _ in range(2):
            a.send("b", b"x")
            sim.run_until(sim.now + 30.0)
        assert a._peer_failures == {"b": 2}
        b.powered = True  # peer back: next send is ACKed
        a.send("b", b"x")
        sim.run_until(sim.now + 30.0)
        assert a._peer_failures == {}
        assert dead == []
