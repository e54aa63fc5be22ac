"""Link layer: frames, association state, ACK/retransmission.

The association state machine is the target of the de-auth attack Gaber et
al. describe: a forged de-authentication frame disconnects a vehicle from the
network unless management-frame protection (the defence) authenticates it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.comms.radio import RadioConfig
from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import backoff_delay
from repro.telemetry import tracer as trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comms.medium import WirelessMedium


@dataclass
class RetryPolicy:
    """Hardened retransmission policy: bounded tries, exponential backoff
    with deterministic RNG jitter, dead-peer detection.

    ``None`` on an endpoint (the default) keeps the legacy fixed-timeout
    behaviour byte-identical — installing a policy is what fault mode does.
    The jitter ``rng`` must be a scenario-owned stream
    (:meth:`repro.sim.rng.RngStreams.stream`), never module-level
    ``random``, so retry timelines replay identically under the
    process-pool sweep runner.
    """

    #: retransmissions after the first try before a frame is abandoned
    max_retries = 5
    #: consecutive per-peer exhaustions before the peer is declared dead
    dead_peer_threshold = 3

    base_timeout_s: float = 0.05
    backoff_factor: float = 2.0
    max_timeout_s: float = 1.6
    jitter_s: float = 0.01
    rng: Optional[object] = None

    def delay(self, tries: int) -> float:
        """Backoff before the ACK check for attempt number ``tries``."""
        delay = backoff_delay(self.base_timeout_s, self.backoff_factor,
                              tries, self.max_timeout_s)
        if self.jitter_s > 0.0 and self.rng is not None:
            delay += self.rng.uniform(0.0, self.jitter_s)
        return delay

    @classmethod
    def hardened(cls, rng) -> "RetryPolicy":
        """The fault-mode default, jittered from a scenario RNG stream."""
        return cls(rng=rng)


class FrameType(enum.Enum):
    """Link-layer frame types."""

    DATA = "data"
    ACK = "ack"
    DEAUTH = "deauth"
    ASSOC = "assoc"


@dataclass(frozen=True, slots=True)
class Frame:
    """A link-layer frame.

    ``auth_tag`` carries the management-frame protection tag for DEAUTH and
    ASSOC frames when the endpoint has protected management enabled.
    """

    src: str
    dst: str
    frame_type: FrameType
    seq: int
    auth_tag: bytes = b""


class LinkEndpoint:
    """One radio endpoint with association and reliability state.

    Parameters
    ----------
    name:
        Network-unique endpoint name.
    position_fn:
        Callable returning the endpoint's current position (tracks carrier).
    medium:
        The shared medium.
    radio:
        PHY parameters.
    protected_management:
        If True, de-auth/assoc frames must carry a valid tag computed with
        ``management_key`` (the defence against de-auth forgery).
    reassociation_time_s:
        Time to re-associate after losing association.
    """

    MAX_RETRIES = 3
    ACK_TIMEOUT_S = 0.05

    def __init__(
        self,
        name: str,
        position_fn: Callable[[], Vec2],
        medium: "WirelessMedium",
        sim: Simulator,
        log: EventLog,
        *,
        radio: Optional[RadioConfig] = None,
        protected_management: bool = False,
        management_key: bytes = b"",
        reassociation_time_s: float = 2.0,
    ) -> None:
        self.name = name
        self.position_fn = position_fn
        self.medium = medium
        self.sim = sim
        self.log = log
        self.radio = radio or RadioConfig()
        self.protected_management = protected_management
        self.management_key = management_key
        self.reassociation_time_s = reassociation_time_s
        self.powered = True
        self.associated = True
        self._seq = 0
        self._pending_acks: Dict[int, dict] = {}
        self._rx_handler: Optional[Callable[[Frame, bytes], None]] = None
        self._seen_seq: Dict[str, list] = {}
        self.deauths_received = 0
        self.deauths_rejected = 0
        # hardened-delivery state (inert until a RetryPolicy is installed)
        self.retry_policy: Optional[RetryPolicy] = None
        self.retry_exhausted = 0
        self.on_peer_dead: Optional[Callable[[str], None]] = None
        self._peer_failures: Dict[str, int] = {}
        medium.register(self)

    # -- plumbing -----------------------------------------------------------
    @property
    def position(self) -> Vec2:
        return self.position_fn()

    def on_receive(self, handler: Callable[[Frame, bytes], None]) -> None:
        """Install the upper-layer receive handler for DATA frames."""
        self._rx_handler = handler

    def management_tag(self, frame_type: FrameType, src: str, dst: str) -> bytes:
        """Compute the protected-management tag for a management frame."""
        from repro.comms.crypto.primitives import hmac_sha256

        return hmac_sha256(
            self.management_key, f"{frame_type.value}|{src}|{dst}".encode()
        )[:16]

    # -- sending ------------------------------------------------------------
    def send(self, dst: str, payload: bytes, *, reliable: bool = True) -> int:
        """Send a DATA frame; returns the assigned link sequence number."""
        if not self.powered:
            return -1
        if not self.associated:
            if trace.ACTIVE:
                trace.TRACER.frame_drop(self.name, dst, -1, "unassociated_tx")
            return -1
        self._seq += 1
        frame = Frame(src=self.name, dst=dst, frame_type=FrameType.DATA, seq=self._seq)
        self._transmit(frame, payload)
        if reliable:
            self._pending_acks[frame.seq] = {"frame": frame, "payload": payload, "tries": 1}
            policy = self.retry_policy
            timeout = policy.delay(1) if policy is not None else self.ACK_TIMEOUT_S
            self.sim.schedule(timeout, lambda s=frame.seq: self._check_ack(s))
        return frame.seq

    def send_deauth(self, dst: str) -> None:
        """Send a de-auth frame."""
        self._seq += 1
        tag = b""
        if self.protected_management:
            tag = self.management_tag(FrameType.DEAUTH, self.name, dst)
        frame = Frame(
            src=self.name, dst=dst, frame_type=FrameType.DEAUTH, seq=self._seq, auth_tag=tag
        )
        self._transmit(frame, b"")

    def _transmit(self, frame: Frame, payload: bytes) -> None:
        if not self.powered:
            return
        raw = payload if payload else b"\x00" * 32
        self.medium.transmit(self, frame, raw)

    def _check_ack(self, seq: int) -> None:
        entry = self._pending_acks.get(seq)
        if entry is None:
            return
        policy = self.retry_policy
        max_retries = policy.max_retries if policy is not None else self.MAX_RETRIES
        if entry["tries"] > max_retries:
            del self._pending_acks[seq]
            self.log.emit(
                self.sim.now, EventCategory.COMMS, "frame_abandoned", self.name, seq=seq
            )
            if policy is not None:
                self.retry_exhausted += 1
                frame = entry["frame"]
                if trace.ACTIVE:
                    trace.TRACER.frame_drop(
                        self.name, frame.dst, seq, "retry_exhausted"
                    )
                self._note_peer_failure(frame.dst)
            return
        entry["tries"] += 1
        if self.associated:
            self._transmit(entry["frame"], entry["payload"])
        timeout = policy.delay(entry["tries"]) if policy is not None else self.ACK_TIMEOUT_S
        self.sim.schedule(timeout, lambda s=seq: self._check_ack(s))

    def _note_peer_failure(self, peer: str) -> None:
        count = self._peer_failures.get(peer, 0) + 1
        self._peer_failures[peer] = count
        threshold = self.retry_policy.dead_peer_threshold
        # fire exactly once per silence episode; an ACK resets the count
        if count == threshold and self.on_peer_dead is not None:
            self.on_peer_dead(peer)

    # -- receiving ----------------------------------------------------------
    def receive_raw(self, frame: Frame, raw: bytes) -> None:
        """Entry point called by the medium on successful delivery."""
        if not self.powered:
            return
        if frame.frame_type is FrameType.ACK:
            self._pending_acks.pop(frame.seq, None)
            if self._peer_failures:
                self._peer_failures.pop(frame.src, None)
            return
        if frame.frame_type is FrameType.DEAUTH:
            self._handle_deauth(frame)
            return
        if frame.frame_type is FrameType.ASSOC:
            return
        if not self.associated:
            if trace.ACTIVE:
                trace.TRACER.frame_drop(
                    frame.src, self.name, frame.seq, "unassociated_rx"
                )
            return
        # duplicate suppression per peer: a bounded cache of recent sequence
        # numbers (a high-water mark would let an attacker poison the counter
        # with one large forged sequence number)
        recent = self._seen_seq.setdefault(frame.src, [])
        duplicate = frame.seq in recent
        if not duplicate:
            recent.append(frame.seq)
            if len(recent) > 64:
                del recent[:-64]
        self._send_ack(frame)
        if duplicate:
            if trace.ACTIVE:
                trace.TRACER.frame_drop(
                    frame.src, self.name, frame.seq, "duplicate"
                )
            return
        if trace.ACTIVE:
            trace.TRACER.frame_rx(
                self.name, frame.src, frame.seq, frame.frame_type.value
            )
        if self._rx_handler is not None:
            self._rx_handler(frame, raw)

    def _send_ack(self, frame: Frame) -> None:
        ack = Frame(src=self.name, dst=frame.src, frame_type=FrameType.ACK, seq=frame.seq)
        self.medium.transmit(self, ack, b"\x00" * 14)

    def _handle_deauth(self, frame: Frame) -> None:
        self.deauths_received += 1
        if self.protected_management:
            expected = self.management_tag(FrameType.DEAUTH, frame.src, self.name)
            if frame.auth_tag != expected:
                self.deauths_rejected += 1
                self.log.emit(
                    self.sim.now, EventCategory.DEFENSE, "deauth_rejected", self.name,
                    src=frame.src,
                )
                if trace.ACTIVE:
                    trace.TRACER.link_deauth(self.name, frame.src, False)
                return
        self.associated = False
        # teardown flushes in-flight reliability state: a stale entry must
        # not keep retrying (and eventually retransmit) after re-association
        self._pending_acks.clear()
        self.log.emit(
            self.sim.now, EventCategory.COMMS, "deauthenticated", self.name, src=frame.src
        )
        if trace.ACTIVE:
            trace.TRACER.link_deauth(self.name, frame.src, True)
        self.sim.schedule(self.reassociation_time_s, self._reassociate)

    def _reassociate(self) -> None:
        if self.powered and not self.associated:
            self.associated = True
            self.log.emit(self.sim.now, EventCategory.COMMS, "reassociated", self.name)

    # -- power (fault injection) --------------------------------------------
    def power_off(self) -> None:
        """Node crash: stop radiating and flush reliability state."""
        self.powered = False
        self._pending_acks.clear()
        if self._peer_failures:
            self._peer_failures.clear()
        self.log.emit(self.sim.now, EventCategory.COMMS, "powered_off", self.name)

    def power_on(self) -> None:
        """Restart after a crash; comes back up associated."""
        self.powered = True
        self.associated = True
        self.log.emit(self.sim.now, EventCategory.COMMS, "powered_on", self.name)
