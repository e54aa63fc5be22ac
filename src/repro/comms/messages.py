"""Typed application messages exchanged on the worksite network.

Messages serialise to bytes through a small canonical encoding so that the
crypto layer (MAC/AEAD) and the IDS operate on realistic payloads.  The
encoding is deliberately simple (length-prefixed UTF-8 JSON) — the point is
byte-faithful integrity protection, not wire-format engineering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Type

from repro.canonical import canonical_json


@dataclass(frozen=True)
class Message:
    """Base application message.

    Attributes
    ----------
    sender / recipient:
        Node names.
    msg_type:
        Wire discriminator, fixed per subclass.
    payload:
        Structured content.
    timestamp:
        Sender's clock at creation.
    seq:
        Sender-assigned sequence number (set by the node on send).
    """

    sender: str
    recipient: str
    payload: Dict[str, Any] = field(default_factory=dict)
    timestamp: float = 0.0
    seq: int = 0

    msg_type: str = "message"

    def encode(self) -> bytes:
        """Canonical byte encoding (:func:`~repro.canonical.canonical_json`)."""
        body = {
            "type": self.msg_type,
            "sender": self.sender,
            "recipient": self.recipient,
            "payload": self.payload,
            "timestamp": self.timestamp,
            "seq": self.seq,
        }
        return canonical_json(body).encode("utf-8")

    @property
    def size_bytes(self) -> int:
        return len(self.encode())

    @staticmethod
    def decode(raw: bytes) -> "Message":
        """Decode bytes back into the appropriate message subclass."""
        body = json.loads(raw.decode("utf-8"))
        cls = _REGISTRY.get(body.get("type", "message"), Message)
        return cls(
            sender=body["sender"],
            recipient=body["recipient"],
            payload=body.get("payload", {}),
            timestamp=body.get("timestamp", 0.0),
            seq=body.get("seq", 0),
        )


@dataclass(frozen=True)
class Telemetry(Message):
    """Periodic machine state: position, speed, phase, load."""

    msg_type: str = "telemetry"


@dataclass(frozen=True)
class Command(Message):
    """An operator/control command (e-stop, resume, goto, speed limit)."""

    msg_type: str = "command"

    @property
    def command(self) -> str:
        return str(self.payload.get("command", ""))


@dataclass(frozen=True)
class Heartbeat(Message):
    """Liveness beacon; loss triggers the comms watchdog."""

    msg_type: str = "heartbeat"


@dataclass(frozen=True)
class DetectionReport(Message):
    """A people-detection report from the drone to the forwarder."""

    msg_type: str = "detection_report"


@dataclass(frozen=True)
class VideoFrame(Message):
    """A (metadata-level) video frame from a camera stream."""

    msg_type: str = "video_frame"


@dataclass(frozen=True)
class Alert(Message):
    """A security or safety alert (IDS, monitor)."""

    msg_type: str = "alert"


_REGISTRY: Dict[str, Type[Message]] = {
    cls.msg_type: cls  # type: ignore[misc]
    for cls in (Message, Telemetry, Command, Heartbeat, DetectionReport, VideoFrame, Alert)
}
