"""The signed ground-station message codec.

One wire format for everything on the plane: a canonical JSON body
(:func:`repro.canonical.canonical_json`, the encoding trace lines and
audit entries use) followed by a 32-byte HMAC-SHA256 tag over a
domain-separated digest of the body.  The canonical encoding makes the
codec bijective on its message space: ``encode(decode(wire)) == wire`` for
every accepted wire, and any single-byte corruption — in the body or the
tag — is rejected (the property tier pins both).

Verification is deliberately receiver-side: the bus routes wires blindly
(an MQTT broker is not a trust anchor), every subscriber checks the
signature against the key of the *claimed* sender and runs its own replay
window, mirroring the SecureChannel discipline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.canonical import canonical_json
from repro.comms.crypto.primitives import constant_time_equal, hmac_sha256

#: domain separator for message signatures (never shared with the channel
#: layer or the audit chain, so signatures cannot be confused across uses)
SIG_DOMAIN = b"repro-gs-msg:v1:"

#: HMAC-SHA256 tag length appended to the canonical body
SIG_BYTES = 32

#: operator command verbs the vehicles execute
COMMANDS: Tuple[str, ...] = ("start", "pause", "safe_stop", "rejoin")

#: message kinds beyond commands that ride the alert topics
ALERT_KINDS: Tuple[str, ...] = ("status", "detection", "safety", "ids")


class GsCodecError(ValueError):
    """A wire failed to parse, verify, or round-trip canonically."""


@dataclass(frozen=True)
class GsMessage:
    """One signed plane message.

    ``payload`` is stored as a sorted tuple of ``(key, value)`` pairs so
    messages stay hashable and frozen; :meth:`payload_dict` gives the
    mapping view.  ``t`` is the sender's simulated time, rounded to the
    trace precision (6 decimals) so encoding is stable.
    """

    topic: str
    sender: str
    counter: int
    t: float
    kind: str
    payload: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(
        topic: str,
        sender: str,
        counter: int,
        t: float,
        kind: str,
        payload: Optional[Mapping[str, object]] = None,
    ) -> "GsMessage":
        return GsMessage(
            topic=str(topic),
            sender=str(sender),
            counter=int(counter),
            t=round(float(t), 6),
            kind=str(kind),
            payload=tuple(sorted((dict(payload or {})).items())),
        )

    def payload_dict(self) -> dict:
        return {key: value for key, value in self.payload}


def _body_bytes(message: GsMessage) -> bytes:
    body = {
        "counter": message.counter,
        "kind": message.kind,
        "payload": message.payload_dict(),
        "sender": message.sender,
        "t": message.t,
        "topic": message.topic,
    }
    return canonical_json(body).encode("utf-8")


def sign(body: bytes, key: bytes) -> bytes:
    """The 32-byte tag over a domain-separated body."""
    return hmac_sha256(key, SIG_DOMAIN + body)


def encode(message: GsMessage, key: bytes) -> bytes:
    """Canonical body + tag; a pure function of (message, key)."""
    body = _body_bytes(message)
    return body + sign(body, key)


def _parse_body(body: bytes) -> GsMessage:
    try:
        fields = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GsCodecError(f"body is not valid JSON: {exc}") from None
    if not isinstance(fields, dict):
        raise GsCodecError("body is not a JSON object")
    missing = {"topic", "sender", "counter", "t", "kind", "payload"} - set(fields)
    if missing:
        raise GsCodecError(f"body missing fields {sorted(missing)}")
    if not isinstance(fields["counter"], int) or isinstance(fields["counter"], bool):
        raise GsCodecError("counter must be an integer")
    if fields["counter"] < 0:
        raise GsCodecError("counter must be non-negative")
    if not isinstance(fields["t"], (int, float)) or isinstance(fields["t"], bool):
        raise GsCodecError("t must be a number")
    if not isinstance(fields["payload"], dict):
        raise GsCodecError("payload must be an object")
    for name in ("topic", "sender", "kind"):
        if not isinstance(fields[name], str) or not fields[name]:
            raise GsCodecError(f"{name} must be a non-empty string")
    message = GsMessage.make(
        fields["topic"], fields["sender"], fields["counter"],
        fields["t"], fields["kind"], fields["payload"],
    )
    # canonicality: re-encoding must reproduce the body byte for byte, so
    # two distinct wires can never verify as the same message (and the
    # round-trip property encode(decode(w)) == w holds for accepted wires)
    if _body_bytes(message) != body:
        raise GsCodecError("body is not in canonical encoding")
    return message


def decode(wire: bytes, key: bytes) -> GsMessage:
    """Verify and parse one wire; raises :class:`GsCodecError` on anything.

    The tag is checked *before* the body is parsed (constant-time compare),
    so a forged wire never reaches the JSON layer with a bad signature.
    """
    if not isinstance(wire, (bytes, bytearray)):
        raise GsCodecError("wire must be bytes")
    if len(wire) <= SIG_BYTES:
        raise GsCodecError("wire shorter than a signature")
    body, tag = bytes(wire[:-SIG_BYTES]), bytes(wire[-SIG_BYTES:])
    if not constant_time_equal(sign(body, key), tag):
        raise GsCodecError("signature verification failed")
    return _parse_body(body)


def decode_unverified(wire: bytes) -> GsMessage:
    """Parse a wire without checking its tag (audit/attack tooling only)."""
    if not isinstance(wire, (bytes, bytearray)) or len(wire) <= SIG_BYTES:
        raise GsCodecError("wire shorter than a signature")
    return _parse_body(bytes(wire[:-SIG_BYTES]))
