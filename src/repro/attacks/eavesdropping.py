"""Passive eavesdropping on the worksite radio.

Table I, "Confidentiality of Operations": "operations in the forestry
domain are confidential.  Cybersecurity measures should ensure that the
operations and corresponding communications are done in a confidential
manner."  Also Gaber et al.'s camera attacks "to steal video footage".

The eavesdropper captures every frame on the air and tries to read it: a
record that parses as plaintext leaks its message content; INTEGRITY-profile
records leak content too (authenticated but not encrypted); AEAD records
are opaque.  The attack's disclosure metrics quantify what the
``data_encryption`` countermeasure buys.
"""

from __future__ import annotations

from typing import Dict

from repro.attacks.base import Attack
from repro.comms.link import Frame, FrameType
from repro.comms.medium import WirelessMedium
from repro.comms.messages import Message
from repro.comms.network import decode_record
from repro.comms.crypto.secure_channel import ChannelError
from repro.sim.engine import Simulator
from repro.sim.events import EventLog


class EavesdroppingAttack(Attack):
    """Capture and classify all frames on the medium.

    Attributes after a run
    ----------------------
    frames_observed:
        Total data frames captured.
    messages_disclosed:
        Frames whose application message content was readable.
    disclosed_types:
        Histogram of disclosed message types (what leaked).
    positions_tracked:
        Count of telemetry positions recovered — the operational-tracking
        capability the paper's confidentiality concern is about.
    """

    attack_type = "eavesdropping"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
    ) -> None:
        super().__init__(name, sim, log)
        self.medium = medium
        self.frames_observed = 0
        self.messages_disclosed = 0
        self.disclosed_types: Dict[str, int] = {}
        self.positions_tracked = 0
        self._registered = False

    def _on_start(self) -> None:
        if not self._registered:
            self.medium.add_eavesdropper(self._capture)
            self._registered = True

    def _capture(self, frame: Frame, raw: bytes) -> None:
        if not self.active or frame.frame_type is not FrameType.DATA:
            return
        self.frames_observed += 1
        try:
            record = decode_record(raw)
        except ChannelError:
            return
        if record.profile == "aead":
            return
        body = record.body
        if record.profile == "integrity" and len(body) > 32:
            body = body[:-32]  # strip the tag; content is in the clear
        try:
            message = Message.decode(body)
        except Exception:
            return
        self.messages_disclosed += 1
        self.disclosed_types[message.msg_type] = (
            self.disclosed_types.get(message.msg_type, 0) + 1
        )
        if message.msg_type == "telemetry" and "x" in message.payload:
            self.positions_tracked += 1

    @property
    def disclosure_ratio(self) -> float:
        if self.frames_observed == 0:
            return 0.0
        return self.messages_disclosed / self.frames_observed
