"""Specification-based IDS: protocol conformance checking.

Encodes what the worksite protocols *may* do and alerts on any deviation:

* command messages must originate from nodes holding the operator role;
* per-sender message rates must stay within declared bounds;
* message timestamps must be fresh (skew window) — replayed records that
  somehow pass the channel (e.g. on PLAINTEXT links) violate this;
* application sequence numbers must be strictly increasing per sender.

Exact on modelled protocols, blind to attacks outside the specification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Set

from repro.comms.messages import Message
from repro.comms.network import CommNode
from repro.defense.ids.base import IntrusionDetector
from repro.sim.engine import Simulator
from repro.sim.events import EventLog


@dataclass
class ProtocolSpec:
    """Declared legitimate behaviour of the worksite protocols.

    Attributes
    ----------
    command_senders:
        Node names allowed to send commands.
    max_rate_per_sender_hz:
        Ceiling on per-sender application message rate.
    """

    #: maximum accepted age of a message timestamp, seconds
    max_timestamp_skew_s = 3.0
    #: the closed vocabulary of commands
    allowed_commands = frozenset(
        {"emergency_stop", "resume", "set_speed_limit", "goto"}
    )

    command_senders: Set[str] = field(default_factory=set)
    max_rate_per_sender_hz: float = 20.0


class SpecificationIds(IntrusionDetector):
    """Checks every message a node consumes against the protocol spec."""

    RATE_WINDOW_S = 5.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        node: CommNode,
        spec: ProtocolSpec,
    ) -> None:
        super().__init__(name, sim, log)
        self.node = node
        self.spec = spec
        self._arrivals: Dict[str, Deque[float]] = {}
        self._last_seq: Dict[str, int] = {}
        self.violations = 0
        node.on_message("*", self._check)

    def _check(self, message: Message) -> None:
        now = self.sim.now
        self._check_rate(message, now)
        self._check_freshness(message, now)
        self._check_sequence(message)
        if message.msg_type == "command":
            self._check_command(message)

    def _check_rate(self, message: Message, now: float) -> None:
        window = self._arrivals.setdefault(message.sender, deque())
        window.append(now)
        while window and window[0] < now - self.RATE_WINDOW_S:
            window.popleft()
        rate = len(window) / self.RATE_WINDOW_S
        if rate > self.spec.max_rate_per_sender_hz:
            self.violations += 1
            self.raise_alert(
                "protocol_violation", 0.8,
                check="rate", sender=message.sender, rate_hz=round(rate, 1),
            )
            window.clear()

    def _check_freshness(self, message: Message, now: float) -> None:
        skew = now - message.timestamp
        if abs(skew) > self.spec.max_timestamp_skew_s:
            self.violations += 1
            self.raise_alert(
                "message_replay", 0.85,
                check="freshness", sender=message.sender, skew_s=round(skew, 2),
            )

    def _check_sequence(self, message: Message) -> None:
        last = self._last_seq.get(message.sender)
        if last is not None and message.seq <= last:
            self.violations += 1
            self.raise_alert(
                "message_replay", 0.9,
                check="sequence", sender=message.sender,
                seq=message.seq, last_seq=last,
            )
            return
        self._last_seq[message.sender] = message.seq

    def _check_command(self, message: Message) -> None:
        command = str(message.payload.get("command", ""))
        if message.sender not in self.spec.command_senders:
            self.violations += 1
            self.raise_alert(
                "message_injection", 0.95,
                check="command_sender", sender=message.sender, command=command,
            )
        if command not in self.spec.allowed_commands:
            self.violations += 1
            self.raise_alert(
                "message_injection", 0.9,
                check="command_vocabulary", sender=message.sender, command=command,
            )
