"""Network message attacks: injection, replay, tampering.

These are the attacks the secure channel exists to stop.  "Security breaches
such as hacking could result in unauthorized machine operations" (Section
III): the injection attack's payload is exactly that — a forged *resume* or
*goto* command to the forwarder.  Against PLAINTEXT links they succeed;
against INTEGRITY/AEAD links the records fail to open.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.attacks.base import Attack
from repro.comms.link import Frame, FrameType, LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.comms.radio import RadioConfig
from repro.comms.messages import Command
from repro.comms.network import encode_record
from repro.comms.crypto.secure_channel import Record
from repro.sim.engine import Process, Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2


class _RadioAttack(Attack):
    """Shared plumbing: an attacker-controlled link endpoint.

    Attacker radios default to a high-EIRP directional setup (amplifier +
    yagi towards the site) — the standard kit for radio attacks at standoff
    distance, and the reason perimeter attacks work through foliage that
    marginalises stock machine radios.
    """

    ATTACKER_RADIO = RadioConfig(tx_power_dbm=36.0, antenna_gain_db=8.0)

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        position: Vec2,
    ) -> None:
        super().__init__(name, sim, log)
        self.medium = medium
        self.position = position
        self._endpoint: Optional[LinkEndpoint] = None
        self._link_seq = 500_000

    def _radio(self) -> LinkEndpoint:
        if self._endpoint is None:
            self._endpoint = LinkEndpoint(
                f"{self.name}.radio",
                lambda: self.position,
                self.medium,
                self.sim,
                self.log,
                radio=self.ATTACKER_RADIO,
            )
        return self._endpoint

    def _send_raw(self, claimed_src: str, dst: str, wire: bytes) -> None:
        self._link_seq += 1
        frame = Frame(
            src=claimed_src, dst=dst, frame_type=FrameType.DATA, seq=self._link_seq
        )
        self.medium.transmit(self._radio(), frame, wire)


class MessageInjectionAttack(_RadioAttack):
    """Inject forged application messages claiming to come from ``spoofed``.

    Parameters
    ----------
    victim:
        Destination node name.
    spoofed:
        Claimed sender (e.g. the control station).
    command:
        The unauthorised command to inject.
    rate_hz:
        Injection attempts per second.
    """

    attack_type = "message_injection"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        position: Vec2,
        victim: str,
        spoofed: str,
        *,
        command: str = "resume",
        rate_hz: float = 1.0,
    ) -> None:
        super().__init__(name, sim, log, medium, position)
        self.victim = victim
        self.spoofed = spoofed
        self.command = command
        self.rate_hz = rate_hz
        self.injected = 0
        self._app_seq = 900_000
        self._process: Optional[Process] = None

    def _on_start(self) -> None:
        self._process = self.sim.every(1.0 / self.rate_hz, self._inject)

    def _inject(self) -> None:
        self._app_seq += 1
        message = Command(
            sender=self.spoofed,
            recipient=self.victim,
            payload={"command": self.command},
            timestamp=self.sim.now,
            seq=self._app_seq,
        )
        wire = encode_record(
            Record(seq=self._app_seq, body=message.encode(), profile="plaintext")
        )
        self._send_raw(self.spoofed, self.victim, wire)
        self.injected += 1

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None


class ReplayAttack(_RadioAttack):
    """Capture protected records off the air and replay them later.

    The attacker cannot read AEAD records but can re-send them verbatim;
    replay-window enforcement in the channel is the defence under test.
    """

    attack_type = "message_replay"

    capture_limit = 200

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        position: Vec2,
        victim: str,
        *,
        replay_delay_s: float = 5.0,
    ) -> None:
        super().__init__(name, sim, log, medium, position)
        self.victim = victim
        self.replay_delay_s = replay_delay_s
        self.captured: List[Tuple[str, bytes]] = []
        self.replayed = 0
        self._capturing = False

    def _on_start(self) -> None:
        if not self._capturing:
            self.medium.add_eavesdropper(self._capture)
            self._capturing = True
        self.sim.schedule(self.replay_delay_s, self._replay_all)

    def _capture(self, frame: Frame, raw: bytes) -> None:
        if not self.active:
            return
        if frame.dst == self.victim and frame.frame_type is FrameType.DATA:
            if len(self.captured) < self.capture_limit:
                self.captured.append((frame.src, raw))

    def _replay_all(self) -> None:
        if not self.active:
            return
        for src, raw in self.captured:
            self._send_raw(src, self.victim, raw)
            self.replayed += 1
        self.sim.schedule(self.replay_delay_s, self._replay_all)

    def _on_stop(self) -> None:
        pass  # eavesdropper stays registered but _capture checks self.active


class TamperingAttack(_RadioAttack):
    """Man-in-the-middle bit-flipping of captured records.

    Captured records destined for the victim are re-sent with flipped payload
    bits.  Against INTEGRITY/AEAD profiles the tag check fails; against
    PLAINTEXT the corrupted (attacker-chosen) payload is consumed.
    """

    attack_type = "message_tampering"

    #: the byte of a captured record that is flipped (in the MAC tag)
    flip_byte = -8
    #: records tampered with before the attack falls silent
    rate_limit = 500

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        position: Vec2,
        victim: str,
    ) -> None:
        super().__init__(name, sim, log, medium, position)
        self.victim = victim
        self.tampered = 0
        self._registered = False

    def _on_start(self) -> None:
        if not self._registered:
            self.medium.add_eavesdropper(self._intercept)
            self._registered = True

    def _intercept(self, frame: Frame, raw: bytes) -> None:
        if not self.active or self.tampered >= self.rate_limit:
            return
        if frame.dst != self.victim or frame.frame_type is not FrameType.DATA:
            return
        if frame.src.startswith(self.name):
            return  # do not re-intercept our own transmissions
        if len(raw) < 12:
            return
        mutated = bytearray(raw)
        mutated[self.flip_byte] ^= 0x41
        self.tampered += 1
        # schedule so the forged copy arrives after the original
        self.sim.schedule(
            0.001, lambda s=frame.src, m=bytes(mutated): self._send_raw(s, self.victim, m)
        )

    def _on_stop(self) -> None:
        pass
