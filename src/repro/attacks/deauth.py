"""Wi-Fi de-authentication flooding.

"Wi-Fi De-Auth attacks to disconnect AHS vehicles from the network,
disrupting operations" (Gaber et al.).  The attacker forges de-auth frames
claiming to come from the victim's peer.  Endpoints with protected
management frames reject the forgeries; unprotected ones disassociate and
must re-associate, losing traffic meanwhile.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack
from repro.comms.link import Frame, FrameType, LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.sim.engine import Process, Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2


class DeauthAttack(Attack):
    """Flood a victim endpoint with forged de-auth frames.

    Parameters
    ----------
    victim:
        Name of the endpoint to disconnect.
    spoofed_peer:
        The peer name the forged frames claim as their source.
    rate_hz:
        Forged frames per second.
    """

    attack_type = "wifi_deauth"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        position: Vec2,
        victim: str,
        spoofed_peer: str,
        *,
        rate_hz: float = 2.0,
    ) -> None:
        super().__init__(name, sim, log)
        self.medium = medium
        self.position = position
        self.victim = victim
        self.spoofed_peer = spoofed_peer
        self.rate_hz = rate_hz
        self._endpoint: Optional[LinkEndpoint] = None
        self._process: Optional[Process] = None
        self._seq = 100_000  # attacker-chosen link sequence space

    def _on_start(self) -> None:
        if self._endpoint is None:
            from repro.attacks.network_attacks import _RadioAttack

            self._endpoint = LinkEndpoint(
                f"{self.name}.radio",
                lambda: self.position,
                self.medium,
                self.sim,
                self.log,
                radio=_RadioAttack.ATTACKER_RADIO,
            )
        self._process = self.sim.every(1.0 / self.rate_hz, self._forge)

    def _forge(self) -> None:
        assert self._endpoint is not None
        self._seq += 1
        frame = Frame(
            src=self.spoofed_peer,
            dst=self.victim,
            frame_type=FrameType.DEAUTH,
            seq=self._seq,
            auth_tag=b"",  # the forger has no management key
        )
        self.medium.transmit(self._endpoint, frame, b"\x00" * 26)

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
