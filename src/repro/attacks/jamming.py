"""RF jamming: broadband or channel-targeted noise injection.

"Signal jamming where attackers attempt to disrupt the communication by
sending strong signals and noise" (Gaber et al., quoted in Section IV-C).
The attack registers a :class:`~repro.comms.medium.Jammer` on the medium;
every frame's SNR then degrades with the jammer's received power at the
victim.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack
from repro.comms.medium import Jammer, WirelessMedium
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2


class JammingAttack(Attack):
    """Jam the worksite radio channel from a fixed position.

    Parameters
    ----------
    medium:
        The medium to attack.
    position:
        Jammer location.
    power_dbm:
        Radiated power (30 dBm ≈ 1 W portable jammer).
    channel:
        Target channel; None for broadband.
    """

    attack_type = "rf_jamming"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        position: Vec2,
        *,
        power_dbm: float = 30.0,
        channel: Optional[int] = None,
    ) -> None:
        super().__init__(name, sim, log)
        self.medium = medium
        self.position = position
        self.power_dbm = power_dbm
        self.channel = channel
        self._jammer: Optional[Jammer] = None

    def _on_start(self) -> None:
        self._jammer = Jammer(
            name=self.name,
            position_fn=lambda: self.position,
            power_dbm=self.power_dbm,
            channel=self.channel,
        )
        self.medium.add_jammer(self._jammer)

    def _on_stop(self) -> None:
        if self._jammer is not None:
            self.medium.remove_jammer(self._jammer)
            self._jammer = None
