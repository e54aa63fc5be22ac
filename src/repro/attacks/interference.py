"""Frequency interference: a co-channel legitimate-looking transmitter.

"Frequency interference when two devices send signals with similar
frequencies to the same receiver" (Gaber et al.).  Unlike a jammer this is
not malicious noise but a competing transmitter — lower power, bursty, and
plausibly benign, which makes it the hard case for anomaly detection.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack
from repro.comms.medium import Jammer, WirelessMedium
from repro.sim.engine import Process, Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams


class InterferenceSource(Attack):
    """A bursty co-channel transmitter degrading the victim channel.

    Parameters
    ----------
    duty_cycle:
        Fraction of time the source transmits (bursts of ``burst_s``).
    """

    attack_type = "frequency_interference"

    channel = 1
    #: transmit power (typically ≤ legitimate radios, unlike a jammer)
    power_dbm = 17.0
    burst_s = 0.5

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        streams: RngStreams,
        position: Vec2,
        *,
        duty_cycle: float = 0.4,
    ) -> None:
        super().__init__(name, sim, log)
        self.medium = medium
        self._rng = streams.stream(f"interference.{name}")
        self.position = position
        self.duty_cycle = duty_cycle
        self._transmitting = False
        self._jammer: Optional[Jammer] = None
        self._process: Optional[Process] = None

    def _on_start(self) -> None:
        self._jammer = Jammer(
            name=self.name,
            position_fn=lambda: self.position,
            power_dbm=self.power_dbm,
            channel=self.channel,
            active_fn=lambda: self._transmitting,
        )
        self.medium.add_jammer(self._jammer)
        self._process = self.sim.every(self.burst_s, self._toggle)

    def _toggle(self) -> None:
        self._transmitting = self._rng.random() < self.duty_cycle

    def _on_stop(self) -> None:
        if self._jammer is not None:
            self.medium.remove_jammer(self._jammer)
            self._jammer = None
        if self._process is not None:
            self._process.stop()
            self._process = None
        self._transmitting = False
