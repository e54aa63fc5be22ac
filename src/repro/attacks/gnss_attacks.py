"""GNSS jamming and spoofing.

"GNSS attacks to spoof or jam GNSS signals, causing inaccurate navigation by
AHS vehicles" (Gaber et al.).  Jamming raises the receiver's noise floor with
distance-dependent power; spoofing walks the victim's reported position away
from truth along an attacker-chosen drift vector — the classic "slow drag"
that evades naive plausibility checks if the drift rate is low.
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.base import Attack
from repro.comms.radio import received_power_dbm
from repro.sensors.gnss import GnssReceiver
from repro.sim.engine import Process, Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2


class GnssJammingAttack(Attack):
    """Raise the GNSS noise floor at the victims' receivers.

    Parameters
    ----------
    receivers:
        Receivers in range of the jammer.
    power_dbm:
        Jammer transmit power; the effective carrier-to-noise suppression at
        each receiver falls with distance.
    """

    attack_type = "gnss_jamming"

    update_s = 1.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        position: Vec2,
        receivers: List[GnssReceiver],
        *,
        power_dbm: float = 33.0,
    ) -> None:
        super().__init__(name, sim, log)
        self.position = position
        self.receivers = receivers
        self.power_dbm = power_dbm
        self._process: Optional[Process] = None

    def _suppression_db(self, receiver: GnssReceiver) -> float:
        distance = self.position.distance_to(receiver.carrier.position)
        # jammer-to-signal ratio: received jam power above the GNSS noise floor
        jam_rx = received_power_dbm(self.power_dbm, distance, antenna_gain_db=0.0)
        return max(0.0, jam_rx + 120.0)  # GNSS signals sit near -130 dBm

    def _on_start(self) -> None:
        self._apply()
        self._process = self.sim.every(self.update_s, self._apply)

    def _apply(self) -> None:
        for receiver in self.receivers:
            receiver.jammer_power_db = self._suppression_db(receiver)

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
        for receiver in self.receivers:
            receiver.jammer_power_db = 0.0


class GnssSpoofingAttack(Attack):
    """Drag the victim's reported position along a drift vector.

    Parameters
    ----------
    receiver:
        The victim receiver.
    drift_per_s:
        Offset growth per second (slow drag evades naive innovation checks).
    max_offset_m:
        Offset magnitude at which the drag stops growing.
    """

    attack_type = "gnss_spoofing"

    update_s = 1.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        receiver: GnssReceiver,
        *,
        drift_per_s: Vec2 = Vec2(0.5, 0.0),
        max_offset_m: float = 60.0,
    ) -> None:
        super().__init__(name, sim, log)
        self.receiver = receiver
        self.drift_per_s = drift_per_s
        self.max_offset_m = max_offset_m
        self._offset = Vec2(0.0, 0.0)
        self._process: Optional[Process] = None

    def _on_start(self) -> None:
        self._offset = Vec2(0.0, 0.0)
        self.receiver.spoof_offset = self._offset
        self._process = self.sim.every(self.update_s, self._drag)

    def _drag(self) -> None:
        candidate = self._offset + self.drift_per_s * self.update_s
        if candidate.norm() <= self.max_offset_m:
            self._offset = candidate
        self.receiver.spoof_offset = self._offset

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
        self.receiver.spoof_offset = None
        self._offset = Vec2(0.0, 0.0)
