"""Frequency agility: coordinated channel hopping under interference.

Gaber et al. (Section IV-C) name "channel utilization to maximize the
efficiency of the used channels" and jamming as the AHS communication
problems.  The agility manager is the classic response: it watches the
frame-loss rate of the protected endpoints, and when losses spike it moves
the whole network to the cleanest alternative channel.  A fixed-frequency
(narrowband) jammer loses its grip after one hop; a broadband jammer does
not — which is exactly the residual-risk statement the countermeasure
catalog encodes for ``channel_agility``.

Channel selection probes each candidate's current interference level at a
reference position (the control station's receiver), modelling a spectrum
scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.comms.link import LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.comms.radio import RadioConfig
from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog


@dataclass
class HopRecord:
    """One executed channel hop."""

    time: float
    from_channel: int
    to_channel: int
    loss_rate: float


class ChannelAgilityManager:
    """Coordinated channel hopping for a set of endpoints.

    Parameters
    ----------
    endpoints:
        The endpoints moved together (all worksite radios — a split network
        cannot communicate).
    loss_threshold:
        Frame-loss rate (losses per second across the network) that triggers
        a hop evaluation.
    min_dwell_s:
        Minimum time between hops (hop thrash guard).
    """

    #: the allowed channel set (the three non-overlapping 2.4 GHz channels)
    channels = (1, 6, 11)
    #: seconds between loss-rate evaluations
    interval_s = 2.0

    def __init__(
        self,
        medium: WirelessMedium,
        endpoints: Sequence[LinkEndpoint],
        sim: Simulator,
        log: EventLog,
        *,
        loss_threshold: float = 3.0,
        min_dwell_s: float = 10.0,
    ) -> None:
        if not endpoints:
            raise ValueError("agility needs at least one endpoint")
        self.medium = medium
        self.endpoints = list(endpoints)
        self.sim = sim
        self.log = log
        self.loss_threshold = loss_threshold
        self.min_dwell_s = min_dwell_s
        self.hops: List[HopRecord] = []
        self._last_losses = medium.frames_lost
        self._last_hop_at = -math.inf
        sim.every(self.interval_s, self._evaluate)

    @property
    def current_channel(self) -> int:
        return self.endpoints[0].radio.channel

    def _loss_rate(self) -> float:
        current = self.medium.frames_lost
        rate = (current - self._last_losses) / self.interval_s
        self._last_losses = current
        return rate

    def _probe_channel(self, channel: int) -> float:
        """Interference level (dBm) on ``channel`` at the reference receiver."""
        reference = self.endpoints[0].position
        return self.medium.interference_at(reference, channel, self.sim.now)

    def _evaluate(self) -> None:
        rate = self._loss_rate()
        if rate < self.loss_threshold:
            return
        if self.sim.now - self._last_hop_at < self.min_dwell_s:
            return
        current = self.current_channel
        candidates = [c for c in self.channels if c != current]
        if not candidates:
            return
        best = min(candidates, key=self._probe_channel)
        # only hop when the best candidate is actually cleaner
        if self._probe_channel(best) >= self._probe_channel(current) - 3.0:
            return
        self._hop(best, rate)

    def _hop(self, channel: int, loss_rate: float) -> None:
        previous = self.current_channel
        for endpoint in self.endpoints:
            endpoint.radio = RadioConfig(
                tx_power_dbm=endpoint.radio.tx_power_dbm,
                channel=channel,
                bitrate_bps=endpoint.radio.bitrate_bps,
                antenna_gain_db=endpoint.radio.antenna_gain_db,
            )
        self._last_hop_at = self.sim.now
        self.hops.append(HopRecord(
            time=self.sim.now, from_channel=previous, to_channel=channel,
            loss_rate=loss_rate,
        ))
        self.log.emit(
            self.sim.now, EventCategory.DEFENSE, "channel_hop", "agility",
            from_channel=previous, to_channel=channel,
            loss_rate=round(loss_rate, 2),
        )
