"""GNSS plausibility monitoring.

Ren et al.'s defence for GNSS attacks — "checking the signals characters,
e.g., strength" — plus the standard receiver-autonomous checks:

* **C/N0 power check** — spoofers typically overpower the authentic signal;
  a C/N0 above the physically plausible ceiling is suspicious, as is a sudden
  drop (jamming).
* **Innovation check** — the jump between consecutive fixes must be
  consistent with the vehicle's commanded speed.
* **Dead-reckoning cross-check** — the fix is compared with odometry-
  propagated position; sustained divergence flags a slow-drag spoof.

Raises alerts through the standard IDS interface so the manager can fuse
them with network detectors.
"""

from __future__ import annotations

from typing import Optional

from repro.defense.ids.base import IntrusionDetector
from repro.sensors.gnss import GnssFix, GnssReceiver
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2


class GnssPlausibilityMonitor(IntrusionDetector):
    """Receiver-side plausibility checks on the GNSS fix stream.

    Parameters
    ----------
    receiver:
        The monitored receiver.
    """

    #: seconds between checks of the fix stream
    interval_s = 1.0
    #: physically plausible C/N0 ceiling; above ⇒ likely spoof
    max_cn0_dbhz = 49.0
    #: floor below which signal loss is flagged (jamming hypothesis)
    min_cn0_dbhz = 30.0
    #: allowed fix-to-fix jump beyond commanded motion, metres
    innovation_margin = 5.0
    #: dead-reckoning divergence that flags a slow drag, metres
    dr_divergence_m = 8.0
    #: per-update leak factor pulling dead reckoning towards the fix
    #: (models odometry drift correction; a perfect DR would make slow
    #: drags trivially visible, a leaky one is the honest case)
    dr_leak = 0.02
    #: consecutive implausible checks before alerting
    persistence = 3

    def __init__(
        self, name: str, sim: Simulator, log: EventLog, receiver: GnssReceiver
    ) -> None:
        super().__init__(name, sim, log)
        self.receiver = receiver
        self._last_fix: Optional[GnssFix] = None
        self._dr_position: Optional[Vec2] = None
        self._cn0_high = 0
        self._cn0_low = 0
        self._dr_diverged = 0
        sim.every(self.interval_s, self._check)

    def _check(self) -> None:
        fix = self.receiver.fix(self.sim.now)
        carrier = self.receiver.carrier
        # propagate dead reckoning from commanded kinematics, leaking to fix
        if self._dr_position is None:
            self._dr_position = carrier.position
        else:
            step = Vec2.from_polar(
                carrier.state.speed * self.interval_s, carrier.state.heading
            )
            self._dr_position = self._dr_position + step
            if fix.valid:
                self._dr_position = self._dr_position.lerp(fix.position, self.dr_leak)

        if not fix.valid or fix.cn0_dbhz < self.min_cn0_dbhz:
            self._cn0_low += 1
            if self._cn0_low >= self.persistence:
                self.raise_alert(
                    "gnss_jamming", 0.9, cn0=round(fix.cn0_dbhz, 1), valid=fix.valid
                )
                self._cn0_low = 0
        else:
            self._cn0_low = 0

        if fix.valid and fix.cn0_dbhz > self.max_cn0_dbhz:
            self._cn0_high += 1
            if self._cn0_high >= self.persistence:
                self.raise_alert("gnss_spoofing", 0.85, cn0=round(fix.cn0_dbhz, 1))
                self._cn0_high = 0
        else:
            self._cn0_high = 0

        if fix.valid and self._last_fix is not None and self._last_fix.valid:
            dt = fix.time - self._last_fix.time
            jump = fix.position.distance_to(self._last_fix.position)
            allowed = carrier.max_speed * dt + self.innovation_margin
            if jump > allowed:
                self.raise_alert(
                    "gnss_spoofing", 0.9, check="innovation",
                    jump_m=round(jump, 1), allowed_m=round(allowed, 1),
                )

        if fix.valid and self._dr_position is not None:
            divergence = fix.position.distance_to(self._dr_position)
            if divergence > self.dr_divergence_m:
                self._dr_diverged += 1
                if self._dr_diverged >= self.persistence:
                    self.raise_alert(
                        "gnss_spoofing", 0.8, check="dead_reckoning",
                        divergence_m=round(divergence, 1),
                    )
                    self._dr_diverged = 0
            else:
                self._dr_diverged = 0

        self._last_fix = fix
