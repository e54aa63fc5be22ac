"""Runtime safety functions: protective stop and speed limiter.

Both are built by the collaborative people-detection function
(:mod:`repro.safety.people_detection`).  The protective stop follows the
demand/response pattern: a monitored condition creates a *demand*; the
function commands the machine into its safe state and records response
latency.  The geofence of the hazard catalog is a design-time function
only: the worksite's forwarder steers by its true position, so no run
could show a believed position leaving its zone.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.forwarder import Forwarder


class ProtectiveStop:
    """Protective stop on confirmed person proximity.

    Parameters
    ----------
    forwarder:
        The machine under control.
    stop_distance_m:
        Separation at/below which a confirmed person track demands a stop.
    clear_distance_m:
        Separation above which the stop clears (hysteresis).
    """

    REASON = "protective_stop"

    def __init__(
        self,
        forwarder: Forwarder,
        sim: Simulator,
        log: EventLog,
        *,
        stop_distance_m: float = 10.0,
        clear_distance_m: float = 15.0,
    ) -> None:
        self.forwarder = forwarder
        self.sim = sim
        self.log = log
        self.stop_distance_m = stop_distance_m
        self.clear_distance_m = clear_distance_m
        self.engaged = False
        self.response_latencies: List[float] = []

    def evaluate(self, nearest_confirmed_m: Optional[float]) -> None:
        """Evaluate against the nearest confirmed person track distance."""
        if nearest_confirmed_m is not None and nearest_confirmed_m <= self.stop_distance_m:
            if not self.engaged:
                self.engaged = True
                self.forwarder.safe_stop(self.REASON)
                self.response_latencies.append(0.0)  # stop command is immediate
        elif self.engaged and (
            nearest_confirmed_m is None or nearest_confirmed_m >= self.clear_distance_m
        ):
            self.engaged = False
            self.forwarder.clear_safe_stop(self.REASON)


class SpeedLimiter:
    """Context-dependent speed limitation (degraded-mode operation).

    Confidence in the people-detection function (drone available, sensors
    healthy) selects the allowed speed tier.  This is the paper's
    fail-operational alternative to stopping outright when assurance drops.
    """

    def __init__(
        self,
        forwarder: Forwarder,
        sim: Simulator,
        log: EventLog,
        *,
        degraded_speed: float = 1.0,
        crawl_speed: float = 0.4,
    ) -> None:
        self.forwarder = forwarder
        self.sim = sim
        self.log = log
        self.degraded_speed = degraded_speed
        self.crawl_speed = crawl_speed
        self.tier = "full"
        self.transitions = 0

    def set_assurance(self, level: str) -> None:
        """Set the current assurance level: 'full', 'degraded' or 'minimal'."""
        mapping = {
            "full": ("full", None),
            "degraded": ("degraded", self.degraded_speed),
            "minimal": ("minimal", self.crawl_speed),
        }
        if level not in mapping:
            raise ValueError(f"unknown assurance level {level!r}")
        tier, limit = mapping[level]
        if tier == self.tier:
            return
        self.tier = tier
        self.transitions += 1
        self.forwarder.set_speed_limit(limit)
