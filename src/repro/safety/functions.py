"""Runtime safety functions: protective stop, geofence, speed limiter.

Each function follows the same demand/response pattern: a monitored
condition creates a *demand*; the function commands the machine into its
safe state and records response latency.  Demand and failure counts feed the
diagnostic-coverage estimates of the ISO 13849 evaluation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.sim.forwarder import Forwarder
from repro.sim.geometry import Vec2
from repro.sim.world import Zone


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
        self.demands = 0
        self.response_latencies: List[float] = []
        self._demand_time: Optional[float] = None

    def evaluate(self, nearest_confirmed_m: Optional[float]) -> None:
        """Evaluate against the nearest confirmed person track distance."""
        if nearest_confirmed_m is not None and nearest_confirmed_m <= self.stop_distance_m:
            if not self.engaged:
                self.engaged = True
                self.demands += 1
                self._demand_time = self.sim.now
                self.forwarder.safe_stop(self.REASON)
                self.response_latencies.append(0.0)  # stop command is immediate
        elif self.engaged and (
            nearest_confirmed_m is None or nearest_confirmed_m >= self.clear_distance_m
        ):
            self.engaged = False
            self.forwarder.clear_safe_stop(self.REASON)


class Geofence:
    """Keeps the machine inside its permitted operational zones.

    A machine position outside every permitted zone demands a safe stop —
    also the backstop against GNSS spoofing walking the machine off-route
    (with spoofing, the *believed* position stays in-zone while the true one
    leaves; the geofence evaluated on believed position therefore misses it,
    which is exactly the interplay the combined assessment must catch).
    """

    REASON = "geofence"

    def __init__(
        self,
        forwarder: Forwarder,
        zones: List[Zone],
        sim: Simulator,
        log: EventLog,
        *,
        margin_m: float = 5.0,
    ) -> None:
        if not zones:
            raise ValueError("geofence needs at least one permitted zone")
        self.forwarder = forwarder
        self.zones = list(zones)
        self.sim = sim
        self.log = log
        self.margin_m = margin_m
        self.engaged = False
        self.breaches = 0

    def _inside(self, p: Vec2) -> bool:
        expanded = Vec2(self.margin_m, self.margin_m)
        for zone in self.zones:
            if (
                zone.min_corner.x - self.margin_m <= p.x <= zone.max_corner.x + self.margin_m
                and zone.min_corner.y - self.margin_m <= p.y <= zone.max_corner.y + self.margin_m
            ):
                return True
        return False

    def evaluate(self, believed_position: Optional[Vec2] = None) -> None:
        """Check the believed (or true) position against the permitted zones."""
        position = believed_position if believed_position is not None else self.forwarder.position
        if not self._inside(position):
            if not self.engaged:
                self.engaged = True
                self.breaches += 1
                self.forwarder.safe_stop(self.REASON)
                self.log.emit(
                    self.sim.now, EventCategory.SAFETY, "geofence_breach",
                    self.forwarder.name,
                    x=round(position.x, 1), y=round(position.y, 1),
                )
        elif self.engaged:
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
