"""The observation drone: the collaborative viewpoint of Figure 2.

The drone tracks the forwarder from altitude, giving its camera a viewpoint
that clears terrain ridges and most canopy.  It has a battery model with a
return-to-home behaviour; when the drone is unavailable the collaborative
people-detection safety function degrades (exactly the availability concern
the paper's SoS discussion raises).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2


class DroneMode(enum.Enum):
    """Operating mode of the drone."""

    TRACKING = "tracking"
    ORBITING = "orbiting"
    RETURNING = "returning"
    CHARGING = "charging"
    GROUNDED = "grounded"


class Drone(Entity):
    """Quad-rotor observation drone.

    Parameters
    ----------
    home:
        Launch/charge position.
    target:
        Entity to track (normally the forwarder); None orbits ``home``.
    altitude:
        Operating altitude above terrain in metres.
    battery_capacity_s:
        Flight endurance at nominal draw, in seconds.
    """

    body_height = 0.3

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        home: Vec2,
        *,
        target: Optional[Entity] = None,
        altitude: float = 40.0,
        orbit_radius: float = 15.0,
        battery_capacity_s: float = 1800.0,
        recharge_time_s: float = 900.0,
    ) -> None:
        super().__init__(name, sim, log, home, max_speed=8.0, max_accel=3.0)
        self.home = home
        self.target = target
        self.state.altitude = altitude
        self.operating_altitude = altitude
        self.orbit_radius = orbit_radius
        self.battery_capacity_s = battery_capacity_s
        self.battery_s = battery_capacity_s
        self.recharge_time_s = recharge_time_s
        self.mode = DroneMode.TRACKING if target is not None else DroneMode.ORBITING
        self._orbit_phase = 0.0
        self.airborne_time = 0.0

    @property
    def airborne(self) -> bool:
        return self.mode in (DroneMode.TRACKING, DroneMode.ORBITING, DroneMode.RETURNING)

    @property
    def battery_fraction(self) -> float:
        return max(0.0, self.battery_s / self.battery_capacity_s)

    def on_tick(self) -> None:
        if self.mode in (DroneMode.CHARGING, DroneMode.GROUNDED):
            return
        self.airborne_time += self.tick_s
        self._drain_battery()
        if self.mode is DroneMode.RETURNING:
            self._fly_towards(self.home)
            if self.position.distance_to(self.home) < 2.0:
                self._land()
            return
        # low-battery reserve: enough to fly home plus 20 %
        reserve = 1.2 * self.position.distance_to(self.home) / self.max_speed
        if self.battery_s <= max(60.0, reserve):
            self.mode = DroneMode.RETURNING
            self.emit(EventCategory.MISSION, "drone_returning",
                      battery_fraction=self.battery_fraction)
            return
        anchor = self.target.position if self.target is not None else self.home
        self._orbit_phase += (self.tick_s * 1.2) / max(self.orbit_radius, 1.0)
        offset = Vec2.from_polar(self.orbit_radius, self._orbit_phase)
        self._fly_towards(anchor + offset)

    def _drain_battery(self) -> None:
        # wind increases draw; handled by scenario wiring via wind_factor
        self.battery_s -= self.tick_s * self.wind_draw_factor()

    def wind_draw_factor(self) -> float:
        """Battery-draw multiplier; scenarios may override with weather."""
        return 1.0

    def _fly_towards(self, destination: Vec2) -> None:
        self.set_route([destination], speed=self.max_speed)

    def _land(self) -> None:
        self.mode = DroneMode.CHARGING
        self.halt()
        self.state.altitude = 0.0
        self.emit(EventCategory.MISSION, "drone_landed")
        self.sim.schedule(self.recharge_time_s, self._finish_charge)

    def _finish_charge(self) -> None:
        if self.mode is not DroneMode.CHARGING:
            return
        self.battery_s = self.battery_capacity_s
        self.launch()

    def launch(self) -> None:
        """Take off and resume the tracking/orbit task."""
        if not self.alive:
            return
        self.state.altitude = self.operating_altitude
        self.mode = DroneMode.TRACKING if self.target is not None else DroneMode.ORBITING
        self.emit(EventCategory.MISSION, "drone_launched",
                  battery_fraction=self.battery_fraction)

    def return_home(self) -> None:
        """SAFE_STOP behaviour for an airborne drone: break off and land.

        Grounded/charging drones are already in a safe state; they stay put.
        """
        if not self.airborne or self.mode is DroneMode.RETURNING:
            return
        self.mode = DroneMode.RETURNING
        self.emit(EventCategory.MISSION, "drone_returning", reason="commanded",
                  battery_fraction=self.battery_fraction)

    def ground(self, reason: str = "commanded") -> None:
        """Force the drone out of operation (failure injection / attack)."""
        self.mode = DroneMode.GROUNDED
        self.halt()
        self.state.altitude = 0.0
        self.emit(EventCategory.MISSION, "drone_grounded", reason=reason)
