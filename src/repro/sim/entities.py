"""Entity base classes: identity, kinematics, waypoint following.

All worksite actors (forwarder, drone, harvester, humans) derive from
:class:`Entity`.  Kinematics are first-order: an entity moves towards its
current waypoint at a commanded speed, clamped by an acceleration limit, and
updates on a fixed tick driven by the simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.engine import Process, Simulator
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2


@dataclass
class KinematicState:
    """Mutable kinematic state of an entity."""

    position: Vec2
    heading: float = 0.0
    speed: float = 0.0
    altitude: float = 0.0  # metres above local terrain (drones)


class Entity:
    """A located, optionally moving actor in the worksite.

    Parameters
    ----------
    name:
        Unique identifier, used as the event/metric source key.
    sim:
        The driving simulator.
    log:
        Shared event log.
    position:
        Initial position.
    max_speed, max_accel:
        Kinematic limits in m/s and m/s^2.
    """

    #: nominal body height used for line-of-sight computations, metres
    body_height: float = 1.5
    #: kinematic update interval, seconds
    tick_s: float = 0.5

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        position: Vec2,
        *,
        max_speed: float = 1.5,
        max_accel: float = 1.0,
    ) -> None:
        self.name = name
        self.sim = sim
        self.log = log
        self.state = KinematicState(position=position)
        self.max_speed = max_speed
        self.max_accel = max_accel
        self.alive = True
        self._waypoints: List[Vec2] = []
        self._target_speed = 0.0
        self._process: Optional[Process] = sim.every(self.tick_s, self._tick)
        self.distance_travelled = 0.0

    # -- public API ---------------------------------------------------------
    @property
    def position(self) -> Vec2:
        return self.state.position

    @property
    def waypoints(self) -> List[Vec2]:
        return list(self._waypoints)

    def set_route(self, waypoints: List[Vec2], speed: Optional[float] = None) -> None:
        """Replace the current route; the entity heads to the first waypoint."""
        self._waypoints = list(waypoints)
        self._target_speed = self.max_speed if speed is None else min(speed, self.max_speed)

    def stop(self) -> None:
        """Command an immediate speed target of zero (route retained)."""
        self._target_speed = 0.0

    def resume(self, speed: Optional[float] = None) -> None:
        """Resume motion along the retained route."""
        self._target_speed = self.max_speed if speed is None else min(speed, self.max_speed)

    def halt(self) -> None:
        """Hard stop: zero speed instantly (emergency stop semantics)."""
        self.state.speed = 0.0
        self._target_speed = 0.0

    def is_idle(self) -> bool:
        return not self._waypoints and self.state.speed == 0.0

    def deactivate(self) -> None:
        """Remove the entity from simulation (battery out, end of shift)."""
        self.alive = False
        if self._process is not None:
            self._process.stop()
            self._process = None

    # -- kinematics -----------------------------------------------------------
    def _tick(self) -> None:
        if not self.alive:
            return
        self.on_tick()
        self._advance(self.tick_s)

    def on_tick(self) -> None:
        """Hook for subclasses: behaviour executed each tick before movement."""

    def _advance(self, dt: float) -> None:
        if not self._waypoints:
            self._decelerate(dt)
            return
        target = self._waypoints[0]
        to_target = target - self.state.position
        dist = to_target.norm()
        arrive_radius = max(0.5, self.state.speed * dt)
        if dist <= arrive_radius:
            self.state.position = target
            self._waypoints.pop(0)
            if not self._waypoints:
                self.state.speed = 0.0
                self.on_route_complete()
            return
        # speed control with acceleration limit
        desired = self._target_speed
        dv = desired - self.state.speed
        max_dv = self.max_accel * dt
        self.state.speed += max(-max_dv, min(max_dv, dv))
        if self.state.speed <= 0.0:
            self.state.speed = 0.0
            return
        direction = to_target.normalized()
        self.state.heading = direction.heading()
        step = min(self.state.speed * dt, dist)
        self.state.position = self.state.position + direction * step
        self.distance_travelled += step

    def _decelerate(self, dt: float) -> None:
        if self.state.speed > 0.0:
            self.state.speed = max(0.0, self.state.speed - self.max_accel * dt)

    def on_route_complete(self) -> None:
        """Hook for subclasses: called when the last waypoint is reached."""

    # -- convenience -----------------------------------------------------------
    def distance_to(self, other: "Entity") -> float:
        return self.position.distance_to(other.position)

    def emit(self, category: EventCategory, kind: str, **data) -> None:
        self.log.emit(self.sim.now, category, kind, self.name, **data)

    def __repr__(self) -> str:
        p = self.state.position
        return f"<{type(self).__name__} {self.name} @({p.x:.1f},{p.y:.1f})>"
