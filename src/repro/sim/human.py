"""Human workers on the worksite.

Humans are the protected asset of the people-detection safety function.
Their movement alternates between working at an anchor, wandering nearby and
occasional *approach episodes* towards a machine — the hazardous situation of
Figure 2.  Approach episodes can be scheduled explicitly by experiments.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams


class HumanBehaviour(enum.Enum):
    """Current behaviour mode of a worker."""

    WORKING = "working"
    WANDERING = "wandering"
    APPROACHING = "approaching"


#: how far short of its target an approaching worker stops, metres
APPROACH_STANDOFF_M = 2.0


class Human(Entity):
    """A worker with anchor-based movement and approach episodes.

    Parameters
    ----------
    anchor:
        The work position the human returns to.
    wander_radius:
        Radius of random wandering around the anchor.
    approach_target:
        Entity the human may walk towards during an approach episode.
    approach_rate_per_h:
        Mean spontaneous approach episodes per simulated hour (Poisson).
    """

    body_height = 1.8

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        streams: RngStreams,
        anchor: Vec2,
        *,
        wander_radius: float = 15.0,
        approach_target: Optional[Entity] = None,
        approach_rate_per_h: float = 0.0,
    ) -> None:
        super().__init__(name, sim, log, anchor, max_speed=1.4, max_accel=1.0)
        self._rng = streams.stream(f"human.{name}")
        self.anchor = anchor
        self.wander_radius = wander_radius
        self.approach_target = approach_target
        self.behaviour = HumanBehaviour.WORKING
        if approach_rate_per_h > 0.0 and approach_target is not None:
            self._approach_rate = approach_rate_per_h / 3600.0
            self._schedule_spontaneous_approach()
        else:
            self._approach_rate = 0.0
        sim.every(5.0, self._behave)

    def _schedule_spontaneous_approach(self) -> None:
        delay = self._rng.expovariate(self._approach_rate)
        self.sim.schedule(delay, self._spontaneous_approach)

    def _spontaneous_approach(self) -> None:
        if self.alive and self.behaviour is not HumanBehaviour.APPROACHING:
            self.start_approach()
        if self._approach_rate > 0.0:
            self._schedule_spontaneous_approach()

    def start_approach(self, target: Optional[Entity] = None) -> None:
        """Begin walking towards ``target`` (default: the configured one)."""
        target = target or self.approach_target
        if target is None:
            return
        self.behaviour = HumanBehaviour.APPROACHING
        self.set_route([self._short_of(target)], speed=self.max_speed)
        self.emit(EventCategory.MOVEMENT, "approach_started", target=target.name)

    def _short_of(self, target: Entity) -> Vec2:
        """A waypoint :data:`APPROACH_STANDOFF_M` short of the target."""
        offset = self.position - target.position
        distance = offset.norm()
        if distance <= APPROACH_STANDOFF_M:
            return self.position
        return target.position + offset * (APPROACH_STANDOFF_M / distance)

    def _behave(self) -> None:
        if not self.alive:
            return
        if self.behaviour is HumanBehaviour.APPROACHING:
            target = self.approach_target
            if target is not None:
                # re-aim at the (moving) machine; break off when close
                if self.distance_to(target) < 4.0:
                    self.behaviour = HumanBehaviour.WANDERING
                    self.emit(EventCategory.MOVEMENT, "approach_ended")
                    self.set_route([self.anchor])
                else:
                    self.set_route([self._short_of(target)], speed=self.max_speed)
            return
        if self.is_idle():
            if self._rng.random() < 0.3:
                offset = Vec2.from_polar(
                    self._rng.uniform(0.0, self.wander_radius),
                    self._rng.uniform(-3.14159, 3.14159),
                )
                self.behaviour = HumanBehaviour.WANDERING
                self.set_route([self.anchor + offset], speed=1.0)
            else:
                self.behaviour = HumanBehaviour.WORKING
