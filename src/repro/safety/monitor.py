"""Runtime safety monitor: scores a run's safety outcome.

Ground-truth evaluation of what actually happened, independent of what the
machines believed: minimum separation between any moving machine and any
person, violation episodes (machine moving while a person is inside the
protection distance), near misses, and time-to-detect statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog
from repro.telemetry import tracer as trace


@dataclass
class ViolationEpisode:
    """One interval where a moving machine was too close to a person."""

    machine: str
    person: str
    started_at: float
    min_separation_m: float
    machine_speed_m_s: float
    ended_at: Optional[float] = None


class SafetyMonitor:
    """Ground-truth proximity monitor.

    Parameters
    ----------
    machines:
        Machines whose motion is hazardous.
    people:
        Protected humans.
    violation_distance_m:
        Separation below which a *moving* machine constitutes a violation.
    near_miss_distance_m:
        Separation counted as a near miss (machine moving, person within
        this range but outside the violation range).
    """

    #: seconds between proximity samples
    interval_s = 0.5

    def __init__(
        self,
        machines: List[Entity],
        people: List[Entity],
        sim: Simulator,
        log: EventLog,
        *,
        violation_distance_m: float = 5.0,
        near_miss_distance_m: float = 10.0,
    ) -> None:
        self.machines = list(machines)
        self.people = list(people)
        self.sim = sim
        self.log = log
        self.violation_distance_m = violation_distance_m
        self.near_miss_distance_m = near_miss_distance_m
        self.min_separation_m = float("inf")
        self.violations: List[ViolationEpisode] = []
        self.near_misses = 0
        self._active: Dict[tuple, ViolationEpisode] = {}
        self._in_near_zone: Dict[tuple, bool] = {}
        self.samples = 0
        sim.every(self.interval_s, self._sample)

    def _sample(self) -> None:
        self.samples += 1
        for machine in self.machines:
            if not machine.alive:
                continue
            moving = machine.state.speed > 0.05
            for person in self.people:
                if not person.alive:
                    continue
                separation = machine.distance_to(person)
                if separation < self.min_separation_m:
                    self.min_separation_m = separation
                key = (machine.name, person.name)
                if moving and separation <= self.violation_distance_m:
                    episode = self._active.get(key)
                    if episode is None:
                        episode = ViolationEpisode(
                            machine=machine.name,
                            person=person.name,
                            started_at=self.sim.now,
                            min_separation_m=separation,
                            machine_speed_m_s=machine.state.speed,
                        )
                        self._active[key] = episode
                        self.violations.append(episode)
                        self.log.emit(
                            self.sim.now, EventCategory.SAFETY, "safety_violation",
                            machine.name, person=person.name,
                            separation_m=round(separation, 2),
                            speed=round(machine.state.speed, 2),
                        )
                        if trace.ACTIVE:
                            trace.TRACER.safety_violation(
                                machine.name, person.name, separation
                            )
                    else:
                        episode.min_separation_m = min(episode.min_separation_m, separation)
                else:
                    episode = self._active.pop(key, None)
                    if episode is not None:
                        episode.ended_at = self.sim.now
                # near-miss accounting with edge detection
                in_near = (
                    moving
                    and self.violation_distance_m < separation <= self.near_miss_distance_m
                )
                was_near = self._in_near_zone.get(key, False)
                if in_near and not was_near:
                    self.near_misses += 1
                    self.log.emit(
                        self.sim.now, EventCategory.SAFETY, "near_miss",
                        machine.name, person=person.name,
                        separation_m=round(separation, 2),
                    )
                    if trace.ACTIVE:
                        trace.TRACER.safety_near_miss(
                            machine.name, person.name, separation
                        )
                self._in_near_zone[key] = in_near

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def violation_seconds(self) -> float:
        """Total time spent in violation episodes."""
        total = 0.0
        for episode in self.violations:
            end = episode.ended_at if episode.ended_at is not None else self.sim.now
            total += end - episode.started_at
        return total

    def summary(self) -> dict:
        return {
            "violations": self.violation_count,
            "violation_seconds": round(self.violation_seconds(), 1),
            "near_misses": self.near_misses,
            "min_separation_m": (
                round(self.min_separation_m, 2)
                if self.min_separation_m != float("inf") else None
            ),
        }
