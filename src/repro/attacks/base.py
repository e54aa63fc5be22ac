"""Attacker and attack lifecycle.

An :class:`Attacker` is a positioned adversary (a vehicle at the worksite
perimeter, per the paper's remote-site threat profile) that owns a set of
:class:`Attack` instances.  Attacks have a uniform ``start``/``stop``
lifecycle and emit ``attack_started`` / ``attack_stopped`` events, the ground
truth against which IDS detection latency and coverage are scored.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2
from repro.telemetry import tracer as trace


class Attack:
    """Base class for a startable/stoppable attack behaviour."""

    #: short identifier used in events and in IDS ground-truth scoring
    attack_type: str = "generic"

    def __init__(self, name: str, sim: Simulator, log: EventLog) -> None:
        self.name = name
        self.sim = sim
        self.log = log
        self.active = False
        self.started_at: Optional[float] = None

    def start(self) -> None:
        """Activate the attack."""
        if self.active:
            return
        self.active = True
        self.started_at = self.sim.now
        self.log.emit(
            self.sim.now, EventCategory.ATTACK, "attack_started", self.name,
            attack_type=self.attack_type,
        )
        if trace.ACTIVE:
            trace.TRACER.attack_started(self.name, self.attack_type)
        self._on_start()

    def stop(self) -> None:
        """Deactivate the attack."""
        if not self.active:
            return
        self.active = False
        self.log.emit(
            self.sim.now, EventCategory.ATTACK, "attack_stopped", self.name,
            attack_type=self.attack_type,
        )
        if trace.ACTIVE:
            trace.TRACER.attack_stopped(self.name, self.attack_type)
        self._on_stop()

    def schedule(self, start_at: float, duration: Optional[float] = None) -> None:
        """Schedule the attack window on the simulation clock."""
        self.sim.schedule_at(start_at, self.start)
        if duration is not None:
            self.sim.schedule_at(start_at + duration, self.stop)

    def _on_start(self) -> None:
        """Subclass hook: engage the attack mechanics."""

    def _on_stop(self) -> None:
        """Subclass hook: disengage the attack mechanics."""


class Attacker:
    """A positioned adversary owning a toolkit of attacks.

    Parameters
    ----------
    name:
        Attacker identifier.
    position:
        Static position (perimeter vehicle); attacks needing proximity use it.
    """

    #: free-form capability descriptor used by the risk model's attacker
    #: profiles ("remote", "proximate", "insider")
    capability = "proximate"

    def __init__(self, name: str, sim: Simulator, log: EventLog, position: Vec2) -> None:
        self.name = name
        self.sim = sim
        self.log = log
        self.position = position
        self.attacks: List[Attack] = []

    def add(self, attack: Attack) -> Attack:
        self.attacks.append(attack)
        return attack

    def stop_all(self) -> None:
        for attack in self.attacks:
            attack.stop()

    @property
    def active_attacks(self) -> List[Attack]:
        return [a for a in self.attacks if a.active]
