"""Common sensor interface.

A sensor is mounted on a carrier entity, samples the world at its own rate,
and produces :class:`Observation` records.  Attack hooks (blinding, spoofing,
hijack) are part of the interface because the paper's survey treats sensors
primarily as attack surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.entities import Entity
from repro.sim.events import EventCategory


@dataclass(frozen=True)
class Observation:
    """A single sensor observation of a target entity.

    Attributes
    ----------
    time:
        Simulated time of the observation.
    sensor:
        Name of the producing sensor.
    target:
        Name of the observed entity (ground truth identity; consumers that
        should not know ground truth must not read it).
    distance:
        True range to the target at observation time.
    detected:
        Whether the sensor actually registered the target.
    confidence:
        Detection confidence in [0, 1] (0 when not detected).
    data:
        Sensor-specific extras (bearing, estimated position, ...).
    """

    time: float
    sensor: str
    target: str
    distance: float
    detected: bool
    confidence: float = 0.0
    data: Dict[str, Any] = field(default_factory=dict)


class Sensor:
    """Base sensor: identity, carrier, health and attack state.

    Subclasses implement :meth:`observe` against a list of candidate targets.
    """

    def __init__(self, name: str, carrier: Entity) -> None:
        self.name = name
        self.carrier = carrier
        self.enabled = True
        self.blinded_until: float = -1.0
        self.hijacked_by: Optional[str] = None
        # fault-injection state (distinct from attack state: dropout and
        # freeze model component failures, not adversarial action)
        self.fault_dropout = False
        self.fault_frozen = False
        self.fault_gain = 1.0

    @property
    def position(self):
        return self.carrier.position

    @property
    def mount_height(self) -> float:
        """Height of the sensor above local terrain."""
        return self.carrier.body_height + self.carrier.state.altitude

    def is_blinded(self, now: float) -> bool:
        """True while a blinding attack is in effect."""
        return now < self.blinded_until

    def blind(self, now: float, duration: float, attacker: str = "?") -> None:
        """Apply a blinding attack for ``duration`` seconds."""
        self.blinded_until = max(self.blinded_until, now + duration)
        self.carrier.log.emit(
            now, EventCategory.ATTACK, "sensor_blinded", self.name,
            attacker=attacker, duration=duration,
        )

    def hijack(self, attacker: str) -> None:
        """Mark the sensor feed as hijacked (camera feed theft / control)."""
        self.hijacked_by = attacker

    def release(self) -> None:
        self.hijacked_by = None

    # -- fault injection hooks ------------------------------------------------
    def inject_dropout(self) -> None:
        """Fault: the sensor produces nothing until cleared."""
        self.fault_dropout = True

    def clear_dropout(self) -> None:
        self.fault_dropout = False

    def inject_freeze(self) -> None:
        """Fault: the sensor repeats its last pre-freeze output."""
        self.fault_frozen = True

    def clear_freeze(self) -> None:
        self.fault_frozen = False

    def set_fault_gain(self, gain: float) -> None:
        """Fault: systematic output bias as a multiplicative gain."""
        self.fault_gain = float(gain)

    def healthy(self, now: float) -> bool:
        """Sensor-health vote input: operational and not faulted."""
        return self.operational(now) and not self.fault_frozen

    def operational(self, now: float) -> bool:
        return self.enabled and not self.fault_dropout and not self.is_blinded(now)

    def observe(self, now: float, targets: List[Entity]) -> List[Observation]:
        """Produce observations of ``targets``.  Subclasses override."""
        raise NotImplementedError
