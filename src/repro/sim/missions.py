"""Log-transport missions for the autonomous forwarder.

The AGRARSENSE use case is "transporting logs from a harvesting site to a
landing area within the forest".  A :class:`MissionPlan` holds the pile
inventory at the harvest site; the forwarder executes load → drive → unload
cycles until the inventory is exhausted or the run ends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.geometry import Vec2


class MissionPhase(enum.Enum):
    """Phases of a forwarder transport cycle."""

    IDLE = "idle"
    TO_PILE = "to_pile"
    LOADING = "loading"
    TO_LANDING = "to_landing"
    UNLOADING = "unloading"
    SAFE_STOP = "safe_stop"


@dataclass
class LogPile:
    """A pile of logs at the harvest site."""

    position: Vec2
    volume_m3: float

    @property
    def exhausted(self) -> bool:
        return self.volume_m3 <= 1e-9

    def take(self, amount: float) -> float:
        """Remove up to ``amount`` m³, returning the volume actually taken."""
        taken = min(amount, self.volume_m3)
        self.volume_m3 -= taken
        return taken


@dataclass
class MissionPlan:
    """The transport task: piles to move to the landing point.

    Attributes
    ----------
    piles:
        Pile inventory at the harvest site.
    landing_point:
        Unloading position in the landing area.
    load_time_s / unload_time_s:
        Handling time per cycle (crane work).
    """

    #: forwarder payload per cycle, m³
    load_capacity_m3 = 12.0

    piles: List[LogPile]
    landing_point: Vec2
    load_time_s: float = 300.0
    unload_time_s: float = 240.0
    delivered_m3: float = 0.0
    cycles_completed: int = 0

    def next_pile(self) -> Optional[LogPile]:
        """The nearest-to-exhaustion pile that still has volume."""
        remaining = [p for p in self.piles if not p.exhausted]
        if not remaining:
            return None
        return remaining[0]

    @property
    def total_remaining_m3(self) -> float:
        return sum(p.volume_m3 for p in self.piles)

    @property
    def complete(self) -> bool:
        return all(p.exhausted for p in self.piles)

    def record_delivery(self, volume: float) -> None:
        self.delivered_m3 += volume
        self.cycles_completed += 1
