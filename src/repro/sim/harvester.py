"""The manually-operated harvester.

The paper assumes harvesting itself stays manual, making the worksite
*partially* autonomous.  The harvester works through a sequence of cutting
positions at the harvest site, producing log piles the forwarder collects.
Its operator is a protected human who occasionally dismounts (adding a worker
to the worksite's hazard picture).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2
from repro.sim.missions import LogPile
from repro.sim.rng import RngStreams


class Harvester(Entity):
    """Manually-operated harvester working through cutting positions.

    Parameters
    ----------
    cutting_positions:
        Positions worked in order; a log pile is produced at each.
    work_time_s:
        Time spent cutting at each position.
    """

    body_height = 3.5

    #: volume of the pile produced per position, m³
    pile_volume_m3 = 15.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        streams: RngStreams,
        position: Vec2,
        cutting_positions: Optional[List[Vec2]] = None,
        *,
        work_time_s: float = 900.0,
    ) -> None:
        super().__init__(name, sim, log, position, max_speed=1.2, max_accel=0.5)
        self._rng = streams.stream(f"harvester.{name}")
        self._queue: List[Vec2] = list(cutting_positions or [])
        self.work_time_s = work_time_s
        self.piles_produced: List[LogPile] = []
        self.working = False
        if self._queue:
            sim.schedule(1.0, self._next_position)

    def _next_position(self) -> None:
        if not self.alive or not self._queue:
            self.emit(EventCategory.MISSION, "harvest_complete",
                      piles=len(self.piles_produced))
            return
        destination = self._queue.pop(0)
        self.set_route([destination], speed=self.max_speed)

    def on_route_complete(self) -> None:
        if self.working:
            return
        self.working = True
        self.emit(EventCategory.MISSION, "cutting_started")
        jitter = self._rng.uniform(0.9, 1.1)
        self.sim.schedule(self.work_time_s * jitter, self._finish_cutting)

    def _finish_cutting(self) -> None:
        if not self.alive:
            return
        self.working = False
        pile = LogPile(position=self.position, volume_m3=self.pile_volume_m3)
        self.piles_produced.append(pile)
        self.emit(EventCategory.MISSION, "pile_produced",
                  volume_m3=pile.volume_m3,
                  position=(self.position.x, self.position.y))
        self._next_position()
