"""Grid-based path planning for ground vehicles.

The planner rasterises the world into a coarse occupancy grid (trunks and
steep slopes block cells) and runs A* with octile distance.  Resulting cell
paths are smoothed by greedy line-of-sight shortcutting against
:meth:`repro.sim.world.World.is_traversable`.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.sim.geometry import Vec2
from repro.sim.world import World


class PathNotFound(RuntimeError):
    """Raised when no traversable path exists between the endpoints."""


_NEIGHBOURS = [
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, math.sqrt(2.0)),
    (1, -1, math.sqrt(2.0)),
    (-1, 1, math.sqrt(2.0)),
    (-1, -1, math.sqrt(2.0)),
]

#: cells an off-grid endpoint may be snapped to a free cell, per axis
SNAP_RADIUS = 4
#: A* node expansions before a plan is given up
MAX_EXPANSIONS = 200_000


class GridPlanner:
    """A* planner over a lazily-evaluated occupancy grid.

    Parameters
    ----------
    world:
        The worksite; traversability queries are delegated to it.
    cell_size:
        Grid resolution in metres.
    clearance:
        Required clearance from trunks in metres (vehicle half-width).
    """

    def __init__(self, world: World, *, cell_size: float = 3.0, clearance: float = 1.5) -> None:
        self.world = world
        self.cell_size = cell_size
        self.clearance = clearance
        self._free_cache: Dict[Tuple[int, int], bool] = {}

    # -- grid helpers -----------------------------------------------------
    def _to_cell(self, p: Vec2) -> Tuple[int, int]:
        return (int(p.x // self.cell_size), int(p.y // self.cell_size))

    def _cell_center(self, cell: Tuple[int, int]) -> Vec2:
        return Vec2(
            (cell[0] + 0.5) * self.cell_size, (cell[1] + 0.5) * self.cell_size
        )

    def _is_free(self, cell: Tuple[int, int]) -> bool:
        cached = self._free_cache.get(cell)
        if cached is not None:
            return cached
        center = self._cell_center(cell)
        free = self.world.is_traversable(center, clearance=self.clearance)
        self._free_cache[cell] = free
        return free

    @staticmethod
    def _octile(a: Tuple[int, int], b: Tuple[int, int]) -> float:
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return max(dx, dy) + (math.sqrt(2.0) - 1.0) * min(dx, dy)

    def _nearest_free(self, cell: Tuple[int, int]) -> Optional[Tuple[int, int]]:
        """Closest free cell within :data:`SNAP_RADIUS` (endpoint snapping)."""
        if self._is_free(cell):
            return cell
        for r in range(1, SNAP_RADIUS + 1):
            for dx in range(-r, r + 1):
                for dy in range(-r, r + 1):
                    if max(abs(dx), abs(dy)) != r:
                        continue
                    candidate = (cell[0] + dx, cell[1] + dy)
                    if self._is_free(candidate):
                        return candidate
        return None

    # -- planning ---------------------------------------------------------
    def plan(self, start: Vec2, goal: Vec2) -> List[Vec2]:
        """Plan a smoothed waypoint path from ``start`` to ``goal``.

        Raises
        ------
        PathNotFound
            If the endpoints cannot be snapped to free cells or A* exhausts
            the expansion budget without reaching the goal.
        """
        start_cell = self._nearest_free(self._to_cell(start))
        goal_cell = self._nearest_free(self._to_cell(goal))
        if start_cell is None or goal_cell is None:
            raise PathNotFound("endpoint lies in blocked terrain")
        if start_cell == goal_cell:
            return [goal]

        open_heap: List[Tuple[float, int, Tuple[int, int]]] = []
        counter = 0
        heapq.heappush(open_heap, (0.0, counter, start_cell))
        came_from: Dict[Tuple[int, int], Tuple[int, int]] = {}
        g_score: Dict[Tuple[int, int], float] = {start_cell: 0.0}
        closed = set()
        expansions = 0

        while open_heap:
            _, __, current = heapq.heappop(open_heap)
            if current in closed:
                continue
            if current == goal_cell:
                return self._reconstruct(came_from, current, start, goal)
            closed.add(current)
            expansions += 1
            if expansions > MAX_EXPANSIONS:
                break
            for dx, dy, cost in _NEIGHBOURS:
                neighbour = (current[0] + dx, current[1] + dy)
                if neighbour in closed or not self._is_free(neighbour):
                    continue
                tentative = g_score[current] + cost
                if tentative < g_score.get(neighbour, math.inf):
                    g_score[neighbour] = tentative
                    came_from[neighbour] = current
                    counter += 1
                    f = tentative + self._octile(neighbour, goal_cell)
                    heapq.heappush(open_heap, (f, counter, neighbour))
        raise PathNotFound(f"no path from {start} to {goal}")

    def _reconstruct(
        self,
        came_from: Dict[Tuple[int, int], Tuple[int, int]],
        current: Tuple[int, int],
        start: Vec2,
        goal: Vec2,
    ) -> List[Vec2]:
        cells = [current]
        while current in came_from:
            current = came_from[current]
            cells.append(current)
        cells.reverse()
        points = [start] + [self._cell_center(c) for c in cells[1:-1]] + [goal]
        return self._smooth(points)

    def _smooth(self, points: List[Vec2]) -> List[Vec2]:
        """Greedy shortcutting: skip intermediate points with a clear corridor."""
        if len(points) <= 2:
            return points[1:] if len(points) == 2 else points
        smoothed = [points[0]]
        i = 0
        while i < len(points) - 1:
            j = len(points) - 1
            while j > i + 1:
                if self._corridor_free(points[i], points[j]):
                    break
                j -= 1
            smoothed.append(points[j])
            i = j
        return smoothed[1:]  # the entity starts at points[0]

    def _corridor_free(self, a: Vec2, b: Vec2) -> bool:
        dist = a.distance_to(b)
        steps = max(2, int(dist / (self.cell_size / 2.0)))
        for k in range(1, steps):
            p = a.lerp(b, k / steps)
            if not self.world.is_traversable(p, clearance=self.clearance):
                return False
        return True
