"""The forestry worksite world: trees, zones, obstacles, line of sight.

This is the substrate for the paper's Figure 1: an area of forest containing a
harvesting site, a landing area connected by an extraction route, standing
trees that occlude sensors and block paths, and named operational zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf import counters as perf
from repro.sim.geometry import Segment, Vec2
from repro.sim.rng import RngStreams
from repro.sim.terrain import Terrain, generate_terrain


@dataclass(frozen=True, slots=True)
class Tree:
    """A standing tree: a vertical cylinder that occludes and obstructs."""

    position: Vec2
    canopy_radius: float = 2.0
    trunk_radius: float = 0.3
    height: float = 18.0


@dataclass(frozen=True, slots=True)
class Zone:
    """A named rectangular operational zone (harvest site, landing area, ...)."""

    name: str
    min_corner: Vec2
    max_corner: Vec2

    def contains(self, p: Vec2) -> bool:
        return (
            self.min_corner.x <= p.x <= self.max_corner.x
            and self.min_corner.y <= p.y <= self.max_corner.y
        )

    def center(self) -> Vec2:
        return Vec2(
            (self.min_corner.x + self.max_corner.x) / 2.0,
            (self.min_corner.y + self.max_corner.y) / 2.0,
        )

    def area(self) -> float:
        return (self.max_corner.x - self.min_corner.x) * (
            self.max_corner.y - self.min_corner.y
        )


class World:
    """The worksite: terrain + trees + zones, with spatial queries.

    Trees are indexed in a coarse uniform hash grid so line-of-sight and
    obstruction queries stay fast for thousands of trees.
    """

    _CELL = 10.0  # metres; coarse grid cell for the tree index

    #: canopy-cache key resolution: positions are quantised to millimetres,
    #: so endpoints within 0.5 mm share an entry (static machines re-query
    #: bit-identical positions every frame; anything moving changes key)
    _CANOPY_QUANTUM = 1000.0
    #: LRU capacity of the canopy memo: long fuzz sessions with moving
    #: endpoints would otherwise grow the mm-quantised key space without
    #: bound.  Hot static-link keys are touched every frame, so eviction
    #: only sheds one-shot keys from moving endpoints.
    _CANOPY_CACHE_MAX = 65536
    #: minimum candidate-tree count for the vectorised canopy sweep; below
    #: this the numpy call overhead beats the plain loop (measured breakeven
    #: on a single-vCPU host is ~150 candidates — numpy ufunc dispatch costs
    #: several microseconds per op, so short sweeps stay scalar)
    _CANOPY_BATCH_MIN = 160

    def __init__(
        self,
        terrain: Terrain,
        trees: Optional[Sequence[Tree]] = None,
        zones: Optional[Sequence[Zone]] = None,
    ) -> None:
        self.terrain = terrain
        self.trees: List[Tree] = []
        self.zones: Dict[str, Zone] = {}
        self._grid: Dict[Tuple[int, int], List[Tree]] = {}
        self._canopy_cache: Dict[Tuple[int, int, int, int], float] = {}
        # lazily-built per-cell (x, y, canopy_radius) numpy arrays for the
        # vectorised canopy sweep; invalidated whenever the forest changes
        self._cell_arrays: Dict[Tuple[int, int], tuple] = {}
        # lazily-built per-cell flat tuple lists for the scalar sweeps:
        # (x, y, canopy_radius) and (x, y, trunk_radius) — iterating plain
        # floats beats touching Tree attributes per query
        self._cell_canopy: Dict[Tuple[int, int], List[Tuple[float, float, float]]] = {}
        self._cell_trunk: Dict[Tuple[int, int], List[Tuple[float, float, float]]] = {}
        # memo of concatenated candidate columns per scanned cell set —
        # consecutive queries from a moving observer scan the same cells
        self._concat_cache: Dict[tuple, tuple] = {}
        # memo of combined candidate lists per scanned cell *rectangle*:
        # a moving endpoint shifts its bbox by centimetres per tick, so the
        # 10 m cell rectangle — and therefore the candidate set, in scan
        # order — is identical across many consecutive queries
        self._rect_canopy: Dict[Tuple[int, int, int, int], tuple] = {}
        self._rect_trunk: Dict[Tuple[int, int, int, int], List[Tuple[float, float, float]]] = {}
        for tree in trees or []:
            self.add_tree(tree)
        for zone in zones or []:
            self.add_zone(zone)

    @property
    def width(self) -> float:
        return self.terrain.width

    @property
    def height(self) -> float:
        return self.terrain.height

    def add_tree(self, tree: Tree) -> None:
        self.trees.append(tree)
        self._grid.setdefault(self._cell(tree.position), []).append(tree)
        # the forest changed: every memoised sight line is stale
        self._canopy_cache.clear()
        self._cell_arrays.clear()
        self._cell_canopy.clear()
        self._cell_trunk.clear()
        self._concat_cache.clear()
        self._rect_canopy.clear()
        self._rect_trunk.clear()

    def add_zone(self, zone: Zone) -> None:
        if zone.name in self.zones:
            raise ValueError(f"duplicate zone name: {zone.name!r}")
        self.zones[zone.name] = zone

    def zone(self, name: str) -> Zone:
        return self.zones[name]

    def _cell(self, p: Vec2) -> Tuple[int, int]:
        return (int(p.x // self._CELL), int(p.y // self._CELL))

    def _trees_near(
        self, ax: float, ay: float, bx: float, by: float, pad: float
    ) -> List[Tree]:
        """Trees whose cells overlap the padded bounding box of ``a``–``b``.

        Each tree lives in exactly one grid cell, so the concatenated cell
        buckets are already duplicate-free, in cell-scan order.
        """
        cell = self._CELL
        grid = self._grid
        min_x = (ax if ax < bx else bx) - pad
        max_x = (ax if ax > bx else bx) + pad
        min_y = (ay if ay < by else by) - pad
        max_y = (ay if ay > by else by) + pad
        found: List[Tree] = []
        cy_lo = int(min_y // cell)
        cy_hi = int(max_y // cell) + 1
        for cx in range(int(min_x // cell), int(max_x // cell) + 1):
            for cy in range(cy_lo, cy_hi):
                bucket = grid.get((cx, cy))
                if bucket:
                    found.extend(bucket)
        return found

    def trees_near_segment(self, seg: Segment, pad: float = 5.0) -> List[Tree]:
        """Candidate trees whose cells overlap the segment's bounding box."""
        return self._trees_near(seg.a.x, seg.a.y, seg.b.x, seg.b.y, pad)

    def trees_within(self, center: Vec2, radius: float) -> List[Tree]:
        """Trees whose position lies within ``radius`` of ``center``."""
        found = []
        cells_x = range(
            int((center.x - radius) // self._CELL),
            int((center.x + radius) // self._CELL) + 1,
        )
        cells_y = range(
            int((center.y - radius) // self._CELL),
            int((center.y + radius) // self._CELL) + 1,
        )
        for cx in cells_x:
            for cy in cells_y:
                for tree in self._grid.get((cx, cy), ()):
                    if tree.position.distance_to(center) <= radius:
                        found.append(tree)
        return found

    def canopy_blockage(self, observer: Vec2, target: Vec2) -> float:
        """Total canopy path length (metres) intersected by the sight line.

        Used by ground-level sensors: each metre of canopy attenuates
        detection probability.  A drone looking down suffers far less canopy
        blockage, which is modelled by the occlusion layer in
        :mod:`repro.sensors.occlusion`.

        Results are memoised per millimetre-quantised endpoint pair: links
        between static machines re-query the identical sight line every
        frame.  The memo is an LRU bounded at :attr:`_CANOPY_CACHE_MAX`
        entries (dict insertion order doubles as recency order: hits are
        re-inserted at the end, the oldest entry is evicted at capacity),
        and is cleared whenever a tree is added.
        """
        q = self._CANOPY_QUANTUM
        key = (
            round(observer.x * q), round(observer.y * q),
            round(target.x * q), round(target.y * q),
        )
        cache = self._canopy_cache
        cached = cache.get(key)
        if cached is not None:
            # refresh recency: move the key to the end of the dict
            del cache[key]
            cache[key] = cached
            if perf.ACTIVE:
                perf.incr("world.canopy_cache_hit")
            return cached
        if perf.ACTIVE:
            perf.incr("world.canopy_cache_miss")
        total = self._canopy_blockage_uncached(observer, target)
        if len(cache) >= self._CANOPY_CACHE_MAX:
            del cache[next(iter(cache))]
            if perf.ACTIVE:
                perf.incr("world.canopy_cache_evict")
        cache[key] = total
        return total

    def _cell_array(self, key: Tuple[int, int]):
        """Cached (x, y, canopy_radius) numpy columns for one grid cell."""
        arrays = self._cell_arrays.get(key)
        if arrays is None:
            bucket = self._grid[key]
            arrays = (
                np.array([t.position.x for t in bucket]),
                np.array([t.position.y for t in bucket]),
                np.array([t.canopy_radius for t in bucket]),
            )
            self._cell_arrays[key] = arrays
        return arrays

    def _canopy_blockage_uncached(self, observer: Vec2, target: Vec2) -> float:
        # raw-float inline of Segment.circle_intersection_params over the
        # candidate trees — identical arithmetic, no per-tree allocations
        ax, ay = observer.x, observer.y
        bx, by = target.x, target.y
        length = math.hypot(ax - bx, ay - by)
        if length == 0.0:
            return 0.0
        dx = bx - ax
        dy = by - ay
        seg_norm_sq = dx * dx + dy * dy
        sqrt = math.sqrt
        total = 0.0
        if seg_norm_sq == 0.0:
            # denormal endpoint separation: length is nonzero but the squared
            # direction underflows.  Mirror Segment.circle_intersection_params,
            # which treats a == 0.0 as a point segment covered by any canopy
            # the point sits inside.
            for tree in self._trees_near(ax, ay, bx, by, 5.0):
                center = tree.position
                if math.hypot(ax - center.x, ay - center.y) <= tree.canopy_radius:
                    total += length
            return total
        # candidate lookup through the cell-rectangle memo: the bbox only
        # crosses a 10 m cell boundary every few hundred ticks of movement,
        # so the combined candidate list (in _trees_near x-major scan order)
        # is reused without touching the grid at all
        cell = self._CELL
        min_x = (ax if ax < bx else bx) - 5.0
        max_x = (ax if ax > bx else bx) + 5.0
        min_y = (ay if ay < by else by) - 5.0
        max_y = (ay if ay > by else by) + 5.0
        rect = (
            int(min_x // cell), int(max_x // cell),
            int(min_y // cell), int(max_y // cell),
        )
        cached = self._rect_canopy.get(rect)
        if cached is None:
            grid = self._grid
            tuples_map = self._cell_canopy
            keys: List[Tuple[int, int]] = []
            combined: List[Tuple[float, float, float]] = []
            for gx in range(rect[0], rect[1] + 1):
                for gy in range(rect[2], rect[3] + 1):
                    key = (gx, gy)
                    flat = tuples_map.get(key)
                    if flat is None:
                        bucket = grid.get(key)
                        if not bucket:
                            continue
                        flat = tuples_map[key] = [
                            (t.position.x, t.position.y, t.canopy_radius)
                            for t in bucket
                        ]
                    keys.append(key)
                    combined.extend(flat)
            if len(self._rect_canopy) >= self._RECT_CACHE_MAX:
                self._rect_canopy.clear()
            cached = self._rect_canopy[rect] = (combined, keys)
        combined, keys = cached
        if len(combined) >= self._CANOPY_BATCH_MIN:
            return self._canopy_blockage_batch(
                keys, ax, ay, dx, dy, seg_norm_sq, length
            )
        for cx, cy, radius in combined:
            fx = ax - cx
            fy = ay - cy
            b_coef = 2.0 * (fx * dx + fy * dy)
            c = (fx * fx + fy * fy) - radius * radius
            disc = b_coef * b_coef - 4.0 * seg_norm_sq * c
            if disc < 0.0:
                continue
            sqrt_disc = sqrt(disc)
            t0 = (-b_coef - sqrt_disc) / (2.0 * seg_norm_sq)
            t1 = (-b_coef + sqrt_disc) / (2.0 * seg_norm_sq)
            lo = t0 if t0 > 0.0 else 0.0
            hi = t1 if t1 < 1.0 else 1.0
            if lo > hi:
                continue
            total += (hi - lo) * length
        return total

    #: capacity of the concatenated-candidate-columns memo
    _CONCAT_CACHE_MAX = 256

    #: capacity of each cell-rectangle candidate memo (canopy and trunk);
    #: keys only change when an endpoint crosses a 10 m cell boundary, so
    #: even fleet-scale scenarios stay far below this
    _RECT_CACHE_MAX = 4096

    def _canopy_blockage_batch(
        self,
        keys: List[Tuple[int, int]],
        ax: float,
        ay: float,
        dx: float,
        dy: float,
        seg_norm_sq: float,
        length: float,
    ) -> float:
        """Vectorised canopy sweep, bit-identical to the scalar loop.

        Candidate cells arrive in :meth:`_trees_near` scan order and their
        cached numpy columns are concatenated (memoised per cell set), so
        candidates appear in the identical sequence.  Only exact IEEE-754
        elementwise ops (``+ - * / sqrt`` and comparisons) are used, skipped
        candidates contribute an exact ``+0.0``, and the final accumulation
        folds sequentially — every float matches the scalar path bit for bit.
        """
        if perf.ACTIVE:
            perf.incr("world.canopy_batch_sweeps")
        concat_key = tuple(keys)
        arrays = self._concat_cache.get(concat_key)
        if arrays is None:
            if len(keys) == 1:
                arrays = self._cell_array(keys[0])
            else:
                parts = [self._cell_array(k) for k in keys]
                arrays = (
                    np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]),
                    np.concatenate([p[2] for p in parts]),
                )
            if len(self._concat_cache) >= self._CONCAT_CACHE_MAX:
                self._concat_cache.clear()
            self._concat_cache[concat_key] = arrays
        xs, ys, rs = arrays
        if perf.ACTIVE:
            perf.incr("world.canopy_batch_trees", len(xs))
        fx = ax - xs
        fy = ay - ys
        b_coef = 2.0 * (fx * dx + fy * dy)
        c = (fx * fx + fy * fy) - rs * rs
        disc = b_coef * b_coef - 4.0 * seg_norm_sq * c
        valid = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
        t0 = (-b_coef - sqrt_disc) / (2.0 * seg_norm_sq)
        t1 = (-b_coef + sqrt_disc) / (2.0 * seg_norm_sq)
        lo = np.where(t0 > 0.0, t0, 0.0)
        hi = np.where(t1 < 1.0, t1, 1.0)
        valid &= lo <= hi
        terms = np.where(valid, (hi - lo) * length, 0.0)
        total = 0.0
        for v in terms.tolist():
            total += v
        return total

    def trunk_blocks(self, observer: Vec2, target: Vec2) -> bool:
        """True if a trunk lies directly on the sight line."""
        # raw-float inline of Segment.distance_to_point over the candidates,
        # iterating cached per-cell flat tuples in _trees_near scan order
        ax, ay = observer.x, observer.y
        bx, by = target.x, target.y
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        hypot = math.hypot
        cell = self._CELL
        min_x = (ax if ax < bx else bx) - 1.0
        max_x = (ax if ax > bx else bx) + 1.0
        min_y = (ay if ay < by else by) - 1.0
        max_y = (ay if ay > by else by) + 1.0
        rect = (
            int(min_x // cell), int(max_x // cell),
            int(min_y // cell), int(max_y // cell),
        )
        combined = self._rect_trunk.get(rect)
        if combined is None:
            grid = self._grid
            tuples_map = self._cell_trunk
            combined = []
            for gx in range(rect[0], rect[1] + 1):
                for gy in range(rect[2], rect[3] + 1):
                    key = (gx, gy)
                    flat = tuples_map.get(key)
                    if flat is None:
                        bucket = grid.get(key)
                        if not bucket:
                            continue
                        flat = tuples_map[key] = [
                            (t.position.x, t.position.y, t.trunk_radius)
                            for t in bucket
                        ]
                    combined.extend(flat)
            if len(self._rect_trunk) >= self._RECT_CACHE_MAX:
                self._rect_trunk.clear()
            self._rect_trunk[rect] = combined
        for tx, ty, trunk in combined:
            # Do not let the endpoints' own immediate surroundings count.
            if hypot(tx - ax, ty - ay) < trunk + 0.1:
                continue
            if hypot(tx - bx, ty - by) < trunk + 0.1:
                continue
            if denom == 0.0:
                dist = hypot(ax - tx, ay - ty)
            else:
                t = ((tx - ax) * dx + (ty - ay) * dy) / denom
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                dist = hypot(ax + dx * t - tx, ay + dy * t - ty)
            if dist <= trunk:
                return True
        return False

    def terrain_blocks(
        self,
        observer: Vec2,
        observer_height: float,
        target: Vec2,
        target_height: float,
        *,
        observer_ground: Optional[float] = None,
        target_ground: Optional[float] = None,
    ) -> bool:
        """True if terrain blocks the 3-D sight line.

        ``observer_ground``/``target_ground`` optionally forward
        already-computed ground elevations (see
        :meth:`Terrain.blocks_line_of_sight`).
        """
        return self.terrain.blocks_line_of_sight(
            observer, observer_height, target, target_height,
            observer_ground=observer_ground, target_ground=target_ground,
        )

    def is_traversable(self, p: Vec2, clearance: float = 1.5) -> bool:
        """True if a ground vehicle can occupy ``p``.

        A position is blocked by nearby trunks or by excessive slope.
        """
        if not self.terrain.contains(p):
            return False
        if self.terrain.slope_at(p) > 0.45:
            return False
        for tree in self.trees_within(p, clearance + 1.0):
            if tree.position.distance_to(p) < tree.trunk_radius + clearance:
                return False
        return True


def generate_forest(
    streams: RngStreams,
    *,
    width: float = 300.0,
    height: float = 300.0,
    tree_density: float = 0.02,
    clearings: Optional[Sequence[Zone]] = None,
    n_ridges: int = 4,
    ridge_height: float = 6.0,
) -> World:
    """Generate a deterministic forest worksite.

    Parameters
    ----------
    tree_density:
        Trees per square metre outside clearings (0.02 ≈ managed boreal stand).
    clearings:
        Zones kept free of trees (harvest site, landing area, routes).
    """
    terrain = generate_terrain(
        width, height, streams, n_ridges=n_ridges, ridge_height=ridge_height
    )
    rng = streams.stream("forest")
    clearings = list(clearings or [])
    n_trees = int(width * height * tree_density)
    trees = []
    attempts = 0
    while len(trees) < n_trees and attempts < n_trees * 10:
        attempts += 1
        p = Vec2(rng.uniform(0.0, width), rng.uniform(0.0, height))
        if any(zone.contains(p) for zone in clearings):
            continue
        canopy = rng.uniform(1.5, 3.5)
        trunk = rng.uniform(0.15, 0.45)
        tall = rng.uniform(12.0, 26.0)
        trees.append(
            Tree(position=p, canopy_radius=canopy, trunk_radius=trunk, height=tall)
        )
    world = World(terrain, trees=trees, zones=clearings)
    return world
