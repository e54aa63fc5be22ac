"""The forestry worksite world: trees, zones, obstacles, line of sight.

This is the substrate for the paper's Figure 1: an area of forest containing a
harvesting site, a landing area connected by an extraction route, standing
trees that occlude sensors and block paths, and named operational zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    obstruction queries stay fast for thousands of trees.  Sight-line
    queries (:meth:`canopy_blockage`, :meth:`trunk_blocks`) scan a band
    memo keyed on the endpoints' grid cells: each entry holds only the
    trees that can touch a line between those two cells, in
    :meth:`_trees_near` scan order.  That is exact only because no canopy
    or trunk radius exceeds :attr:`_PAD`, which the constructor and
    :meth:`add_tree` enforce.
    """

    _CELL = 10.0  # metres; coarse grid cell for the tree index

    #: largest canopy or trunk radius a tree may have (the constructor and
    #: ``add_tree`` refuse larger ones), so no tree farther than this from a
    #: sight line touches it
    _PAD = 5.0
    #: band-memo reach: every point of a line from cell A to cell B lies
    #: within half a cell diagonal of the segment joining the two cells'
    #: centres, so the trees within this distance of that segment include
    #: every tree within _PAD of the line; 1e-6 m absorbs rounding
    _BAND_REACH = _PAD + _CELL * math.sqrt(0.5) + 1e-6
    #: band-memo capacity (cleared when full): keys change only when an
    #: endpoint crosses a 10 m cell boundary, so even fleet-scale scenarios
    #: stay far below this
    _BAND_CACHE_MAX = 4096

    #: canopy-cache key resolution: positions are quantised to millimetres,
    #: so endpoints within 0.5 mm share an entry (static machines re-query
    #: bit-identical positions every frame; anything moving changes key)
    _CANOPY_QUANTUM = 1000.0
    #: LRU capacity of the canopy memo: long fuzz sessions with moving
    #: endpoints would otherwise grow the mm-quantised key space without
    #: bound.  Hot static-link keys are touched every frame, so eviction
    #: only sheds one-shot keys from moving endpoints.
    _CANOPY_CACHE_MAX = 65536

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
        # endpoint-cell pair -> [(x, y, canopy_radius, trunk_radius), ...]
        self._band_cache: Dict[
            Tuple[int, int, int, int], List[Tuple[float, float, float, float]]
        ] = {}
        # both memos are still empty: nothing to invalidate per tree
        for tree in trees or []:
            self._index(tree)
        for zone in zones or []:
            self.add_zone(zone)

    @property
    def width(self) -> float:
        return self.terrain.width

    @property
    def height(self) -> float:
        return self.terrain.height

    def _index(self, tree: Tree) -> None:
        if tree.canopy_radius > self._PAD or tree.trunk_radius > self._PAD:
            raise ValueError(
                f"tree radii must not exceed {self._PAD} m: canopy "
                f"{tree.canopy_radius}, trunk {tree.trunk_radius}"
            )
        self.trees.append(tree)
        self._grid.setdefault(self._cell(tree.position), []).append(tree)

    def add_tree(self, tree: Tree) -> None:
        self._index(tree)
        # the forest changed: every memoised sight line is stale
        self._canopy_cache.clear()
        self._band_cache.clear()

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

    def _band(
        self, ax: float, ay: float, bx: float, by: float
    ) -> List[Tuple[float, float, float, float]]:
        """``(x, y, canopy_radius, trunk_radius)`` of every tree that can
        touch a sight line from ``a``'s grid cell to ``b``'s.

        The entry holds each tree within :attr:`_BAND_REACH` of the segment
        joining the two cells' centres, in :meth:`_trees_near` scan order,
        and is memoised per endpoint-cell pair.  The relative order of the
        trees a line meets is the same as in a bounding-box scan, so float
        sums over them come out bit for bit the same.
        """
        cell = self._CELL
        key = (int(ax // cell), int(ay // cell), int(bx // cell), int(by // cell))
        band = self._band_cache.get(key)
        if band is not None:
            return band
        half = cell / 2.0
        px = key[0] * cell + half
        py = key[1] * cell + half
        ux = key[2] * cell + half - px
        uy = key[3] * cell + half - py
        norm_sq = ux * ux + uy * uy
        reach = self._BAND_REACH
        reach_sq = reach * reach
        band = []
        for tree in self._trees_near(px, py, px + ux, py + uy, reach):
            x = tree.position.x
            y = tree.position.y
            t = 0.0
            if norm_sq > 0.0:
                t = ((x - px) * ux + (y - py) * uy) / norm_sq
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            ex = px + ux * t - x
            ey = py + uy * t - y
            if ex * ex + ey * ey <= reach_sq:
                band.append((x, y, tree.canopy_radius, tree.trunk_radius))
        if len(self._band_cache) >= self._BAND_CACHE_MAX:
            self._band_cache.clear()
        self._band_cache[key] = band
        return band

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
            for tree in self._trees_near(ax, ay, bx, by, self._PAD):
                center = tree.position
                if math.hypot(ax - center.x, ay - center.y) <= tree.canopy_radius:
                    total += length
            return total
        # band trees the line misses fail `disc < 0` or `lo > hi`; the ones
        # it meets come in bounding-box scan order, so the sum is unchanged
        for cx, cy, radius, _ in self._band(ax, ay, bx, by):
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

    def trunk_blocks(self, observer: Vec2, target: Vec2) -> bool:
        """True if a trunk lies directly on the sight line.

        A trunk within ``trunk_radius + 0.1`` m of either endpoint belongs
        to that endpoint's own surroundings and never blocks.
        """
        # raw-float inline of Segment.distance_to_point over the band trees
        ax, ay = observer.x, observer.y
        bx, by = target.x, target.y
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        if denom == 0.0:
            # a point sight line: any trunk that reaches it is within its
            # radius of both endpoints, so the exclusions below drop it
            return False
        hypot = math.hypot
        for tx, ty, _, trunk in self._band(ax, ay, bx, by):
            t = ((tx - ax) * dx + (ty - ay) * dy) / denom
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            ex = ax + dx * t - tx
            ey = ay + dy * t - ty
            # squared-distance pre-test with a margin far above rounding,
            # so only trees the exact test could accept pay for hypot
            reach = trunk + 1e-6
            if ex * ex + ey * ey > reach * reach:
                continue
            # Do not let the endpoints' own immediate surroundings count.
            if (
                hypot(ex, ey) <= trunk
                and not hypot(tx - ax, ty - ay) < trunk + 0.1
                and not hypot(tx - bx, ty - by) < trunk + 0.1
            ):
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
    random = streams.stream("forest").random
    clearings = list(clearings or [])
    # closed rectangles, as Zone.contains tests them
    boxes = [
        (z.min_corner.x, z.max_corner.x, z.min_corner.y, z.max_corner.y)
        for z in clearings
    ]
    n_trees = int(width * height * tree_density)
    trees = []
    attempts = 0
    # each draw is rng.uniform(a, b)'s own expression, a + (b - a) *
    # random(), so the trees and the stream state are uniform()'s; a Vec2
    # and a Tree are built for accepted draws only
    while len(trees) < n_trees and attempts < n_trees * 10:
        attempts += 1
        x = 0.0 + (width - 0.0) * random()
        y = 0.0 + (height - 0.0) * random()
        for x_lo, x_hi, y_lo, y_hi in boxes:
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                break
        else:
            canopy = 1.5 + (3.5 - 1.5) * random()
            trunk = 0.15 + (0.45 - 0.15) * random()
            tall = 12.0 + (26.0 - 12.0) * random()
            trees.append(Tree(Vec2(x, y), canopy, trunk, tall))
    world = World(terrain, trees=trees, zones=clearings)
    return world
