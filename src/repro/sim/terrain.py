"""Terrain model: a heightmap grid with slopes and ridge occluders.

Forestry worksites are uneven; the paper's Figure 2 motivates the drone by
terrain obstacles occluding the forwarder's sensors.  The terrain here is a
regular grid of heights generated by summing a few smooth ridges, giving
deterministic, parameterisable occlusion without a physics engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.perf import counters as perf
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams

#: safety margin for the ridge-bound quick reject, metres.  The bound is
#: mathematically an upper limit of the ridge sum along the segment; the
#: margin absorbs its floating-point rounding (relative ~1e-16 of metre-scale
#: heights), so a reject can never disagree with the sampled scalar sweep.
_LOS_REJECT_MARGIN = 1e-9


@dataclass(frozen=True, slots=True)
class Ridge:
    """A smooth Gaussian ridge contributing to the heightmap."""

    center: Vec2
    height: float
    sigma: float

    def height_at(self, p: Vec2) -> float:
        d2 = (p - self.center).norm_sq()
        return self.height * math.exp(-d2 / (2.0 * self.sigma * self.sigma))


#: half the central-difference step of :meth:`Terrain.slope_at`, metres
SLOPE_STEP_M = 0.5
#: mean width (Gaussian sigma) of a generated ridge, metres
RIDGE_SIGMA = 25.0


class Terrain:
    """Continuous terrain defined by a sum of ridges over a flat base.

    Parameters
    ----------
    width, height:
        Extent of the worksite in metres.
    ridges:
        Ridge features; an empty list gives perfectly flat terrain.
    """

    #: ground level, metres
    base_height = 0.0

    def __init__(
        self,
        width: float,
        height: float,
        ridges: Optional[Sequence[Ridge]] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("terrain extent must be positive")
        self.width = float(width)
        self.height = float(height)
        self.ridges: List[Ridge] = list(ridges or [])
        # flattened per-ridge constants for the hot evaluation loops:
        # (center_x, center_y, height, 2*sigma^2); ridges are fixed after
        # construction
        self._ridge_params = [
            (r.center.x, r.center.y, r.height, 2.0 * r.sigma * r.sigma)
            for r in self.ridges
        ]
        # exact-position elevation memo: sensor sweeps re-evaluate the same
        # endpoints several times per tick (one camera against N targets,
        # N cameras against one person).  Ridges are fixed after
        # construction, so entries never go stale; the cap only bounds
        # memory against ever-moving query points.
        self._height_cache: dict = {}

    _HEIGHT_CACHE_MAX = 8192

    def contains(self, p: Vec2) -> bool:
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height

    def height_at(self, p: Vec2) -> float:
        """Terrain elevation at ``p`` in metres."""
        x, y = p.x, p.y
        cache = self._height_cache
        key = (x, y)
        cached = cache.get(key)
        if cached is not None:
            return cached
        exp = math.exp
        total = 0.0
        for cx, cy, h, two_sigma_sq in self._ridge_params:
            dx = x - cx
            dy = y - cy
            total += h * exp(-(dx * dx + dy * dy) / two_sigma_sq)
        result = self.base_height + total
        if len(cache) >= self._HEIGHT_CACHE_MAX:
            cache.clear()
        cache[key] = result
        return result

    def slope_at(self, p: Vec2) -> float:
        """Magnitude of the terrain gradient at ``p`` (rise over run)."""
        eps = SLOPE_STEP_M
        hx = (
            self.height_at(Vec2(p.x + eps, p.y)) - self.height_at(Vec2(p.x - eps, p.y))
        ) / (2.0 * eps)
        hy = (
            self.height_at(Vec2(p.x, p.y + eps)) - self.height_at(Vec2(p.x, p.y - eps))
        ) / (2.0 * eps)
        return math.hypot(hx, hy)

    def blocks_line_of_sight(
        self,
        observer: Vec2,
        observer_height: float,
        target: Vec2,
        target_height: float,
        samples: int = 32,
        *,
        observer_ground: Optional[float] = None,
        target_ground: Optional[float] = None,
    ) -> bool:
        """True if terrain rises above the observer→target sight line.

        The sight line is sampled at ``samples`` interior points; terrain
        higher than the interpolated line altitude at any sample blocks it.
        An elevated observer (the drone) clears ridges a ground observer
        cannot — exactly the Figure 2 effect.

        Callers that already evaluated the ground elevation at either
        endpoint (the occlusion layer does, for the elevation angle) may
        pass it via ``observer_ground``/``target_ground`` to skip the
        duplicate ridge sums; the values must equal ``height_at`` exactly.

        A quick reject runs first: each ridge's contribution anywhere on
        the segment is bounded by its value at the segment's closest point.
        When the summed bound stays below the sight line's lowest end
        (minus a safety margin), no sample can block and the sampled sweep
        is skipped (one ``exp`` per ridge instead of one per ridge per
        sample).  The verdict is identical to the plain sampled sweep.
        """
        if observer_ground is None:
            observer_ground = self.height_at(observer)
        if target_ground is None:
            target_ground = self.height_at(target)
        z0 = observer_ground + observer_height
        z1 = target_ground + target_height
        # inline of height_at over the interior samples: one lerp and one
        # ridge-sum per sample without Vec2 allocations
        ox, oy = observer.x, observer.y
        tx, ty = target.x, target.y
        span_x = tx - ox
        span_y = ty - oy
        params = self._ridge_params
        base = self.base_height
        exp = math.exp
        # stage 1: conservative per-ridge bound at the segment's closest point
        zmin = z0 if z0 < z1 else z1
        denom = span_x * span_x + span_y * span_y
        bound = 0.0
        for cx, cy, h, two_sigma_sq in params:
            if denom == 0.0:
                fx = ox - cx
                fy = oy - cy
            else:
                t = ((cx - ox) * span_x + (cy - oy) * span_y) / denom
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                fx = ox + span_x * t - cx
                fy = oy + span_y * t - cy
            bound += h * exp(-(fx * fx + fy * fy) / two_sigma_sq)
        if base + bound < zmin - _LOS_REJECT_MARGIN:
            if perf.ACTIVE:
                perf.incr("terrain.los_quick_reject")
            return False
        # stage 2: the sampled sweep
        for i in range(1, samples):
            t = i / samples
            px = ox + span_x * t
            py = oy + span_y * t
            line_z = z0 + (z1 - z0) * t
            total = 0.0
            for cx, cy, h, two_sigma_sq in params:
                dx = px - cx
                dy = py - cy
                total += h * exp(-(dx * dx + dy * dy) / two_sigma_sq)
            if base + total > line_z:
                return True
        return False


def generate_terrain(
    width: float,
    height: float,
    streams: RngStreams,
    *,
    n_ridges: int = 4,
    ridge_height: float = 6.0,
) -> Terrain:
    """Generate deterministic rolling terrain from the ``terrain`` RNG stream."""
    rng = streams.stream("terrain")
    ridges = []
    for _ in range(n_ridges):
        center = Vec2(rng.uniform(0.0, width), rng.uniform(0.0, height))
        h = rng.uniform(0.5, 1.0) * ridge_height
        sigma = rng.uniform(0.6, 1.4) * RIDGE_SIGMA
        ridges.append(Ridge(center=center, height=h, sigma=sigma))
    return Terrain(width, height, ridges)
