"""Line-of-sight occlusion against terrain and canopy.

This module quantifies the central geometric fact of the paper's Figure 2:
a ground-level observer behind a terrain ridge or a dense stand cannot see an
approaching person, while an elevated observer (the drone) can.

The model distinguishes three contributions:

* **terrain blockage** — the 3-D sight line intersects the ground (binary);
* **trunk blockage** — a trunk lies exactly on the ground-level line (binary);
* **canopy attenuation** — metres of canopy crossed; each metre multiplies
  visibility by ``exp(-k)`` with ``k`` the canopy extinction coefficient.

A near-vertical sight line (drone high above the target) passes under the
canopy for only a short horizontal distance, which the model captures by
scaling the canopy crossing with the elevation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.geometry import Vec2
from repro.sim.world import World

#: sight lines steeper than this pass over trunk height within metres of
#: the target, so the trunk query is skipped (see SightLine analysis)
_TRUNK_ELEVATION_LIMIT = math.radians(35.0)


@dataclass(frozen=True, slots=True)
class SightLine:
    """The occlusion analysis of one observer→target sight line.

    Attributes
    ----------
    distance:
        Horizontal range in metres.
    terrain_blocked / trunk_blocked:
        Binary blockages.
    canopy_metres:
        Effective metres of canopy crossed.
    visibility:
        Combined visibility factor in [0, 1]: zero when hard-blocked,
        otherwise the canopy attenuation factor.
    elevation_angle:
        Angle of the sight line above the horizontal, radians.
    """

    distance: float
    terrain_blocked: bool
    trunk_blocked: bool
    canopy_metres: float
    visibility: float
    elevation_angle: float

    @property
    def clear(self) -> bool:
        return not self.terrain_blocked and not self.trunk_blocked


#: height of the canopy bottom, metres; sight lines steeper than the angle
#: that clears the canopy at half range suffer reduced canopy crossing
CANOPY_BASE_HEIGHT = 4.0


class OcclusionModel:
    """Occlusion computations over a :class:`repro.sim.world.World`.

    Parameters
    ----------
    world:
        The worksite.
    canopy_extinction:
        Per-metre visibility extinction inside canopy (0.12 ≈ thinned stand).
    """

    def __init__(self, world: World, *, canopy_extinction: float = 0.12) -> None:
        self.world = world
        self.canopy_extinction = canopy_extinction

    def sight_line(
        self,
        observer: Vec2,
        observer_height: float,
        target: Vec2,
        target_height: float = 1.5,
    ) -> SightLine:
        """Analyse the sight line between observer and target."""
        world = self.world
        terrain = world.terrain
        distance = math.hypot(observer.x - target.x, observer.y - target.y)
        observer_ground = terrain.height_at(observer)
        target_ground = terrain.height_at(target)
        dz = observer_height + observer_ground - (target_height + target_ground)
        elevation = math.atan2(abs(dz), max(distance, 1e-6))

        # forward the ground elevations so the terrain sweep does not pay
        # the two endpoint ridge sums a second time
        terrain_blocked = world.terrain_blocks(
            observer, observer_height, target, target_height,
            observer_ground=observer_ground, target_ground=target_ground,
        )
        # Trunks only matter for near-horizontal sight lines; above ~35° the
        # line passes over trunk height within metres of the target.
        trunk_blocked = False
        if elevation < _TRUNK_ELEVATION_LIMIT:
            trunk_blocked = world.trunk_blocks(observer, target)

        canopy = world.canopy_blockage(observer, target)
        # A steep line crosses the canopy layer only near the target: scale
        # the effective crossing by the fraction of the path below canopy top.
        if elevation > 0.0 and observer_height > CANOPY_BASE_HEIGHT:
            mean_tree_height = 18.0
            below_frac = min(
                1.0, mean_tree_height / max(observer_height + abs(dz) * 0.0, 1e-6)
            )
            steepness_relief = max(0.1, math.cos(elevation)) * below_frac
            canopy *= steepness_relief

        visibility = 0.0
        if not terrain_blocked and not trunk_blocked:
            visibility = math.exp(-self.canopy_extinction * canopy)
        return SightLine(
            distance=distance,
            terrain_blocked=terrain_blocked,
            trunk_blocked=trunk_blocked,
            canopy_metres=canopy,
            visibility=visibility,
            elevation_angle=elevation,
        )
