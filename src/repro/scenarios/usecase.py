"""The Figure 2 minimal use case: occlusion and the collaborative drone.

"The collaborative drone allows for an additional point of view to eliminate
occlusions caused by terrain obstacles."  The use case places the forwarder
behind a terrain ridge while a person approaches from the occluded side;
with the drone's elevated camera in the loop the approach is detected early,
without it late or never.  ``run_episode`` executes one approach episode and
reports detection outcome and timing — the unit of measurement of E-F2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sensors.camera import Camera
from repro.sensors.degradation import DegradationModel
from repro.sensors.detection import PeopleDetector
from repro.sensors.occlusion import OcclusionModel
from repro.safety.people_detection import CollaborativePeopleDetection
from repro.sim.drone import Drone
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.forwarder import Forwarder
from repro.sim.geometry import Vec2
from repro.sim.human import Human
from repro.sim.missions import LogPile, MissionPlan
from repro.sim.rng import RngStreams
from repro.sim.terrain import Ridge, Terrain
from repro.sim.weather import Weather, WeatherState
from repro.sim.world import Tree, World, Zone


@dataclass
class UsecaseConfig:
    """Knobs of the minimal use case."""

    seed: int = 1
    drone_enabled: bool = True
    ridge_height: float = 10.0
    ridge_sigma: float = 18.0
    n_screen_trees: int = 40
    approach_distance_m: float = 80.0
    approach_speed: float = 1.4
    episode_timeout_s: float = 120.0
    stop_distance_m: float = 12.0
    weather: WeatherState = WeatherState.CLEAR


@dataclass
class EpisodeResult:
    """Outcome of one approach episode."""

    detected: bool
    detection_time_s: Optional[float]
    detection_distance_m: Optional[float]
    stopped_in_time: bool
    min_separation_m: float
    sources: List[str] = field(default_factory=list)


class OcclusionUsecase:
    """One composed Figure 2 set-up."""

    def __init__(self, config: UsecaseConfig) -> None:
        self.config = config
        self.streams = RngStreams(config.seed)
        self.sim = Simulator()
        self.log = EventLog()
        self.world = self._build_world()
        self.occlusion = OcclusionModel(self.world)
        self.weather = Weather(
            self.sim, self.streams, initial=config.weather, frozen=True
        )
        degradation = DegradationModel(self.weather)

        # forwarder shuttling west of the ridge: short handling times keep it
        # in motion for most of the episode, so a late detection means a
        # moving machine near the person (the hazardous situation)
        mission = MissionPlan(
            piles=[LogPile(Vec2(62.0, 100.0), 200.0)],
            landing_point=Vec2(30.0, 100.0),
            load_time_s=12.0,
            unload_time_s=8.0,
        )
        self.forwarder = Forwarder(
            "forwarder", self.sim, self.log, Vec2(55.0, 100.0), self.world, mission,
            max_speed=2.0,
        )
        self.drone: Optional[Drone] = None
        self.detectors: List[PeopleDetector] = []
        cam_fwd = Camera("cam-forwarder", self.forwarder, self.occlusion,
                         degradation, nominal_range=35.0)
        self.detectors.append(PeopleDetector(cam_fwd, self.streams))
        if config.drone_enabled:
            self.drone = Drone(
                "drone", self.sim, self.log, Vec2(60.0, 95.0),
                target=self.forwarder, altitude=45.0, orbit_radius=12.0,
            )
            cam_drone = Camera("cam-drone", self.drone, self.occlusion,
                               degradation, nominal_range=80.0)
            self.detectors.append(PeopleDetector(cam_drone, self.streams))

        # person anchored east of the ridge, fully occluded from the forwarder
        self.person = Human(
            "person", self.sim, self.log, self.streams,
            Vec2(55.0 + config.approach_distance_m, 100.0),
            wander_radius=0.0, approach_target=self.forwarder,
        )
        self.person.max_speed = config.approach_speed

        self.safety_function = CollaborativePeopleDetection(
            self.forwarder, self.sim, self.log, self.detectors,
            people_fn=lambda: [self.person],
            stop_distance_m=config.stop_distance_m,
        )

    def _build_world(self) -> World:
        config = self.config
        ridge = Ridge(center=Vec2(95.0, 100.0), height=config.ridge_height,
                      sigma=config.ridge_sigma)
        terrain = Terrain(220.0, 200.0, ridges=[ridge])
        world = World(terrain)
        # a screen of trees along the ridge adds canopy occlusion
        rng = self.streams.stream("usecase.trees")
        for _ in range(config.n_screen_trees):
            x = rng.uniform(85.0, 110.0)
            y = rng.uniform(70.0, 130.0)
            world.add_tree(Tree(Vec2(x, y), canopy_radius=rng.uniform(2.0, 3.5)))
        world.add_zone(Zone("work", Vec2(20.0, 60.0), Vec2(200.0, 140.0)))
        return world

    def run_episode(self) -> EpisodeResult:
        """Run one approach episode to completion or timeout."""
        config = self.config
        self.person.start_approach(self.forwarder)
        start = self.sim.now
        min_separation = self.person.distance_to(self.forwarder)
        detected_at: Optional[float] = None
        detected_dist: Optional[float] = None
        endangered = False
        horizon = start + config.episode_timeout_s
        step = 0.5
        while self.sim.now < horizon:
            self.sim.run_until(self.sim.now + step)
            separation = self.person.distance_to(self.forwarder)
            min_separation = min(min_separation, separation)
            if separation < 6.0 and self.forwarder.state.speed > 0.05:
                endangered = True
            if detected_at is None:
                confirm = self.safety_function.first_confirm_times.get("person")
                if confirm is not None:
                    detected_at = confirm - start
                    detected_dist = separation
            if separation < 2.0:
                break
        sources: List[str] = []
        for track in self.safety_function.fusion.tracks.values():
            if track.target == "person":
                sources = list(track.sources)
        stopped = not endangered
        return EpisodeResult(
            detected=detected_at is not None,
            detection_time_s=detected_at,
            detection_distance_m=detected_dist,
            stopped_in_time=stopped,
            min_separation_m=min_separation,
            sources=sources,
        )


def build_usecase(config: Optional[UsecaseConfig] = None) -> OcclusionUsecase:
    """Compose the Figure 2 minimal use case."""
    return OcclusionUsecase(config or UsecaseConfig())
