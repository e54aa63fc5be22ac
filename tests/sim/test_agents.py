"""Unit tests for forwarder, drone, human and harvester agents."""

import pytest

from repro.sim.drone import Drone, DroneMode
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.forwarder import Forwarder
from repro.sim.geometry import Vec2
from repro.sim.harvester import Harvester
from repro.sim.human import Human, HumanBehaviour
from repro.sim.missions import LogPile, MissionPhase, MissionPlan
from repro.sim.rng import RngStreams
from repro.sim.terrain import Terrain
from repro.sim.world import World


@pytest.fixture
def world():
    return World(Terrain(200, 200))


def make_mission(volume=24.0):
    return MissionPlan(
        piles=[LogPile(Vec2(30, 30), volume)],
        landing_point=Vec2(150, 150),
        load_time_s=10.0,
        unload_time_s=10.0,
    )


class TestMissionPlan:
    def test_pile_take(self):
        pile = LogPile(Vec2(0, 0), 10.0)
        assert pile.take(4.0) == 4.0
        assert pile.take(100.0) == 6.0
        assert pile.exhausted

    def test_next_pile_skips_exhausted(self):
        plan = make_mission()
        plan.piles[0].take(100.0)
        assert plan.next_pile() is None
        assert plan.complete

    def test_record_delivery(self):
        plan = make_mission()
        plan.record_delivery(12.0)
        assert plan.delivered_m3 == 12.0
        assert plan.cycles_completed == 1


class TestForwarder:
    def test_completes_mission(self, sim, log, world):
        mission = make_mission(volume=20.0)
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, mission)
        sim.run_until(600.0)
        assert mission.complete
        assert mission.delivered_m3 == pytest.approx(20.0)
        assert mission.cycles_completed == 2
        assert log.count("mission_complete") == 1

    def test_safe_stop_halts_and_suspends(self, sim, log, world):
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, make_mission())
        sim.run_until(10.0)
        fwd.safe_stop("test")
        assert fwd.phase is MissionPhase.SAFE_STOP
        assert fwd.state.speed == 0.0
        position = fwd.position
        sim.run_until(30.0)
        assert fwd.position == position

    def test_safe_stop_resumes_mission(self, sim, log, world):
        mission = make_mission(volume=10.0)
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, mission)
        sim.run_until(10.0)
        fwd.safe_stop("test")
        sim.run_until(60.0)
        fwd.clear_safe_stop("test")
        sim.run_until(800.0)
        assert mission.complete

    def test_safe_stop_during_loading_recovers(self, sim, log, world):
        mission = make_mission(volume=10.0)
        fwd = Forwarder("f", sim, log, Vec2(31, 31), world, mission)
        # wait until loading starts, then stop mid-load
        while fwd.phase is not MissionPhase.LOADING and sim.now < 120.0:
            sim.run_until(sim.now + 1.0)
        assert fwd.phase is MissionPhase.LOADING
        fwd.safe_stop("midload")
        sim.run_until(sim.now + 60.0)
        fwd.clear_safe_stop("midload")
        sim.run_until(sim.now + 600.0)
        assert mission.complete

    def test_multiple_stop_reasons(self, sim, log, world):
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, make_mission())
        fwd.safe_stop("a")
        fwd.safe_stop("b")
        fwd.clear_safe_stop("a")
        assert fwd.safe_stopped
        fwd.clear_safe_stop("b")
        assert not fwd.safe_stopped

    def test_speed_limit_caps_motion(self, sim, log, world):
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, make_mission())
        fwd.set_speed_limit(0.5)
        sim.run_until(30.0)
        assert fwd.state.speed <= 0.5 + 1e-9

    def test_command_interface(self, sim, log, world):
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, make_mission())
        assert fwd.handle_command("emergency_stop")
        assert fwd.safe_stopped
        assert fwd.handle_command("resume")
        assert not fwd.safe_stopped
        assert fwd.handle_command("set_speed_limit", limit=1.0)
        assert fwd.speed_limit == 1.0
        assert not fwd.handle_command("self_destruct")
        assert log.count("unknown_command") == 1

    def test_goto_command_requires_coordinates(self, sim, log, world):
        fwd = Forwarder("f", sim, log, Vec2(50, 50), world, make_mission())
        assert not fwd.handle_command("goto")
        assert fwd.handle_command("goto", x=60.0, y=60.0)


class TestDrone:
    def test_tracks_target(self, sim, log, world):
        target = Forwarder("f", sim, log, Vec2(100, 100), world, None)
        drone = Drone("d", sim, log, Vec2(0, 0), target=target, orbit_radius=10.0)
        sim.run_until(120.0)
        assert drone.position.distance_to(target.position) < 30.0
        assert drone.mode is DroneMode.TRACKING

    def test_battery_return_and_recharge_cycle(self, sim, log):
        drone = Drone(
            "d", sim, log, Vec2(0, 0), battery_capacity_s=120.0,
            recharge_time_s=60.0,
        )
        sim.run_until(100.0)
        assert drone.mode is DroneMode.RETURNING or drone.mode is DroneMode.CHARGING
        sim.run_until(400.0)
        # after recharge the drone relaunches
        assert log.count("drone_landed") >= 1
        assert log.count("drone_launched") >= 1

    def test_grounding(self, sim, log):
        drone = Drone("d", sim, log, Vec2(0, 0))
        drone.ground("attack")
        assert drone.mode is DroneMode.GROUNDED
        assert drone.state.altitude == 0.0
        sim.run_until(50.0)
        assert drone.mode is DroneMode.GROUNDED

    def test_battery_fraction_decreases_in_flight(self, sim, log):
        drone = Drone("d", sim, log, Vec2(0, 0))
        sim.run_until(60.0)
        assert drone.battery_fraction < 1.0
        assert drone.airborne


class TestHuman:
    def test_spontaneous_approaches(self, sim, log, streams, world):
        target = Forwarder("f", sim, log, Vec2(100, 100), world, None)
        human = Human(
            "h", sim, log, streams, Vec2(50, 50),
            approach_target=target, approach_rate_per_h=30.0,
        )
        sim.run_until(3600.0)
        assert log.count("approach_started") >= 10

    def test_approach_breaks_off_near_target(self, sim, log, streams, world):
        target = Forwarder("f", sim, log, Vec2(70, 50), world, None)
        human = Human("h", sim, log, streams, Vec2(50, 50), approach_target=target)
        human.start_approach()
        sim.run_until(60.0)
        assert human.behaviour is not HumanBehaviour.APPROACHING
        assert log.count("approach_ended") == 1

    def test_wanders_near_anchor(self, sim, log, streams):
        human = Human("h", sim, log, streams, Vec2(50, 50), wander_radius=10.0)
        sim.run_until(600.0)
        assert human.position.distance_to(Vec2(50, 50)) < 25.0


class TestHarvester:
    def test_produces_piles(self, sim, log, streams):
        harvester = Harvester(
            "h", sim, log, streams, Vec2(10, 10),
            cutting_positions=[Vec2(20, 10), Vec2(30, 10)],
            work_time_s=50.0,
        )
        sim.run_until(400.0)
        assert len(harvester.piles_produced) == 2
        assert log.count("pile_produced") == 2
        assert log.count("harvest_complete") == 1

    def test_idle_without_queue(self, sim, log, streams):
        harvester = Harvester("h", sim, log, streams, Vec2(10, 10))
        sim.run_until(100.0)
        assert harvester.piles_produced == []
