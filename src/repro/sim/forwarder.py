"""The autonomous forwarder: the paper's central machine.

The forwarder executes load → drive → unload cycles between the harvest site
and the landing area (:mod:`repro.sim.missions`), planning routes with the
grid planner.  Safety integration is by two hooks the safety layer drives:

* :meth:`safe_stop` / :meth:`clear_safe_stop` — triggered by the people
  detection safety function or an emergency-stop command;
* :meth:`set_speed_limit` — degraded-mode operation under reduced assurance
  (e.g. when the collaborative drone view is lost).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2
from repro.sim.missions import LogPile, MissionPhase, MissionPlan
from repro.sim.paths import GridPlanner, PathNotFound
from repro.sim.world import World
from repro.telemetry import tracer as trace


class Forwarder(Entity):
    """Autonomous log forwarder.

    Parameters
    ----------
    name, sim, log, position:
        See :class:`repro.sim.entities.Entity`.
    world:
        The worksite (for path planning).
    mission:
        The transport plan to execute; None creates an idle forwarder.
    """

    body_height = 3.2  # cab + crane base, metres

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        position: Vec2,
        world: World,
        mission: Optional[MissionPlan] = None,
        *,
        max_speed: float = 3.0,
    ) -> None:
        super().__init__(name, sim, log, position, max_speed=max_speed, max_accel=0.8)
        self.world = world
        self.planner = GridPlanner(world, clearance=2.0)
        self.mission = mission
        self.phase = MissionPhase.IDLE
        self.load_m3 = 0.0
        self.speed_limit: Optional[float] = None
        self._safe_stop_reasons: List[str] = []
        self._phase_before_stop: Optional[MissionPhase] = None
        self._current_pile: Optional[LogPile] = None
        self.safe_stops = 0
        if mission is not None:
            # begin the first cycle shortly after start
            sim.schedule(1.0, self._begin_cycle)

    # -- phase bookkeeping ----------------------------------------------------
    def _set_phase(self, phase: MissionPhase) -> None:
        """Transition the mission phase (traced when telemetry is active)."""
        prev = self.phase
        if phase is prev:
            return
        self.phase = phase
        if trace.ACTIVE:
            trace.TRACER.mission_phase(self.name, phase.value, prev.value)

    # -- safety hooks -------------------------------------------------------
    @property
    def safe_stopped(self) -> bool:
        return bool(self._safe_stop_reasons)

    def safe_stop(self, reason: str) -> None:
        """Enter the safe state: halt immediately and suspend the mission."""
        if reason not in self._safe_stop_reasons:
            self._safe_stop_reasons.append(reason)
        if self.phase is not MissionPhase.SAFE_STOP:
            self._phase_before_stop = self.phase
            self._set_phase(MissionPhase.SAFE_STOP)
            self.halt()
            self.safe_stops += 1
            self.emit(EventCategory.SAFETY, "safe_stop", reason=reason)
            if trace.ACTIVE:
                trace.TRACER.safety_intervention(
                    self.name, "safe_stop", reason=reason
                )

    def clear_safe_stop(self, reason: str) -> None:
        """Withdraw one stop reason; motion resumes when none remain."""
        if reason in self._safe_stop_reasons:
            self._safe_stop_reasons.remove(reason)
        if not self._safe_stop_reasons and self.phase is MissionPhase.SAFE_STOP:
            self._set_phase(self._phase_before_stop or MissionPhase.IDLE)
            self._phase_before_stop = None
            self.emit(EventCategory.SAFETY, "safe_stop_cleared")
            if trace.ACTIVE:
                trace.TRACER.safety_intervention(self.name, "safe_stop_cleared")
            if self.phase in (MissionPhase.TO_PILE, MissionPhase.TO_LANDING):
                self.resume(self._allowed_speed())
            elif self.phase is MissionPhase.IDLE and self.mission is not None:
                self._begin_cycle()
            elif self.phase is MissionPhase.LOADING and self.mission is not None:
                # the pending finish callback was swallowed while stopped;
                # restart the (interrupted) crane work
                self.sim.schedule(self.mission.load_time_s, self._finish_loading)
            elif self.phase is MissionPhase.UNLOADING and self.mission is not None:
                self.sim.schedule(self.mission.unload_time_s, self._finish_unloading)

    def set_speed_limit(self, limit: Optional[float]) -> None:
        """Cap speed (degraded mode); ``None`` removes the cap."""
        self.speed_limit = limit
        self.emit(EventCategory.SAFETY, "speed_limit", limit=limit)
        if trace.ACTIVE:
            trace.TRACER.safety_intervention(self.name, "speed_limit", limit=limit)
        if self.phase in (MissionPhase.TO_PILE, MissionPhase.TO_LANDING):
            self.resume(self._allowed_speed())

    def _allowed_speed(self) -> float:
        if self.speed_limit is None:
            return self.max_speed
        return min(self.max_speed, self.speed_limit)

    # -- mission state machine ------------------------------------------------
    def _begin_cycle(self) -> None:
        if self.safe_stopped or self.mission is None or not self.alive:
            return
        pile = self.mission.next_pile()
        if pile is None:
            self._set_phase(MissionPhase.IDLE)
            self.emit(EventCategory.MISSION, "mission_complete",
                      delivered_m3=self.mission.delivered_m3,
                      cycles=self.mission.cycles_completed)
            return
        self._current_pile = pile
        self._drive_to(pile.position, MissionPhase.TO_PILE)

    def _drive_to(self, destination: Vec2, phase: MissionPhase) -> None:
        try:
            route = self.planner.plan(self.position, destination)
        except PathNotFound:
            self.emit(EventCategory.MISSION, "replan_failed",
                      destination=(destination.x, destination.y))
            self._set_phase(MissionPhase.IDLE)
            return
        self._set_phase(phase)
        self.set_route(route, speed=self._allowed_speed())
        self.emit(EventCategory.MISSION, "drive_started", phase=phase.value,
                  waypoints=len(route))

    def on_route_complete(self) -> None:
        if self.phase is MissionPhase.TO_PILE:
            self._start_loading()
        elif self.phase is MissionPhase.TO_LANDING:
            self._start_unloading()

    def _start_loading(self) -> None:
        assert self.mission is not None
        self._set_phase(MissionPhase.LOADING)
        self.emit(EventCategory.MISSION, "loading_started")
        self.sim.schedule(self.mission.load_time_s, self._finish_loading)

    def _finish_loading(self) -> None:
        if self.phase is not MissionPhase.LOADING or self.mission is None:
            return
        pile = self._current_pile
        if pile is not None:
            self.load_m3 = pile.take(self.mission.load_capacity_m3)
        self.emit(EventCategory.MISSION, "loading_finished", load_m3=self.load_m3)
        self._drive_to(self.mission.landing_point, MissionPhase.TO_LANDING)

    def _start_unloading(self) -> None:
        assert self.mission is not None
        self._set_phase(MissionPhase.UNLOADING)
        self.emit(EventCategory.MISSION, "unloading_started")
        self.sim.schedule(self.mission.unload_time_s, self._finish_unloading)

    def _finish_unloading(self) -> None:
        if self.phase is not MissionPhase.UNLOADING or self.mission is None:
            return
        self.mission.record_delivery(self.load_m3)
        self.emit(EventCategory.MISSION, "unloading_finished",
                  delivered_m3=self.mission.delivered_m3)
        self.load_m3 = 0.0
        self._begin_cycle()

    # -- command interface (driven by the comms protocols) ---------------------
    def handle_command(self, command: str, **params) -> bool:
        """Execute a remote command; returns True if accepted.

        This is the surface a command-injection attack ultimately targets;
        the secure channel and access control must keep unauthorised commands
        from ever reaching it.
        """
        if command == "emergency_stop":
            self.safe_stop("remote_estop")
            return True
        if command == "resume":
            self.clear_safe_stop("remote_estop")
            return True
        if command == "set_speed_limit":
            self.set_speed_limit(params.get("limit"))
            return True
        if command == "goto":
            x, y = params.get("x"), params.get("y")
            if x is None or y is None:
                return False
            self._drive_to(Vec2(float(x), float(y)), MissionPhase.TO_LANDING)
            return True
        self.emit(EventCategory.SECURITY, "unknown_command", command=command)
        return False
