"""Disaster recovery and operational continuity.

Table I, "Natural Disasters": "Cybersecurity measures should consider
disaster recovery and business continuity planning to address cybersecurity
issues that may arise during and after such events."

The model: a :class:`RecoveryPlan` declares per-service recovery objectives
(RTO/RPO) and fallback modes; the :class:`ContinuityManager` tracks service
outages (from comms loss, attack, or disaster events), activates fallbacks,
and reports objective compliance afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.telemetry import tracer as trace


@dataclass(frozen=True)
class ServiceObjective:
    """Recovery objectives for one service.

    Attributes
    ----------
    service:
        Service name (e.g. ``"command_link"``, ``"detection_relay"``).
    rto_s:
        Recovery Time Objective: max tolerated outage duration.
    rpo_s:
        Recovery Point Objective: max tolerated data loss window.
    fallback:
        Degraded mode activated during an outage (e.g. ``"safe_stop"``,
        ``"autonomous_slow"``, ``"store_and_forward"``).
    """

    service: str
    rto_s: float
    rpo_s: float
    fallback: str


@dataclass
class Outage:
    """One service outage episode."""

    service: str
    started_at: float
    ended_at: Optional[float] = None
    fallback_activated: bool = False
    cause: str = "unknown"

    @property
    def duration(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def downtime(self, now: float) -> float:
        """Time down: to the repair, or up to ``now`` while still open."""
        end = self.ended_at if self.ended_at is not None else now
        return end - self.started_at


class RecoveryPlan:
    """The declared continuity plan: objectives per service."""

    def __init__(self, objectives: List[ServiceObjective]) -> None:
        self.objectives: Dict[str, ServiceObjective] = {
            obj.service: obj for obj in objectives
        }

    def objective(self, service: str) -> Optional[ServiceObjective]:
        return self.objectives.get(service)

    @staticmethod
    def worksite_default() -> "RecoveryPlan":
        """The default worksite plan used by the scenarios."""
        return RecoveryPlan([
            ServiceObjective("command_link", rto_s=30.0, rpo_s=5.0, fallback="safe_stop"),
            ServiceObjective("detection_relay", rto_s=10.0, rpo_s=2.0,
                             fallback="reduced_speed"),
            ServiceObjective("telemetry", rto_s=120.0, rpo_s=60.0,
                             fallback="store_and_forward"),
            ServiceObjective("gnss_positioning", rto_s=20.0, rpo_s=5.0,
                             fallback="dead_reckoning"),
        ])


class ContinuityManager:
    """Tracks outages against the plan and activates fallbacks."""

    def __init__(
        self,
        plan: RecoveryPlan,
        sim: Simulator,
        log: EventLog,
        *,
        scope: Optional[str] = None,
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.log = log
        #: machine this manager accounts for (labels trace records when
        #: several managers share one trace, e.g. forwarder + drone)
        self.scope = scope
        self.outages: List[Outage] = []
        self._open: Dict[str, Outage] = {}

    def service_down(self, service: str, cause: str = "unknown") -> Optional[str]:
        """Report a service outage; returns the activated fallback mode."""
        if service in self._open:
            return None
        outage = Outage(service=service, started_at=self.sim.now, cause=cause)
        self._open[service] = outage
        self.outages.append(outage)
        objective = self.plan.objective(service)
        fallback = None
        if objective is not None:
            outage.fallback_activated = True
            fallback = objective.fallback
        self.log.emit(
            self.sim.now, EventCategory.SYSTEM, "service_down", service,
            cause=cause, fallback=fallback,
        )
        if trace.ACTIVE:
            trace.TRACER.service_down(service, cause, machine=self.scope)
        return fallback

    def service_up(self, service: str) -> None:
        """Report service restoration."""
        outage = self._open.pop(service, None)
        if outage is None:
            return
        outage.ended_at = self.sim.now
        self.log.emit(
            self.sim.now, EventCategory.SYSTEM, "service_up", service,
            outage_s=round(outage.duration or 0.0, 1),
        )
        if trace.ACTIVE:
            trace.TRACER.service_up(
                service, outage.duration or 0.0, machine=self.scope
            )

    def compliance_report(self) -> Dict[str, dict]:
        """Per-service RTO compliance over all outages; one still open is
        charged up to the current time."""
        now = self.sim.now
        report: Dict[str, dict] = {}
        for service, objective in self.plan.objectives.items():
            durations = [
                o.downtime(now) for o in self.outages if o.service == service
            ]
            violations = [d for d in durations if d > objective.rto_s]
            report[service] = {
                "outages": len(durations),
                "rto_s": objective.rto_s,
                "worst_outage_s": max(durations) if durations else 0.0,
                "rto_violations": len(violations),
                "fallback": objective.fallback,
            }
        return report
