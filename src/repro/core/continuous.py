"""Continuous (runtime) risk assessment.

ISO/SAE 21434's continual cybersecurity activities (clauses 8, 13) require
risk to be re-evaluated as the threat picture changes.  Here the runtime
feed is the worksite itself: IDS alerts, heartbeat losses, GNSS trust state
and safety-monitor events move per-threat *activity levels*, which raise the
effective feasibility of matching threat scenarios; the posture engine
re-runs the risk matrix and drives graded operational responses
(the speed-limiter assurance tiers, ultimately safe stop).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.defense.ids.base import Alert
from repro.risk.feasibility import FeasibilityRating
from repro.risk.matrix import risk_value
from repro.risk.tara import TaraResult, ThreatAssessment
from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog


class RiskPosture(enum.IntEnum):
    """Graded operational posture, worst first."""

    NOMINAL = 0
    ELEVATED = 1
    HIGH = 2
    CRITICAL = 3


#: posture -> recommended assurance tier for the speed limiter
POSTURE_ASSURANCE = {
    RiskPosture.NOMINAL: "full",
    RiskPosture.ELEVATED: "full",
    RiskPosture.HIGH: "degraded",
    RiskPosture.CRITICAL: "minimal",
}


@dataclass
class ThreatActivity:
    """Runtime activity level of one attack type."""

    attack_type: str
    level: float = 0.0  # decays towards zero
    last_alert: Optional[float] = None
    alerts: int = 0


class ContinuousRiskAssessment:
    """Runtime risk engine over a baseline TARA.

    Parameters
    ----------
    baseline:
        The design-time TARA result (threat inventory + static ratings).
    sim, log:
        Kernel plumbing.
    decay_halflife_s:
        Activity levels halve after this long without new alerts.
    on_posture_change:
        Callback invoked with the new :class:`RiskPosture`.
    """

    #: seconds between reassessments
    interval_s = 5.0

    def __init__(
        self,
        baseline: TaraResult,
        sim: Simulator,
        log: EventLog,
        *,
        decay_halflife_s: float = 60.0,
        on_posture_change: Optional[Callable[[RiskPosture], None]] = None,
    ) -> None:
        self.baseline = baseline
        self.sim = sim
        self.log = log
        self.decay_halflife_s = decay_halflife_s
        self.on_posture_change = on_posture_change
        self.activity: Dict[str, ThreatActivity] = {}
        self.posture = RiskPosture.NOMINAL
        self.posture_history: List[tuple] = [(sim.now, RiskPosture.NOMINAL)]
        self._last_decay = sim.now
        sim.every(self.interval_s, self._reassess)

    # -- inputs ---------------------------------------------------------------
    def ingest_alert(self, alert: Alert) -> None:
        """Feed an IDS alert into the activity model."""
        activity = self.activity.setdefault(
            alert.alert_type, ThreatActivity(attack_type=alert.alert_type)
        )
        activity.level = min(3.0, activity.level + max(alert.confidence, 0.2))
        activity.last_alert = alert.time
        activity.alerts += 1

    def ingest_event(self, kind: str, weight: float = 0.5) -> None:
        """Feed a non-IDS runtime signal (heartbeat loss, GNSS distrust)."""
        activity = self.activity.setdefault(kind, ThreatActivity(attack_type=kind))
        activity.level = min(3.0, activity.level + weight)
        activity.last_alert = self.sim.now
        activity.alerts += 1

    # -- engine ---------------------------------------------------------------
    def _decay(self) -> None:
        dt = self.sim.now - self._last_decay
        if dt <= 0.0:
            return
        factor = 0.5 ** (dt / self.decay_halflife_s)
        for activity in self.activity.values():
            activity.level *= factor
        self._last_decay = self.sim.now

    def effective_feasibility(self, assessment: ThreatAssessment) -> FeasibilityRating:
        """Static feasibility raised by runtime activity on the attack type."""
        activity = self.activity.get(assessment.attack_type)
        boost = 0
        if activity is not None:
            if activity.level >= 1.5:
                boost = 2
            elif activity.level >= 0.5:
                boost = 1
        return FeasibilityRating(
            min(int(FeasibilityRating.HIGH), int(assessment.feasibility) + boost)
        )

    def current_risks(self) -> Dict[str, int]:
        """Per-threat current risk values."""
        self._decay()
        risks = {}
        for assessment in self.baseline.assessments:
            feasibility = self.effective_feasibility(assessment)
            risks[assessment.threat_id] = risk_value(assessment.impact, feasibility)
        return risks

    #: activity level above which a threat counts as actively exploited
    ACTIVE_THRESHOLD = 1.0

    def active_threats(self) -> List[ThreatAssessment]:
        """Threats whose attack type shows active exploitation right now."""
        return [
            a for a in self.baseline.assessments
            if self.activity.get(a.attack_type) is not None
            and self.activity[a.attack_type].level >= self.ACTIVE_THRESHOLD
        ]

    def _reassess(self) -> None:
        """Posture from runtime signals on top of the accepted static risk.

        Two escalation channels:

        * **elevation** — observed activity raises a threat's effective
          feasibility above its static rating (a hardened attack becoming
          practical);
        * **active exploitation** — sustained alerts on an attack type mean
          the attack is *occurring*, which escalates even when the static
          rating already called it feasible (possible ≠ in progress).
        """
        risks = self.current_risks()
        elevated = [
            a for a in self.baseline.assessments
            if risks[a.threat_id] > a.risk_value
        ]
        active = self.active_threats()
        hot = {a.threat_id: a for a in elevated + active}
        safety_hot = [
            a for a in hot.values()
            if a.safety_coupled and risks[a.threat_id] >= 4
        ]
        max_hot = max((risks[a.threat_id] for a in hot.values()), default=0)
        if safety_hot and max_hot >= 5:
            posture = RiskPosture.CRITICAL
        elif safety_hot:
            posture = RiskPosture.HIGH
        elif max_hot >= 4:
            posture = RiskPosture.ELEVATED
        elif hot:
            posture = RiskPosture.ELEVATED
        else:
            posture = RiskPosture.NOMINAL
        max_risk = max(risks.values(), default=0)
        if posture is not self.posture:
            self.posture = posture
            self.posture_history.append((self.sim.now, posture))
            self.log.emit(
                self.sim.now, EventCategory.SECURITY, "risk_posture_changed",
                "continuous-risk", posture=posture.name, max_risk=max_risk,
            )
            if self.on_posture_change is not None:
                self.on_posture_change(posture)

    # -- reporting --------------------------------------------------------------
    def time_in_posture(self, horizon_s: float) -> Dict[str, float]:
        """Seconds spent in each posture over the run."""
        durations: Dict[str, float] = {p.name: 0.0 for p in RiskPosture}
        history = list(self.posture_history) + [(horizon_s, self.posture)]
        for (t0, posture), (t1, _) in zip(history, history[1:]):
            durations[posture.name] += max(0.0, min(t1, horizon_s) - t0)
        return durations
