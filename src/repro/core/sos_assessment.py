"""SoS-level assessment: per-system results composed with SoS structure.

Section IV-E: "Ensuring the security of individual elements is insufficient;
rather, security must be assured for the integrated system as a whole."  The
SoS assessment therefore takes:

* per-constituent TARA results (security of the elements),
* the SoS composition (dependency structure),
* the independence indices (Waller & Craddock dimensions),
* optionally a run's emergent interactions,

and produces an integrated risk picture: compromise-reach amplification
(a threat's effective impact grows with the systems reachable from its
target), SPOF findings, and an SoS risk uplift the per-system view misses —
the quantity benchmark E-S4E reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.risk.impact import ImpactRating
from repro.risk.matrix import risk_value
from repro.risk.model import ItemModel
from repro.risk.tara import TaraResult
from repro.sos.composition import SystemOfSystems
from repro.sos.emergence import EmergentInteraction
from repro.sos.independence import IndependenceReport, independence_report


@dataclass(frozen=True)
class SosThreatView:
    """One threat as seen at SoS level."""

    threat_id: str
    system: str
    standalone_risk: int
    reach: int                # systems reachable from the compromised one
    reach_amplified_risk: int # risk with reach-adjusted impact
    crosses_operators: bool


@dataclass
class SosAssessmentResult:
    """The integrated SoS assessment output."""

    independence: IndependenceReport
    threat_views: List[SosThreatView] = field(default_factory=list)
    spofs: List[str] = field(default_factory=list)
    emergent_interactions: int = 0
    emergent_safety_interactions: int = 0

    def mean_standalone_risk(self) -> float:
        if not self.threat_views:
            return 0.0
        return sum(v.standalone_risk for v in self.threat_views) / len(self.threat_views)

    def mean_sos_risk(self) -> float:
        if not self.threat_views:
            return 0.0
        return sum(v.reach_amplified_risk for v in self.threat_views) / len(
            self.threat_views
        )

    def sos_uplift(self) -> float:
        """Relative risk increase the per-system view misses."""
        base = self.mean_standalone_risk()
        if base == 0.0:
            return 0.0
        return (self.mean_sos_risk() - base) / base

    def amplified_threats(self) -> List[SosThreatView]:
        return [
            v for v in self.threat_views if v.reach_amplified_risk > v.standalone_risk
        ]


class SosAssessment:
    """Compose per-system TARA output with the SoS structure.

    Parameters
    ----------
    sos:
        The system-of-systems composition.
    item:
        The item model (asset → system mapping).
    """

    def __init__(self, sos: SystemOfSystems, item: ItemModel) -> None:
        self.sos = sos
        self.item = item

    def _system_of_threat(self, tara: TaraResult, threat_id: str) -> str:
        assessment = tara.by_threat(threat_id)
        damage = self.item.damage_scenario(assessment.damage_scenario_id)
        return self.item.asset(damage.asset_id).system

    def assess(
        self,
        tara: TaraResult,
        *,
        emergent: Sequence[EmergentInteraction] = (),
    ) -> SosAssessmentResult:
        independence = independence_report(self.sos)
        result = SosAssessmentResult(
            independence=independence,
            spofs=self.sos.single_points_of_failure(),
            emergent_interactions=len(emergent),
            emergent_safety_interactions=sum(
                1 for e in emergent if e.safety_relevant
            ),
        )
        n_systems = max(len(self.sos.systems), 1)
        for assessment in tara.assessments:
            system = self._system_of_threat(tara, assessment.threat_id)
            reach = len(self.sos.compromise_reach(system))
            # reach-adjusted impact: compromise of a hub raises effective
            # impact one step when more than half the SoS is downstream
            impact = assessment.impact
            if reach / n_systems > 0.5 and impact < ImpactRating.SEVERE:
                impact = ImpactRating(int(impact) + 1)
            amplified = risk_value(impact, assessment.feasibility)
            crosses = any(
                i.provider == system or i.consumer == system
                for i in self.sos.cross_operator_interfaces()
            )
            result.threat_views.append(
                SosThreatView(
                    threat_id=assessment.threat_id,
                    system=system,
                    standalone_risk=assessment.risk_value,
                    reach=reach,
                    reach_amplified_risk=max(amplified, assessment.risk_value),
                    crosses_operators=crosses,
                )
            )
        return result
