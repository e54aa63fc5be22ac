"""Risk treatment decisions and residual-risk computation (21434 clause 15.9).

For each assessed threat: decide among *avoid / reduce / share / retain*
based on the risk value against the acceptance threshold; for *reduce*,
select countermeasures from the catalog and re-run the feasibility rating
with the hardened attack potential to obtain the residual risk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.defense.countermeasures import Countermeasure, CountermeasureCatalog
from repro.risk.feasibility import default_potential, rate_feasibility
from repro.risk.matrix import risk_value
from repro.risk.tara import TaraResult


class TreatmentDecision(enum.Enum):
    """The four treatment options of ISO/SAE 21434."""

    AVOID = "avoid"
    REDUCE = "reduce"
    SHARE = "share"
    RETAIN = "retain"


@dataclass
class RiskTreatment:
    """Treatment of one threat."""

    threat_id: str
    decision: TreatmentDecision
    measures: List[str] = field(default_factory=list)
    initial_risk: int = 0
    residual_risk: int = 0
    rationale: str = ""


@dataclass
class TreatmentPlan:
    """The treatment plan for a whole TARA result."""

    treatments: List[RiskTreatment] = field(default_factory=list)
    total_cost: float = 0.0

    def measures_deployed(self) -> List[str]:
        """Measures actually deployed (REDUCE decisions only — an AVOID
        records the insufficient candidates without fielding them)."""
        names: List[str] = []
        for treatment in self.treatments:
            if treatment.decision is not TreatmentDecision.REDUCE:
                continue
            for measure in treatment.measures:
                if measure not in names:
                    names.append(measure)
        return names

    def residual_above(self, threshold: int) -> List[RiskTreatment]:
        return [t for t in self.treatments if t.residual_risk > threshold]


#: attack-potential points per unit of a measure's feasibility increase
HARDENING_SCALE = 3
#: risk value from which an insufficiently mitigated threat is avoided
AVOID_THRESHOLD = 5


def plan_treatment(
    result: TaraResult,
    *,
    catalog: Optional[CountermeasureCatalog] = None,
    acceptance_threshold: int = 2,
) -> TreatmentPlan:
    """Build a treatment plan from a TARA result.

    Decision logic:

    * risk ≤ threshold → RETAIN;
    * risk = :data:`AVOID_THRESHOLD` with no strong mitigation available → AVOID
      (redesign: the function is not fielded in that form);
    * otherwise → REDUCE with the strongest affordable catalog measures;
      if no measure exists at all → SHARE (contractual/insurance), residual
      unchanged.
    """
    catalog = catalog or CountermeasureCatalog()
    plan = TreatmentPlan()
    deployed_cost: Dict[str, float] = {}
    for assessment in result.assessments:
        if assessment.risk_value <= acceptance_threshold:
            plan.treatments.append(
                RiskTreatment(
                    threat_id=assessment.threat_id,
                    decision=TreatmentDecision.RETAIN,
                    initial_risk=assessment.risk_value,
                    residual_risk=assessment.risk_value,
                    rationale="risk within acceptance threshold",
                )
            )
            continue
        candidates = catalog.mitigating(assessment.attack_type)
        if not candidates:
            plan.treatments.append(
                RiskTreatment(
                    threat_id=assessment.threat_id,
                    decision=TreatmentDecision.SHARE,
                    initial_risk=assessment.risk_value,
                    residual_risk=assessment.risk_value,
                    rationale="no catalog mitigation; risk shared contractually",
                )
            )
            continue
        # deploy measures strongest-first until residual acceptable
        chosen: List[Countermeasure] = []
        potential = default_potential(assessment.attack_type)
        residual = assessment.risk_value
        for measure in candidates:
            chosen.append(measure)
            potential = potential.hardened(measure.feasibility_increase * HARDENING_SCALE)
            residual = risk_value(assessment.impact, rate_feasibility(potential))
            if residual <= acceptance_threshold:
                break
        if residual > acceptance_threshold and assessment.risk_value >= AVOID_THRESHOLD:
            plan.treatments.append(
                RiskTreatment(
                    threat_id=assessment.threat_id,
                    decision=TreatmentDecision.AVOID,
                    initial_risk=assessment.risk_value,
                    residual_risk=residual,
                    measures=[m.name for m in chosen],
                    rationale="mitigation insufficient at critical risk; redesign required",
                )
            )
            continue
        for measure in chosen:
            deployed_cost.setdefault(measure.name, measure.cost)
        plan.treatments.append(
            RiskTreatment(
                threat_id=assessment.threat_id,
                decision=TreatmentDecision.REDUCE,
                measures=[m.name for m in chosen],
                initial_risk=assessment.risk_value,
                residual_risk=residual,
                rationale="catalog countermeasures deployed",
            )
        )
    plan.total_cost = sum(deployed_cost.values())
    return plan
