"""The assembled TARA pipeline (ISO/SAE 21434 clause 15).

Given an :class:`~repro.risk.model.ItemModel`, the pipeline rates every
threat scenario:

1. impact — from the damage scenario's SFOP ratings;
2. feasibility — from the easiest attack path's attack potential (or the
   attack type's default potential when no path is modelled), optionally
   hardened by deployed countermeasures;
3. risk value — from the matrix;
4. CAL — for development assurance.

Environmental modifiers let the forestry characteristics (Table I) reshape
feasibility and impact — that is the mechanism behind the E-T1 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.defense.countermeasures import CountermeasureCatalog
from repro.risk.cal import CaLevel, determine_cal
from repro.risk.feasibility import (
    AttackPotential,
    FeasibilityRating,
    default_potential,
    rate_feasibility,
)
from repro.risk.impact import ImpactRating, SfopImpact
from repro.risk.matrix import risk_label, risk_value
from repro.risk.model import ItemModel, ThreatScenario


@dataclass(frozen=True)
class ThreatAssessment:
    """The assessment of one threat scenario."""

    threat_id: str
    damage_scenario_id: str
    attack_type: str
    impact: ImpactRating
    feasibility: FeasibilityRating
    risk_value: int
    cal: CaLevel
    safety_coupled: bool
    potential_points: int

    @property
    def risk_label(self) -> str:
        return risk_label(self.risk_value)


@dataclass
class TaraResult:
    """The full TARA output for an item."""

    item_name: str
    assessments: List[ThreatAssessment] = field(default_factory=list)

    def by_threat(self, threat_id: str) -> ThreatAssessment:
        for assessment in self.assessments:
            if assessment.threat_id == threat_id:
                return assessment
        raise KeyError(f"no assessment for threat {threat_id!r}")

    def max_risk(self) -> int:
        return max((a.risk_value for a in self.assessments), default=0)

    def mean_risk(self) -> float:
        if not self.assessments:
            return 0.0
        return sum(a.risk_value for a in self.assessments) / len(self.assessments)

    def above(self, threshold: int) -> List[ThreatAssessment]:
        """Assessments whose risk value exceeds the acceptance threshold."""
        return [a for a in self.assessments if a.risk_value > threshold]

    def safety_coupled(self) -> List[ThreatAssessment]:
        return [a for a in self.assessments if a.safety_coupled]

    def risk_profile(self) -> Dict[int, int]:
        """Histogram of risk values."""
        profile: Dict[int, int] = {v: 0 for v in range(1, 6)}
        for assessment in self.assessments:
            profile[assessment.risk_value] += 1
        return profile


class Tara:
    """The TARA engine.

    Parameters
    ----------
    item:
        The item model under assessment.
    catalog:
        Countermeasure catalog used to harden feasibility for deployed
        measures.
    deployed_measures:
        Names of deployed countermeasures.
    feasibility_modifier:
        Optional hook ``(threat, potential) -> potential`` applied before
        rating — the entry point for forestry-characteristic modifiers.
    impact_modifier:
        Optional hook ``(threat, impact) -> impact`` for the same purpose.
    """

    #: points of attack-potential hardening per unit of a countermeasure's
    #: ``feasibility_increase`` (calibrated so one strong measure moves the
    #: rating roughly one band)
    HARDENING_SCALE = 3

    def __init__(
        self,
        item: ItemModel,
        *,
        catalog: Optional[CountermeasureCatalog] = None,
        deployed_measures: Sequence[str] = (),
        feasibility_modifier: Optional[
            Callable[[ThreatScenario, AttackPotential], AttackPotential]
        ] = None,
        impact_modifier: Optional[
            Callable[[ThreatScenario, SfopImpact], SfopImpact]
        ] = None,
    ) -> None:
        problems = item.validate()
        if problems:
            raise ValueError(f"invalid item model: {problems}")
        self.item = item
        self.catalog = catalog or CountermeasureCatalog()
        self.deployed_measures = list(deployed_measures)
        self.feasibility_modifier = feasibility_modifier
        self.impact_modifier = impact_modifier

    def _hardening_points(self, attack_type: str) -> int:
        points = 0
        for name in self.deployed_measures:
            try:
                measure = self.catalog.get(name)
            except KeyError:
                continue
            if attack_type in measure.mitigates:
                points += measure.feasibility_increase * self.HARDENING_SCALE
        return points

    def _scenario_potential(self, threat: ThreatScenario) -> AttackPotential:
        """Easiest attack path's potential (max feasibility = min points)."""
        candidates: List[AttackPotential] = []
        for path in threat.attack_paths:
            # a path is as hard as its hardest step, combined additively over
            # distinct skill requirements: approximate by the max step points
            step_potentials = [default_potential(s.attack_type) for s in path.steps]
            hardest = max(step_potentials, key=lambda p: p.points())
            candidates.append(hardest)
        if not candidates:
            candidates.append(default_potential(threat.attack_type))
        return min(candidates, key=lambda p: p.points())

    def assess(self) -> TaraResult:
        """Run the pipeline over every threat scenario."""
        result = TaraResult(item_name=self.item.name)
        for threat in self.item.threat_scenarios:
            damage = self.item.damage_scenario(threat.damage_scenario_id)
            asset = self.item.asset(damage.asset_id)

            impact_vector = damage.impact
            if self.impact_modifier is not None:
                impact_vector = self.impact_modifier(threat, impact_vector)
            impact = impact_vector.overall()

            potential = self._scenario_potential(threat)
            if self.feasibility_modifier is not None:
                potential = self.feasibility_modifier(threat, potential)
            potential = potential.hardened(self._hardening_points(threat.attack_type))
            feasibility = rate_feasibility(potential)

            value = risk_value(impact, feasibility)
            cal = determine_cal(impact, threat.attack_type)
            result.assessments.append(
                ThreatAssessment(
                    threat_id=threat.threat_id,
                    damage_scenario_id=threat.damage_scenario_id,
                    attack_type=threat.attack_type,
                    impact=impact,
                    feasibility=feasibility,
                    risk_value=value,
                    cal=cal,
                    safety_coupled=asset.safety_related
                    and impact_vector.safety > ImpactRating.NEGLIGIBLE,
                    potential_points=potential.points(),
                )
            )
        return result
