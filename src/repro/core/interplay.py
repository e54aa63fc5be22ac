"""Security→safety interplay analysis (IEC TS 63074).

"Security threats and vulnerabilities could potentially compromise the
functional safety of safety-related control systems."  The analysis makes
that propagation explicit and computable:

* a :class:`SecuritySafetyLink` states that a given *attack type* degrades a
  given *safety function* in a given way (defeats it, raises its failure
  rate, or removes a redundancy channel);
* given the hazard catalog, the safety-function designs (ISO 13849) and the
  TARA output, :class:`InterplayAnalysis` re-evaluates every cyber-coupled
  hazard under each credible attack: the attack may raise the hazard's
  required PL (worse exposure/avoidance) *and* lower the function's achieved
  PL (lost channel/diagnostics) — a hazard whose achieved PL falls below its
  required PL under a feasible attack is an **interplay finding**, exactly
  the class of risk a safety-only or security-only assessment misses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.risk.feasibility import FeasibilityRating
from repro.risk.tara import TaraResult
from repro.safety.hazards import Avoidance, Exposure, Hazard, HazardCatalog
from repro.safety.iso13849 import (
    Category,
    PerformanceLevel,
    PlEvaluationError,
    SafetyFunctionDesign,
    achieved_pl,
)


@dataclass(frozen=True)
class SecuritySafetyLink:
    """One attack-type → safety-function degradation edge.

    Attributes
    ----------
    attack_type:
        The attacking action (``repro.attacks`` vocabulary).
    safety_function:
        Name of the degraded function (matches ``Hazard.safety_function``).
    effect:
        ``"defeats"`` — the function cannot act at all;
        ``"degrades"`` — diagnostics/channel quality drop (DC band down);
        ``"loses_channel"`` — a redundant channel is lost (category down).
    raises_exposure / raises_avoidance:
        Whether a successful attack worsens the hazard's F / P parameter.
    """

    attack_type: str
    safety_function: str
    effect: str
    raises_exposure: bool = False
    raises_avoidance: bool = False


def worksite_links() -> List[SecuritySafetyLink]:
    """The worksite's security→safety propagation edges."""
    return [
        SecuritySafetyLink("camera_hijack", "people_detection_stop", "defeats",
                           raises_avoidance=True),
        SecuritySafetyLink("camera_blinding", "people_detection_stop", "degrades",
                           raises_avoidance=True),
        SecuritySafetyLink("rf_jamming", "people_detection_stop", "loses_channel",
                           raises_avoidance=True),
        SecuritySafetyLink("wifi_deauth", "people_detection_stop", "loses_channel"),
        SecuritySafetyLink("message_tampering", "people_detection_stop", "degrades"),
        SecuritySafetyLink("gnss_spoofing", "geofence", "defeats",
                           raises_exposure=True),
        SecuritySafetyLink("gnss_jamming", "geofence", "degrades"),
        SecuritySafetyLink("message_injection", "protective_stop", "defeats",
                           raises_exposure=True, raises_avoidance=True),
        SecuritySafetyLink("firmware_tampering", "protective_stop", "defeats",
                           raises_exposure=True, raises_avoidance=True),
        SecuritySafetyLink("message_injection", "speed_limiter", "defeats"),
    ]


@dataclass(frozen=True)
class InterplayFinding:
    """One hazard whose safety assurance breaks under a feasible attack."""

    hazard_id: str
    attack_type: str
    threat_id: str
    feasibility: FeasibilityRating
    required_pl_nominal: str
    required_pl_under_attack: str
    achieved_pl_nominal: Optional[str]
    achieved_pl_under_attack: Optional[str]
    assurance_gap: bool  # achieved < required under attack


def _degrade_design(
    design: SafetyFunctionDesign, effect: str
) -> Optional[SafetyFunctionDesign]:
    """The safety function's design as it stands under the attack effect."""
    if effect == "defeats":
        return None
    if effect == "degrades":
        return replace(design, dc_fraction=max(0.0, design.dc_fraction - 0.35))
    if effect == "loses_channel":
        downgrade = {
            Category.CAT4: Category.CAT3,
            Category.CAT3: Category.CAT1,
            Category.CAT2: Category.CAT1,
            Category.CAT1: Category.B,
            Category.B: Category.B,
        }
        return replace(design, category=downgrade[design.category])
    raise ValueError(f"unknown interplay effect {effect!r}")


def _worsen(hazard: Hazard, link: SecuritySafetyLink) -> Hazard:
    exposure = Exposure.F2 if link.raises_exposure else hazard.exposure
    avoidance = Avoidance.P2 if link.raises_avoidance else hazard.avoidance
    return hazard.degraded(exposure=exposure, avoidance=avoidance)


def _safe_pl(design: Optional[SafetyFunctionDesign]) -> Optional[str]:
    if design is None:
        return None
    try:
        return achieved_pl(design).value
    except PlEvaluationError:
        return None  # the degraded combination is no longer evaluable = lost


class InterplayAnalysis:
    """The combined interplay evaluation.

    Parameters
    ----------
    hazards:
        The hazard catalog.
    designs:
        Safety-function designs by name.
    links:
        The propagation edges (defaults to the worksite set).
    min_feasibility:
        Attacks below this feasibility are not credible enough to count.
    """

    def __init__(
        self,
        hazards: HazardCatalog,
        designs: Dict[str, SafetyFunctionDesign],
        *,
        links: Optional[Sequence[SecuritySafetyLink]] = None,
        min_feasibility: FeasibilityRating = FeasibilityRating.LOW,
    ) -> None:
        self.hazards = hazards
        self.designs = dict(designs)
        self.links = list(worksite_links() if links is None else links)
        self.min_feasibility = min_feasibility

    def evaluate(self, tara: TaraResult) -> List[InterplayFinding]:
        """Cross the TARA output with the hazard catalog."""
        findings: List[InterplayFinding] = []
        links_by_attack: Dict[str, List[SecuritySafetyLink]] = {}
        for link in self.links:
            links_by_attack.setdefault(link.attack_type, []).append(link)

        for assessment in tara.assessments:
            if assessment.feasibility < self.min_feasibility:
                continue
            for link in links_by_attack.get(assessment.attack_type, ()):  # noqa: B020
                for hazard in self.hazards.hazards:
                    if hazard.safety_function != link.safety_function:
                        continue
                    if not hazard.cyber_coupled:
                        continue
                    design = self.designs.get(link.safety_function)
                    nominal_achieved = _safe_pl(design)
                    degraded_design = (
                        _degrade_design(design, link.effect) if design else None
                    )
                    attacked_achieved = _safe_pl(degraded_design)
                    worsened = _worsen(hazard, link)
                    required_nominal = hazard.required_pl()
                    required_attacked = worsened.required_pl()
                    gap = self._has_gap(required_attacked, attacked_achieved)
                    findings.append(
                        InterplayFinding(
                            hazard_id=hazard.hazard_id,
                            attack_type=assessment.attack_type,
                            threat_id=assessment.threat_id,
                            feasibility=assessment.feasibility,
                            required_pl_nominal=required_nominal,
                            required_pl_under_attack=required_attacked,
                            achieved_pl_nominal=nominal_achieved,
                            achieved_pl_under_attack=attacked_achieved,
                            assurance_gap=gap,
                        )
                    )
        return findings

    @staticmethod
    def _has_gap(required: str, achieved: Optional[str]) -> bool:
        if achieved is None:
            return True
        return not PerformanceLevel.from_letter(achieved).satisfies(
            PerformanceLevel.from_letter(required)
        )

    @staticmethod
    def gaps(findings: Sequence[InterplayFinding]) -> List[InterplayFinding]:
        return [f for f in findings if f.assurance_gap]

    @staticmethod
    def gap_hazards(findings: Sequence[InterplayFinding]) -> List[str]:
        return sorted({f.hazard_id for f in findings if f.assurance_gap})
