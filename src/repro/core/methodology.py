"""The CombinedAssessment orchestrator — the methodology itself.

One flow with explicit synchronisation points between the safety and
security tracks (the AMASS-style alignment the paper cites):

1. **Item & hazard definition** (shared): item model + hazard catalog.
2. **Security track**: STRIDE enumeration (optional) → TARA → treatment.
3. **Safety track**: ISO 13849 evaluation of each safety-function design
   against its hazard's required PL.
4. **Sync point A — interplay**: the TARA's feasible threats are propagated
   into the safety track (:mod:`repro.core.interplay`); assurance gaps
   become mandatory treatment items regardless of their standalone cyber
   risk value.
5. **Sync point B — zone targets**: safety-coupled risk raises the SL-T of
   the zones hosting the affected functions (IEC TS 63074), and the gap
   analysis reports remediation burden.
6. **Output**: a :class:`CombinedResult` with both separate-track and
   combined verdicts, so the E-S4B experiment can show what the separate
   assessments miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.characteristics import (
    ForestryCharacteristic,
    combined_modifiers,
)
from repro.core.interplay import InterplayAnalysis, InterplayFinding, SecuritySafetyLink
from repro.defense.countermeasures import CountermeasureCatalog
from repro.risk.iec62443 import SecurityLevel, ZoneModel
from repro.risk.model import ItemModel
from repro.risk.tara import Tara, TaraResult
from repro.risk.treatment import TreatmentPlan, plan_treatment
from repro.safety.hazards import HazardCatalog
from repro.safety.iso13849 import (
    PerformanceLevel,
    PlEvaluationError,
    SafetyFunctionDesign,
    achieved_pl,
)


@dataclass
class SafetyTrackResult:
    """Standalone safety-track verdicts."""

    achieved: Dict[str, Optional[str]] = field(default_factory=dict)
    required: Dict[str, str] = field(default_factory=dict)  # hazard -> PLr
    shortfalls: List[str] = field(default_factory=list)  # hazards failing standalone


@dataclass
class CombinedResult:
    """The full output of the combined methodology."""

    tara: TaraResult
    treatment: TreatmentPlan
    safety: SafetyTrackResult
    interplay_findings: List[InterplayFinding]
    zone_report: Dict[str, dict]
    zone_total_gap: int
    mandatory_interplay_treatments: List[str]

    @property
    def interplay_gaps(self) -> List[InterplayFinding]:
        return [f for f in self.interplay_findings if f.assurance_gap]

    def separate_verdict_misses(self) -> List[InterplayFinding]:
        """Interplay gaps invisible to both separate assessments.

        A finding is *missed by separate assessment* when (a) the hazard's
        safety function met its required PL standalone, and (b) a
        security-only assessment would have retained the threat — i.e. it
        is currently retained, or its treatment was only forced by the
        interplay sync point (``mandatory_interplay_treatments``).
        """
        missed = []
        security_accepted = {
            t.threat_id
            for t in self.treatment.treatments
            if t.decision.value == "retain"
        } | set(self.mandatory_interplay_treatments)
        for finding in self.interplay_gaps:
            standalone_ok = finding.hazard_id not in self.safety.shortfalls
            cyber_accepted = finding.threat_id in security_accepted
            if standalone_ok and cyber_accepted:
                missed.append(finding)
        return missed


class CombinedAssessment:
    """The methodology orchestrator.

    Parameters
    ----------
    item:
        The item model (with threat scenarios already enumerated, e.g. via
        :func:`repro.risk.stride.enumerate_threats`).
    hazards:
        The hazard catalog.
    designs:
        Safety-function designs by function name.
    zone_model:
        IEC 62443 zone model; SL targets are tightened at sync point B.
    characteristics:
        Forestry characteristics in force (Table I); they modify the TARA.
    links:
        Security→safety propagation edges.
    deployed_measures:
        Already-deployed countermeasures (harden the TARA feasibility).
    acceptance_threshold:
        Risk value at or below which cyber risk is retained.
    """

    def __init__(
        self,
        item: ItemModel,
        hazards: HazardCatalog,
        designs: Dict[str, SafetyFunctionDesign],
        zone_model: ZoneModel,
        *,
        characteristics: Sequence[ForestryCharacteristic] = (),
        links: Optional[Sequence[SecuritySafetyLink]] = None,
        deployed_measures: Sequence[str] = (),
        catalog: Optional[CountermeasureCatalog] = None,
        acceptance_threshold: int = 2,
    ) -> None:
        self.item = item
        self.hazards = hazards
        self.designs = dict(designs)
        self.zone_model = zone_model
        self.characteristics = list(characteristics)
        self.links = links
        self.deployed_measures = list(deployed_measures)
        self.catalog = catalog or CountermeasureCatalog()
        self.acceptance_threshold = acceptance_threshold

    def run(self) -> CombinedResult:
        """Execute the full combined flow."""
        modifiers = combined_modifiers(self.characteristics)

        # -- security track ------------------------------------------------
        tara_engine = Tara(
            self.item,
            catalog=self.catalog,
            deployed_measures=self.deployed_measures,
            feasibility_modifier=modifiers.feasibility,
            impact_modifier=modifiers.impact,
        )
        tara = tara_engine.assess()
        self._last_tara = tara
        treatment = plan_treatment(
            tara, catalog=self.catalog, acceptance_threshold=self.acceptance_threshold
        )

        # -- safety track ---------------------------------------------------
        safety = self._safety_track()

        # -- sync point A: interplay ------------------------------------------
        analysis = InterplayAnalysis(self.hazards, self.designs, links=self.links)
        findings = analysis.evaluate(tara)
        mandatory = self._force_interplay_treatments(treatment, findings)

        # -- sync point B: zone target escalation -------------------------------
        self._escalate_zone_targets(tara)
        zone_report = self.zone_model.assessment()
        total_gap = self.zone_model.total_gap()

        return CombinedResult(
            tara=tara,
            treatment=treatment,
            safety=safety,
            interplay_findings=findings,
            zone_report=zone_report,
            zone_total_gap=total_gap,
            mandatory_interplay_treatments=mandatory,
        )

    # -- internals -------------------------------------------------------------
    def _safety_track(self) -> SafetyTrackResult:
        result = SafetyTrackResult()
        achieved_by_function: Dict[str, Optional[str]] = {}
        for name, design in self.designs.items():
            try:
                achieved_by_function[name] = achieved_pl(design).value
            except PlEvaluationError:
                achieved_by_function[name] = None
        result.achieved = achieved_by_function
        for hazard in self.hazards.hazards:
            required = hazard.required_pl()
            result.required[hazard.hazard_id] = required
            if hazard.safety_function is None:
                continue
            achieved = achieved_by_function.get(hazard.safety_function)
            if achieved is None or not PerformanceLevel.from_letter(
                achieved
            ).satisfies(PerformanceLevel.from_letter(required)):
                result.shortfalls.append(hazard.hazard_id)
        return result

    def _force_interplay_treatments(
        self, treatment: TreatmentPlan, findings: Sequence[InterplayFinding]
    ) -> List[str]:
        """Sync point A: interplay gaps override 'retain' decisions."""
        from repro.risk.treatment import TreatmentDecision

        gap_threats = {f.threat_id for f in findings if f.assurance_gap}
        forced: List[str] = []
        for entry in treatment.treatments:
            if entry.threat_id in gap_threats and entry.decision is TreatmentDecision.RETAIN:
                entry.decision = TreatmentDecision.REDUCE
                entry.rationale = (
                    "forced by interplay: feasible attack breaks safety assurance"
                )
                assessment = self.tara_assessment_for(entry.threat_id)
                if assessment is not None:
                    measures = self.catalog.mitigating(assessment.attack_type)
                    entry.measures = [m.name for m in measures[:2]]
                forced.append(entry.threat_id)
        return forced

    def tara_assessment_for(self, threat_id: str):
        # helper kept simple; the combined result also exposes the TARA
        try:
            return self._last_tara.by_threat(threat_id)  # type: ignore[attr-defined]
        except AttributeError:
            return None

    def _escalate_zone_targets(self, tara: TaraResult) -> None:
        """Sync point B: safety-coupled risk ≥ 4 demands SL-T ≥ 3 on FR3/FR6."""
        hot = [a for a in tara.assessments if a.safety_coupled and a.risk_value >= 4]
        if not hot:
            return
        for zone in self.zone_model.zones.values():
            if not zone.safety_related:
                continue
            for fr in ("FR3", "FR6"):
                if int(zone.sl_target[fr]) < int(SecurityLevel.SL3):
                    zone.sl_target[fr] = SecurityLevel.SL3
