"""The asset-driven SAC builder (CASCADE-style).

The paper's stated plan: "a knowledge transfer of an approach for creating
SACs that has been evaluated in multiple domains [CASCADE] and use it for
forestry.  We intend to extend the approach to include arguments and
evidence about safety and AI regulations and standards requirements
fulfillment."

The builder takes the combined assessment output (item model, TARA,
treatment plan, interplay findings), an evidence registry and a compliance
mapping, and produces a GSN security assurance case:

    top claim: the worksite is acceptably secure and safe to operate
      ├─ per-asset security claims (CASCADE's asset-driven decomposition)
      │    └─ per-threat treatment claims backed by evidence
      ├─ the interplay claim (safety not breakable by feasible attack)
      └─ per-requirement compliance claims (the paper's extension)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.assurance.compliance import ComplianceMapping
from repro.assurance.evidence import EvidenceRegistry
from repro.assurance.gsn import GsnElement, GsnGraph, GsnKind
from repro.assurance.patterns import (
    asset_security_pattern,
    compliance_pattern,
    interplay_pattern,
    treatment_pattern,
)
from repro.core.methodology import CombinedResult
from repro.risk.model import ItemModel


@dataclass
class SacReport:
    """Quality metrics of a built SAC."""

    elements: int
    goals: int
    solutions: int
    structural_findings: List[str]
    goal_coverage: float          # goals grounded in solutions
    evidence_coverage: float      # cited evidence existing and current
    undeveloped_goals: int
    compliance_coverage: float

    @property
    def complete(self) -> bool:
        return (
            not self.structural_findings
            and self.undeveloped_goals == 0
            and self.evidence_coverage >= 1.0
        )


class SacBuilder:
    """Builds the worksite SAC from assessment outputs.

    Parameters
    ----------
    item:
        The item model (assets to argue over).
    evidence:
        The evidence registry backing the solutions.
    compliance:
        Compliance mapping (for the requirements sub-case).
    """

    def __init__(
        self,
        item: ItemModel,
        evidence: EvidenceRegistry,
        compliance: Optional[ComplianceMapping] = None,
    ) -> None:
        self.item = item
        self.evidence = evidence
        self.compliance = compliance or ComplianceMapping()

    def build(
        self,
        result: CombinedResult,
        *,
        evidence_by_threat: Optional[Dict[str, List[str]]] = None,
        interplay_evidence: Optional[str] = None,
    ) -> GsnGraph:
        """Assemble the full GSN case."""
        evidence_by_threat = evidence_by_threat or {}
        graph = GsnGraph(GsnElement(
            "G-top", GsnKind.GOAL,
            f"The {self.item.name} is acceptably secure, and remains safe "
            "under credible cyber attack, for operation in its defined context",
        ))
        graph.add(GsnElement(
            "C-item", GsnKind.CONTEXT,
            f"Item definition: systems {', '.join(self.item.systems)}; "
            f"{len(self.item.assets)} assets; {len(self.item.threat_scenarios)} "
            "threat scenarios",
        ))
        graph.in_context_of("G-top", "C-item")
        graph.add(GsnElement(
            "A-attacker", GsnKind.ASSUMPTION,
            "Attacker capabilities are bounded by the attack-potential model "
            "of the TARA (proximate radio-range adversary, no nation-state)",
        ))
        graph.in_context_of("G-top", "A-attacker")

        # -- asset-driven security sub-case -------------------------------------
        strategy = "S-assets"
        graph.add(GsnElement(
            strategy, GsnKind.STRATEGY,
            "Argument over the item's cybersecurity assets (CASCADE)",
        ))
        graph.supported_by("G-top", strategy)
        treatments_by_threat = {
            t.threat_id: t for t in result.treatment.treatments
        }
        for asset in self.item.assets:
            damage_ids = {
                d.scenario_id for d in self.item.scenarios_for_asset(asset.asset_id)
            }
            threat_ids = [
                t.threat_id for t in self.item.threat_scenarios
                if t.damage_scenario_id in damage_ids
            ]
            threat_goals = asset_security_pattern(
                graph, strategy, asset.asset_id, asset.name, threat_ids
            )
            for goal_id, threat_id in zip(threat_goals, threat_ids):
                treatment = treatments_by_threat.get(threat_id)
                decision = treatment.decision.value if treatment else "unassessed"
                measures = treatment.measures if treatment else []
                keys = evidence_by_threat.get(threat_id, [])
                treatment_pattern(graph, goal_id, threat_id, decision, measures, keys)

        # -- interplay sub-case (the paper's safety extension) --------------------
        gap_hazards = sorted({
            f.hazard_id for f in result.interplay_findings
        })
        interplay_pattern(graph, "G-top", gap_hazards or ["none identified"],
                          interplay_evidence)

        # -- compliance sub-case (the paper's regulatory extension) ----------------
        requirement_ids = [r.requirement_id for r in self.compliance.requirements]
        compliance_pattern(
            graph, "G-top", requirement_ids, self.compliance.evidence_index()
        )
        return graph

    def report(self, graph: GsnGraph, *, now: float = 0.0) -> SacReport:
        """Score a built case."""
        cited = [
            e.evidence_ref for e in graph.solutions() if e.evidence_ref is not None
        ]
        findings = graph.check()
        undeveloped = [
            e for e in graph.goals()
            if e.undeveloped or (
                not graph.children(e.element_id) and e.kind is GsnKind.GOAL
            )
        ]
        return SacReport(
            elements=len(graph.elements),
            goals=len(graph.goals()),
            solutions=len(graph.solutions()),
            structural_findings=[
                f for f in findings if "not marked undeveloped" not in f
            ],
            goal_coverage=graph.coverage(),
            evidence_coverage=self.evidence.coverage_of(cited, now),
            undeveloped_goals=len(undeveloped),
            compliance_coverage=self.compliance.coverage(),
        )
