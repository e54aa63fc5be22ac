"""Regulation/standard requirement models and compliance mapping.

Executable encodings of the compliance surface the paper describes: the
Machinery Regulation (EU) 2023/1230's essential cybersecurity-relevant
requirements, plus hooks for the CRA and AI Act.  A
:class:`ComplianceMapping` links each requirement to the work products that
satisfy it (TARA, treatment plan, zone assessment, interplay analysis,
experiment evidence) and reports coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Requirement:
    """One regulatory/standard requirement.

    Attributes
    ----------
    requirement_id:
        Stable identifier (e.g. ``"MR-1.1.9"``).
    source:
        The instrument (regulation/standard) it comes from.
    text:
        Condensed requirement text.
    satisfied_by:
        Work-product kinds that can evidence it (``"tara"``,
        ``"treatment"``, ``"zone_assessment"``, ``"interplay"``, ``"sotif"``,
        ``"pl_evaluation"``, ``"experiment"``, ``"sac"``).
    """

    requirement_id: str
    source: str
    text: str
    satisfied_by: tuple


def machinery_regulation_requirements() -> List[Requirement]:
    """Cybersecurity/safety-relevant essentials of Regulation (EU) 2023/1230."""
    return [
        Requirement(
            "MR-1.1.9", "Regulation (EU) 2023/1230",
            "Protection against corruption: connected machinery must withstand "
            "malicious third-party attempts to create a hazardous situation",
            ("tara", "treatment", "interplay", "experiment"),
        ),
        Requirement(
            "MR-1.2.1", "Regulation (EU) 2023/1230",
            "Safety and reliability of control systems, including under "
            "reasonably foreseeable misuse and attack-induced faults",
            ("pl_evaluation", "interplay", "experiment"),
        ),
        Requirement(
            "MR-1.2.4", "Regulation (EU) 2023/1230",
            "Machinery must stop safely; stopping devices must remain "
            "available despite communication failures",
            ("experiment", "pl_evaluation"),
        ),
        Requirement(
            "MR-1.3.7", "Regulation (EU) 2023/1230",
            "Risks related to moving parts and persons in the hazard zone; "
            "detection of persons must be ensured in the operating environment",
            ("sotif", "experiment"),
        ),
        Requirement(
            "MR-AI-2.1", "Regulation (EU) 2023/1230",
            "Safety functions realised with self-evolving (AI) behaviour must "
            "have their decision logic validated for the operating domain",
            ("sotif", "experiment"),
        ),
        Requirement(
            "CRA-1", "Cyber Resilience Act (proposal)",
            "Products with digital elements are designed, developed and "
            "produced with an appropriate level of cybersecurity based on risk",
            ("tara", "treatment", "zone_assessment"),
        ),
        Requirement(
            "CRA-2", "Cyber Resilience Act (proposal)",
            "Vulnerability handling: monitoring, logging and incident response "
            "capabilities exist for the product's lifetime",
            ("experiment", "zone_assessment"),
        ),
        Requirement(
            "ISO21434-15", "ISO/SAE 21434",
            "Threat analysis and risk assessment performed over the item with "
            "documented impact, feasibility and risk treatment",
            ("tara", "treatment"),
        ),
        Requirement(
            "IEC62443-3-2", "IEC 62443-3-2",
            "The system under consideration is partitioned into zones and "
            "conduits with assessed target and achieved security levels",
            ("zone_assessment",),
        ),
        Requirement(
            "IECTS63074-5", "IEC TS 63074",
            "Security threats that could affect safety-related control "
            "systems are identified and countered",
            ("interplay", "treatment"),
        ),
        Requirement(
            "ISO13849-4.5", "ISO 13849-1",
            "Each safety function's achieved Performance Level meets or "
            "exceeds the required PL from the risk graph",
            ("pl_evaluation",),
        ),
    ]


@dataclass
class ComplianceStatus:
    """Coverage of one requirement."""

    requirement: Requirement
    work_products: List[str] = field(default_factory=list)
    evidence_keys: List[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        provided = set(self.work_products)
        return any(kind in provided for kind in self.requirement.satisfied_by)


class ComplianceMapping:
    """Links the Machinery Regulation requirements to produced work
    products and evidence."""

    def __init__(self) -> None:
        self.requirements = machinery_regulation_requirements()
        self._status: Dict[str, ComplianceStatus] = {
            r.requirement_id: ComplianceStatus(requirement=r) for r in self.requirements
        }

    def record(
        self, requirement_id: str, work_product: str, evidence_key: Optional[str] = None
    ) -> None:
        """Register that a work product addresses a requirement."""
        status = self._status[requirement_id]
        if work_product not in status.work_products:
            status.work_products.append(work_product)
        if evidence_key is not None and evidence_key not in status.evidence_keys:
            status.evidence_keys.append(evidence_key)

    def record_work_product(
        self, work_product: str, evidence_key: Optional[str] = None
    ) -> List[str]:
        """Register a work product against every requirement it can satisfy."""
        matched = []
        for requirement in self.requirements:
            if work_product in requirement.satisfied_by:
                self.record(requirement.requirement_id, work_product, evidence_key)
                matched.append(requirement.requirement_id)
        return matched

    def status_of(self, requirement_id: str) -> ComplianceStatus:
        return self._status[requirement_id]

    def unsatisfied(self) -> List[Requirement]:
        return [
            s.requirement for s in self._status.values() if not s.satisfied
        ]

    def coverage(self) -> float:
        if not self._status:
            return 1.0
        satisfied = sum(1 for s in self._status.values() if s.satisfied)
        return satisfied / len(self._status)

    def evidence_index(self) -> Dict[str, List[str]]:
        """requirement id → evidence keys (for the compliance GSN pattern)."""
        return {
            rid: list(status.evidence_keys) for rid, status in self._status.items()
        }
