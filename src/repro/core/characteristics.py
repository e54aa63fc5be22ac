"""Table I: the forestry-domain characteristics, machine-readable.

The paper's expert session produced eight characteristics that "serve as the
basis" for cybersecurity analysis in forestry.  Here each characteristic is
an assessment *modifier*: it shifts attack-potential factors (feasibility
side) and/or SFOP impact ratings (impact side) for matching threat
scenarios.  The E-T1 experiment runs the TARA once per characteristic to
show each one materially moves the risk picture — the quantitative form of
the paper's qualitative claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.risk.feasibility import (
    AttackPotential,
    Expertise,
    Knowledge,
    WindowOfOpportunity,
)
from repro.risk.impact import ImpactRating, SfopImpact
from repro.risk.model import ThreatScenario


def _bump(rating: ImpactRating, by: int = 1) -> ImpactRating:
    return ImpactRating(min(int(ImpactRating.SEVERE), int(rating) + by))


@dataclass(frozen=True)
class CharacteristicModifiers:
    """How one characteristic reshapes the assessment.

    Attributes
    ----------
    feasibility:
        Hook ``(threat, potential) -> potential``; identity when None.
    impact:
        Hook ``(threat, impact) -> impact``; identity when None.
    """

    feasibility: Optional[Callable[[ThreatScenario, AttackPotential], AttackPotential]] = None
    impact: Optional[Callable[[ThreatScenario, SfopImpact], SfopImpact]] = None


@dataclass(frozen=True)
class ForestryCharacteristic:
    """One Table I row with its assessment semantics."""

    key: str
    title: str
    description: str
    modifiers: CharacteristicModifiers


# -- modifier implementations, one per Table I row ---------------------------

def _remote_feasibility(threat: ThreatScenario, p: AttackPotential) -> AttackPotential:
    # Remote/isolated sites: physical access is unchallenged for long periods
    # (easier window), but the attacker must travel and operate off-grid.
    return replace(p, window=WindowOfOpportunity.UNLIMITED)


def _remote_impact(threat: ThreatScenario, impact: SfopImpact) -> SfopImpact:
    # No connectivity for incident response: operational impact worsens.
    return replace(impact, operational=_bump(impact.operational))


def _autonomy_impact(threat: ThreatScenario, impact: SfopImpact) -> SfopImpact:
    # No human in the loop to arrest unsafe behaviour: safety impact of
    # integrity/availability violations worsens.
    if threat.attack_type in (
        "message_injection", "gnss_spoofing", "camera_hijack", "message_tampering",
    ):
        return replace(impact, safety=_bump(impact.safety))
    return impact


def _disaster_impact(threat: ThreatScenario, impact: SfopImpact) -> SfopImpact:
    # Attacks coinciding with disasters hit degraded operations: both
    # operational and financial impacts worsen for availability attacks.
    if threat.attack_type in ("rf_jamming", "wifi_deauth", "gnss_jamming"):
        return replace(
            impact,
            operational=_bump(impact.operational),
            financial=_bump(impact.financial),
        )
    return impact


def _privacy_impact(threat: ThreatScenario, impact: SfopImpact) -> SfopImpact:
    # Land-ownership / environmental-assessment data: disclosure matters.
    if threat.attack_type == "eavesdropping" or threat.stride == "information_disclosure":
        return replace(impact, privacy=_bump(impact.privacy, 2))
    return impact


def _remote_monitoring_feasibility(
    threat: ThreatScenario, p: AttackPotential
) -> AttackPotential:
    # Remote monitoring/control links are long-lived and internet-reachable:
    # attack window easier and knowledge requirements fall (commodity RATs).
    if threat.attack_type in ("message_injection", "credential_bruteforce",
                              "camera_hijack"):
        return replace(
            p,
            window=WindowOfOpportunity.UNLIMITED,
            knowledge=Knowledge.PUBLIC,
        )
    return p


def _threat_profile_feasibility(
    threat: ThreatScenario, p: AttackPotential
) -> AttackPotential:
    # An explicit threat profile assumes capable adversaries scoping the
    # sector: expertise requirements effectively lower (tooling shared).
    if p.expertise > Expertise.PROFICIENT:
        return replace(p, expertise=Expertise.PROFICIENT)
    return p


def _confidentiality_impact(threat: ThreatScenario, impact: SfopImpact) -> SfopImpact:
    # Confidential operations (e.g. near military sites): any disclosure is severe.
    if threat.stride == "information_disclosure":
        return replace(impact, privacy=ImpactRating.SEVERE,
                       financial=_bump(impact.financial))
    return impact


def _heavy_machinery_impact(threat: ThreatScenario, impact: SfopImpact) -> SfopImpact:
    # Heavy machinery: any safety-relevant compromise escalates to severe.
    if impact.safety > ImpactRating.NEGLIGIBLE:
        return replace(impact, safety=ImpactRating.SEVERE)
    return impact


def characteristic_catalog() -> List[ForestryCharacteristic]:
    """All eight Table I characteristics with their modifiers."""
    return [
        ForestryCharacteristic(
            key="remote_isolated",
            title="Remote and Isolated Locations",
            description=(
                "Operations in remote areas with limited connectivity; secure "
                "communication and incident response are hard"
            ),
            modifiers=CharacteristicModifiers(
                feasibility=_remote_feasibility, impact=_remote_impact
            ),
        ),
        ForestryCharacteristic(
            key="autonomous_machinery",
            title="Autonomous Machinery",
            description=(
                "Drones and robots without an operator in the loop; compromise "
                "leads directly to unsafe machine behaviour"
            ),
            modifiers=CharacteristicModifiers(impact=_autonomy_impact),
        ),
        ForestryCharacteristic(
            key="natural_disasters",
            title="Natural Disasters",
            description=(
                "Wildfires, floods and storms; recovery and continuity must "
                "cover cyber incidents during and after such events"
            ),
            modifiers=CharacteristicModifiers(impact=_disaster_impact),
        ),
        ForestryCharacteristic(
            key="data_privacy",
            title="Data Privacy and Compliance",
            description=(
                "Land ownership, environmental assessments and legal "
                "compliance data require privacy protection"
            ),
            modifiers=CharacteristicModifiers(impact=_privacy_impact),
        ),
        ForestryCharacteristic(
            key="remote_monitoring",
            title="Remote Monitoring and Control",
            description=(
                "Long-lived remote monitoring/control links invite remote "
                "compromise of equipment management"
            ),
            modifiers=CharacteristicModifiers(
                feasibility=_remote_monitoring_feasibility
            ),
        ),
        ForestryCharacteristic(
            key="threat_profile",
            title="Threat Profile",
            description=(
                "Sector-specific threat agents and their capabilities must be "
                "profiled explicitly"
            ),
            modifiers=CharacteristicModifiers(
                feasibility=_threat_profile_feasibility
            ),
        ),
        ForestryCharacteristic(
            key="confidential_operations",
            title="Confidentiality of Operations",
            description=(
                "Some operations (e.g. military sites) are confidential; "
                "communications must not disclose them"
            ),
            modifiers=CharacteristicModifiers(impact=_confidentiality_impact),
        ),
        ForestryCharacteristic(
            key="heavy_machinery",
            title="Heavy Machinery",
            description=(
                "Harvesting machines raise safety stakes; security threats "
                "that could compromise safety dominate"
            ),
            modifiers=CharacteristicModifiers(impact=_heavy_machinery_impact),
        ),
    ]


def combined_modifiers(
    characteristics: Sequence[ForestryCharacteristic],
) -> CharacteristicModifiers:
    """Compose several characteristics into one modifier pair."""

    feasibility_hooks = [
        c.modifiers.feasibility for c in characteristics if c.modifiers.feasibility
    ]
    impact_hooks = [c.modifiers.impact for c in characteristics if c.modifiers.impact]

    def feasibility(threat: ThreatScenario, p: AttackPotential) -> AttackPotential:
        for hook in feasibility_hooks:
            p = hook(threat, p)
        return p

    def impact(threat: ThreatScenario, i: SfopImpact) -> SfopImpact:
        for hook in impact_hooks:
            i = hook(threat, i)
        return i

    return CharacteristicModifiers(
        feasibility=feasibility if feasibility_hooks else None,
        impact=impact if impact_hooks else None,
    )
