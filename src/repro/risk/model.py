"""TARA work products: item model, assets, damage and threat scenarios.

Follows the work-product structure of ISO/SAE 21434 clause 15: item
definition → asset identification → damage scenarios → threat scenarios →
attack paths.  The vocabulary for attack actions is shared with
:mod:`repro.attacks` so assessments bind to executable attacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.risk.impact import SfopImpact


class CybersecurityProperty(enum.Enum):
    """The protected property of an asset (C-I-A)."""

    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"
    AVAILABILITY = "availability"


@dataclass(frozen=True)
class Asset:
    """A cybersecurity asset of the item.

    Attributes
    ----------
    asset_id:
        Stable identifier.
    name:
        Human-readable name.
    system:
        The constituent system carrying the asset (forwarder, drone, ...).
    properties:
        Cybersecurity properties whose violation causes damage.
    safety_related:
        True when a violation can propagate into a safety hazard (the
        interplay flag linking to :mod:`repro.safety.hazards`).
    """

    asset_id: str
    name: str
    system: str
    properties: Tuple[CybersecurityProperty, ...]
    safety_related: bool = False


@dataclass(frozen=True)
class DamageScenario:
    """Adverse consequence of compromising an asset property."""

    scenario_id: str
    asset_id: str
    violated_property: CybersecurityProperty
    description: str
    impact: SfopImpact
    linked_hazard: Optional[str] = None  # hazard_id when safety-coupled


@dataclass(frozen=True)
class AttackStep:
    """One step of an attack path."""

    description: str
    attack_type: str  # repro.attacks vocabulary, or a free-form action
    target: str       # node or channel attacked


@dataclass(frozen=True)
class AttackPath:
    """An ordered realisation of a threat scenario."""

    path_id: str
    steps: Tuple[AttackStep, ...]

    @property
    def attack_types(self) -> List[str]:
        return [step.attack_type for step in self.steps]


@dataclass(frozen=True)
class ThreatScenario:
    """A potential cause of a damage scenario.

    Attributes
    ----------
    threat_id:
        Stable identifier.
    damage_scenario_id:
        The damage scenario realised.
    stride:
        STRIDE category of the threat action.
    attack_type:
        Principal attack class (for countermeasure selection).
    description:
        The threat action.
    attack_paths:
        Known realisations; feasibility is rated per path and the scenario
        takes the *maximum* (easiest path wins, per 21434).
    """

    threat_id: str
    damage_scenario_id: str
    stride: str
    attack_type: str
    description: str
    attack_paths: Tuple[AttackPath, ...] = ()


@dataclass
class ItemModel:
    """The item under assessment: systems, channels, assets, scenarios.

    The worksite item model is built by
    :func:`repro.scenarios.worksite.worksite_item_model`; custom models
    follow the same shape.
    """

    name: str
    systems: List[str] = field(default_factory=list)
    channels: List[Tuple[str, str, str]] = field(default_factory=list)
    # (channel name, endpoint A, endpoint B)
    assets: List[Asset] = field(default_factory=list)
    damage_scenarios: List[DamageScenario] = field(default_factory=list)
    threat_scenarios: List[ThreatScenario] = field(default_factory=list)

    def asset(self, asset_id: str) -> Asset:
        for asset in self.assets:
            if asset.asset_id == asset_id:
                return asset
        raise KeyError(f"unknown asset {asset_id!r}")

    def damage_scenario(self, scenario_id: str) -> DamageScenario:
        for scenario in self.damage_scenarios:
            if scenario.scenario_id == scenario_id:
                return scenario
        raise KeyError(f"unknown damage scenario {scenario_id!r}")

    def scenarios_for_asset(self, asset_id: str) -> List[DamageScenario]:
        return [d for d in self.damage_scenarios if d.asset_id == asset_id]

    def threats_for_damage(self, scenario_id: str) -> List[ThreatScenario]:
        return [t for t in self.threat_scenarios if t.damage_scenario_id == scenario_id]

    def safety_related_assets(self) -> List[Asset]:
        return [a for a in self.assets if a.safety_related]

    def validate(self) -> List[str]:
        """Consistency check; returns a list of problems (empty = valid)."""
        problems = []
        asset_ids = {a.asset_id for a in self.assets}
        if len(asset_ids) != len(self.assets):
            problems.append("duplicate asset ids")
        damage_ids = set()
        for scenario in self.damage_scenarios:
            if scenario.scenario_id in damage_ids:
                problems.append(f"duplicate damage scenario {scenario.scenario_id}")
            damage_ids.add(scenario.scenario_id)
            if scenario.asset_id not in asset_ids:
                problems.append(
                    f"damage scenario {scenario.scenario_id} references unknown "
                    f"asset {scenario.asset_id}"
                )
        threat_ids = set()
        for threat in self.threat_scenarios:
            if threat.threat_id in threat_ids:
                problems.append(f"duplicate threat scenario {threat.threat_id}")
            threat_ids.add(threat.threat_id)
            if threat.damage_scenario_id not in damage_ids:
                problems.append(
                    f"threat {threat.threat_id} references unknown damage "
                    f"scenario {threat.damage_scenario_id}"
                )
        system_set = set(self.systems)
        for asset in self.assets:
            if asset.system not in system_set:
                problems.append(
                    f"asset {asset.asset_id} on unknown system {asset.system}"
                )
        for name, a, b in self.channels:
            if a not in system_set or b not in system_set:
                problems.append(f"channel {name} endpoint not in systems")
        return problems
