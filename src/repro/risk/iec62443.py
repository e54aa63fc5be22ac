"""IEC 62443 zones, conduits and security levels.

IEC 62443-3-2 partitions the system under consideration into *zones*
(groupings of assets with common security requirements) connected by
*conduits* (communication channels).  Each zone gets a target security level
vector **SL-T** over the seven foundational requirements; deployed
countermeasures determine the achieved level **SL-A**; the gap SL-T − SL-A
drives remediation.

Foundational requirements:

FR1 Identification & authentication control, FR2 Use control, FR3 System
integrity, FR4 Data confidentiality, FR5 Restricted data flow, FR6 Timely
response to events, FR7 Resource availability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.defense.countermeasures import CountermeasureCatalog

FOUNDATIONAL_REQUIREMENTS: Tuple[str, ...] = (
    "FR1", "FR2", "FR3", "FR4", "FR5", "FR6", "FR7",
)

FR_NAMES: Dict[str, str] = {
    "FR1": "Identification and authentication control",
    "FR2": "Use control",
    "FR3": "System integrity",
    "FR4": "Data confidentiality",
    "FR5": "Restricted data flow",
    "FR6": "Timely response to events",
    "FR7": "Resource availability",
}


class SecurityLevel(enum.IntEnum):
    """SL 0–4 (protection against increasingly capable violators)."""

    SL0 = 0  # no specific protection
    SL1 = 1  # casual or coincidental violation
    SL2 = 2  # intentional, simple means
    SL3 = 3  # sophisticated means, moderate resources
    SL4 = 4  # sophisticated means, extended resources


SlVector = Dict[str, SecurityLevel]


def sl_vector(**levels: int) -> SlVector:
    """Build an SL vector; unspecified FRs default to SL0.

    >>> sl_vector(FR1=2, FR6=3)["FR6"]
    <SecurityLevel.SL3: 3>
    """
    vector = {fr: SecurityLevel.SL0 for fr in FOUNDATIONAL_REQUIREMENTS}
    for fr, level in levels.items():
        if fr not in vector:
            raise KeyError(f"unknown foundational requirement {fr!r}")
        vector[fr] = SecurityLevel(level)
    return vector


@dataclass
class Zone:
    """A security zone.

    Attributes
    ----------
    name:
        Zone name.
    systems:
        Constituent systems assigned to the zone.
    sl_target:
        SL-T vector.
    deployed_measures:
        Countermeasure names deployed inside the zone.
    safety_related:
        Whether the zone hosts safety-related control functions
        (IEC TS 63074 requires SL-T ≥ SL2 for FR3/FR6 there).
    """

    name: str
    systems: List[str] = field(default_factory=list)
    sl_target: SlVector = field(default_factory=lambda: sl_vector())
    deployed_measures: List[str] = field(default_factory=list)
    safety_related: bool = False

    def sl_achieved(self, catalog: CountermeasureCatalog) -> SlVector:
        """SL-A from the deployed measures' capabilities."""
        return {
            fr: SecurityLevel(catalog.sl_capability(fr, self.deployed_measures))
            for fr in FOUNDATIONAL_REQUIREMENTS
        }

    def gaps(self, catalog: CountermeasureCatalog) -> Dict[str, int]:
        """Per-FR shortfall SL-T − SL-A (only positive entries)."""
        achieved = self.sl_achieved(catalog)
        return {
            fr: int(self.sl_target[fr]) - int(achieved[fr])
            for fr in FOUNDATIONAL_REQUIREMENTS
            if int(self.sl_target[fr]) > int(achieved[fr])
        }

    def compliant(self, catalog: CountermeasureCatalog) -> bool:
        return not self.gaps(catalog)


@dataclass
class Conduit:
    """A conduit between two zones."""

    name: str
    zone_a: str
    zone_b: str
    channels: List[str] = field(default_factory=list)
    sl_target: SlVector = field(default_factory=lambda: sl_vector())
    deployed_measures: List[str] = field(default_factory=list)

    def sl_achieved(self, catalog: CountermeasureCatalog) -> SlVector:
        return {
            fr: SecurityLevel(catalog.sl_capability(fr, self.deployed_measures))
            for fr in FOUNDATIONAL_REQUIREMENTS
        }

    def gaps(self, catalog: CountermeasureCatalog) -> Dict[str, int]:
        achieved = self.sl_achieved(catalog)
        return {
            fr: int(self.sl_target[fr]) - int(achieved[fr])
            for fr in FOUNDATIONAL_REQUIREMENTS
            if int(self.sl_target[fr]) > int(achieved[fr])
        }


class ZoneModelError(ValueError):
    """Raised for inconsistent zone/conduit models."""


class ZoneModel:
    """The zone-and-conduit partition of the system under consideration."""

    def __init__(self) -> None:
        self.catalog = CountermeasureCatalog()
        self.zones: Dict[str, Zone] = {}
        self.conduits: Dict[str, Conduit] = {}

    def add_zone(self, zone: Zone) -> Zone:
        if zone.name in self.zones:
            raise ZoneModelError(f"duplicate zone {zone.name!r}")
        if zone.safety_related:
            # IEC TS 63074: safety-related zones need at least SL2 on system
            # integrity and timely response
            for fr in ("FR3", "FR6"):
                if int(zone.sl_target[fr]) < int(SecurityLevel.SL2):
                    raise ZoneModelError(
                        f"safety-related zone {zone.name!r} requires SL-T >= 2 for {fr}"
                    )
        self.zones[zone.name] = zone
        return zone

    def add_conduit(self, conduit: Conduit) -> Conduit:
        if conduit.name in self.conduits:
            raise ZoneModelError(f"duplicate conduit {conduit.name!r}")
        for zone_name in (conduit.zone_a, conduit.zone_b):
            if zone_name not in self.zones:
                raise ZoneModelError(
                    f"conduit {conduit.name!r} references unknown zone {zone_name!r}"
                )
        self.conduits[conduit.name] = conduit
        return conduit

    def zone_of_system(self, system: str) -> Optional[Zone]:
        for zone in self.zones.values():
            if system in zone.systems:
                return zone
        return None

    def assessment(self) -> Dict[str, dict]:
        """Per-zone and per-conduit SL-T / SL-A / gap report."""
        report: Dict[str, dict] = {}
        for zone in self.zones.values():
            achieved = zone.sl_achieved(self.catalog)
            report[f"zone:{zone.name}"] = {
                "sl_target": {fr: int(v) for fr, v in zone.sl_target.items()},
                "sl_achieved": {fr: int(v) for fr, v in achieved.items()},
                "gaps": zone.gaps(self.catalog),
                "compliant": zone.compliant(self.catalog),
            }
        for conduit in self.conduits.values():
            achieved = conduit.sl_achieved(self.catalog)
            report[f"conduit:{conduit.name}"] = {
                "sl_target": {fr: int(v) for fr, v in conduit.sl_target.items()},
                "sl_achieved": {fr: int(v) for fr, v in achieved.items()},
                "gaps": conduit.gaps(self.catalog),
                "compliant": not conduit.gaps(self.catalog),
            }
        return report

    def total_gap(self) -> int:
        """Sum of all SL shortfalls (a single remediation-burden number)."""
        total = 0
        for zone in self.zones.values():
            total += sum(zone.gaps(self.catalog).values())
        for conduit in self.conduits.values():
            total += sum(conduit.gaps(self.catalog).values())
        return total
