"""STRIDE threat enumeration over an item model.

Systematically derives threat scenarios from the item's structure: each
asset's protected properties map to the STRIDE categories that violate them,
and each category maps to the concrete attack types available against the
asset's carrier (channels ⇒ radio/network attacks, sensors ⇒ sensor attacks,
platforms ⇒ firmware attacks).  The output plugs straight into the TARA.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.risk.model import (
    Asset,
    CybersecurityProperty,
    ItemModel,
    ThreatScenario,
)

#: STRIDE category -> violated property
STRIDE_VIOLATES: Dict[str, CybersecurityProperty] = {
    "spoofing": CybersecurityProperty.INTEGRITY,
    "tampering": CybersecurityProperty.INTEGRITY,
    "repudiation": CybersecurityProperty.INTEGRITY,
    "information_disclosure": CybersecurityProperty.CONFIDENTIALITY,
    "denial_of_service": CybersecurityProperty.AVAILABILITY,
    "elevation_of_privilege": CybersecurityProperty.INTEGRITY,
}

#: (asset kind, STRIDE category) -> candidate attack types
_ATTACKS_BY_KIND: Dict[Tuple[str, str], List[str]] = {
    ("channel", "spoofing"): ["message_injection"],
    ("channel", "tampering"): ["message_tampering", "message_replay"],
    ("channel", "information_disclosure"): ["eavesdropping"],
    ("channel", "denial_of_service"): ["rf_jamming", "wifi_deauth",
                                       "frequency_interference"],
    ("sensor.gnss", "spoofing"): ["gnss_spoofing"],
    ("sensor.gnss", "denial_of_service"): ["gnss_jamming"],
    ("sensor.camera", "tampering"): ["camera_hijack"],
    ("sensor.camera", "denial_of_service"): ["camera_blinding"],
    ("sensor.camera", "information_disclosure"): ["camera_hijack"],
    ("platform", "tampering"): ["firmware_tampering"],
    ("platform", "elevation_of_privilege"): ["credential_bruteforce"],
    ("data", "information_disclosure"): ["eavesdropping"],
    ("data", "tampering"): ["message_tampering"],
}


def asset_kind(asset: Asset) -> str:
    """Infer the asset kind from its id prefix (``ch-``, ``gnss-``, ...)."""
    prefix = asset.asset_id.split("-", 1)[0].lower()
    mapping = {
        "ch": "channel",
        "gnss": "sensor.gnss",
        "cam": "sensor.camera",
        "fw": "platform",
        "data": "data",
    }
    return mapping.get(prefix, "platform")


def enumerate_threats(item: ItemModel) -> List[ThreatScenario]:
    """Derive threat scenarios for every damage scenario of the item.

    For each damage scenario, every STRIDE category violating the scenario's
    property yields one threat per applicable attack type.
    """
    threats: List[ThreatScenario] = []
    counter = 0
    for damage in item.damage_scenarios:
        asset = item.asset(damage.asset_id)
        kind = asset_kind(asset)
        for stride, violated in STRIDE_VIOLATES.items():
            if violated is not damage.violated_property:
                continue
            attack_types = _ATTACKS_BY_KIND.get((kind, stride), [])
            for attack_type in attack_types:
                counter += 1
                threats.append(
                    ThreatScenario(
                        threat_id=f"TS-{counter:03d}",
                        damage_scenario_id=damage.scenario_id,
                        stride=stride,
                        attack_type=attack_type,
                        description=(
                            f"{stride.replace('_', ' ')} of {asset.name} via "
                            f"{attack_type.replace('_', ' ')}"
                        ),
                    )
                )
    return threats


def coverage_by_stride(threats: Sequence[ThreatScenario]) -> Dict[str, int]:
    """Count of enumerated threats per STRIDE category."""
    counts: Dict[str, int] = {category: 0 for category in STRIDE_VIOLATES}
    for threat in threats:
        counts[threat.stride] = counts.get(threat.stride, 0) + 1
    return counts
