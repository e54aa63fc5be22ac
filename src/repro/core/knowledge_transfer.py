"""The Figure 3 knowledge-transfer pipeline, executable.

The paper's survey method: start from robotics-in-forestry (finding no
cybersecurity literature), identify forestry characteristics, then transfer
knowledge from similar domains — mining AHS (Gaber et al.) and automotive
(Ren et al., Petit et al.) — plus SoS and autonomous-machinery requirements.

The executable form: each source domain contributes a *threat catalog*
(threat entries with domain context tags); the transfer maps entries whose
context tags are compatible with the forestry characteristics onto the
forestry item model, and reports coverage: how much of the forestry threat
space each source domain explains, what only the combination covers, and
what remains uncovered (the paper's "research gap").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.risk.model import ItemModel


@dataclass(frozen=True)
class CatalogEntry:
    """One transferable threat-knowledge entry.

    Attributes
    ----------
    entry_id:
        Identifier within the source catalog.
    attack_type:
        The attack class described (``repro.attacks`` vocabulary).
    context_tags:
        Domain-context requirements for the entry to transfer (e.g.
        ``"wireless"``, ``"gnss_nav"``, ``"camera_perception"``,
        ``"urban_infrastructure"``).  The entry transfers when all its tags
        are satisfied by the target domain's context.
    mitigations:
        Countermeasure names the source domain pairs with the threat.
    source_ref:
        Literature anchor.
    """

    entry_id: str
    attack_type: str
    context_tags: FrozenSet[str]
    mitigations: FrozenSet[str] = frozenset()
    source_ref: str = ""


@dataclass(frozen=True)
class DomainCatalog:
    """A source domain's threat catalog."""

    domain: str
    entries: Sequence[CatalogEntry]


#: context tags the forestry worksite satisfies (derived from Table I and the
#: use case: wireless SoS, GNSS navigation, camera perception, no urban
#: cooperative infrastructure, remote site, autonomous machines)
FORESTRY_CONTEXT: FrozenSet[str] = frozenset({
    "wireless", "gnss_nav", "camera_perception", "autonomous", "remote_site",
    "heavy_machinery", "system_of_systems",
})


def mining_catalog() -> DomainCatalog:
    """The mining AHS catalog (Gaber et al.)."""
    entries = [
        CatalogEntry("MIN-01", "rf_jamming", frozenset({"wireless"}),
                     frozenset({"channel_agility", "anomaly_ids"}), "Gaber2021"),
        CatalogEntry("MIN-02", "frequency_interference", frozenset({"wireless"}),
                     frozenset({"channel_agility"}), "Gaber2021"),
        CatalogEntry("MIN-03", "wifi_deauth", frozenset({"wireless"}),
                     frozenset({"protected_management_frames"}), "Gaber2021"),
        CatalogEntry("MIN-04", "gnss_jamming", frozenset({"gnss_nav"}),
                     frozenset({"gnss_plausibility"}), "Gaber2021"),
        CatalogEntry("MIN-05", "gnss_spoofing", frozenset({"gnss_nav"}),
                     frozenset({"gnss_plausibility"}), "Gaber2021"),
        CatalogEntry("MIN-06", "camera_hijack", frozenset({"camera_perception"}),
                     frozenset({"anti_hacking_ai"}), "Gaber2021"),
        CatalogEntry("MIN-07", "channel_overload", frozenset({"wireless", "dense_fleet"}),
                     frozenset(), "Gaber2021"),
    ]
    return DomainCatalog("mining", entries)


def automotive_catalog() -> DomainCatalog:
    """The automotive AV catalog (Ren, Petit, Kyrkou, Chattopadhyay)."""
    entries = [
        CatalogEntry("AUT-01", "gnss_spoofing", frozenset({"gnss_nav"}),
                     frozenset({"gnss_plausibility"}), "Ren2019"),
        CatalogEntry("AUT-02", "camera_blinding", frozenset({"camera_perception"}),
                     frozenset({"camera_redundancy"}), "Petit2015"),
        CatalogEntry("AUT-03", "camera_hijack", frozenset({"camera_perception"}),
                     frozenset({"anti_hacking_ai", "camera_redundancy"}), "Kyrkou2020"),
        CatalogEntry("AUT-04", "lidar_spoofing", frozenset({"lidar_perception"}),
                     frozenset({"camera_redundancy"}), "Petit2015"),
        CatalogEntry("AUT-05", "message_injection", frozenset({"wireless"}),
                     frozenset({"pki_mutual_auth", "secure_channel_aead"}),
                     "Chattopadhyay2017"),
        CatalogEntry("AUT-06", "message_replay", frozenset({"wireless"}),
                     frozenset({"secure_channel_aead"}), "Chattopadhyay2017"),
        CatalogEntry("AUT-07", "v2i_spoofing", frozenset({"urban_infrastructure"}),
                     frozenset(), "Ren2019"),
        CatalogEntry("AUT-08", "eavesdropping", frozenset({"wireless"}),
                     frozenset({"data_encryption"}), "Ren2019"),
    ]
    return DomainCatalog("automotive", entries)


def it_security_catalog() -> DomainCatalog:
    """Generic IT/ICS security knowledge (IEC 62443 background)."""
    entries = [
        CatalogEntry("ICS-01", "credential_bruteforce", frozenset({"remote_site"}),
                     frozenset({"session_lockout"}), "IEC62443"),
        CatalogEntry("ICS-02", "firmware_tampering", frozenset({"remote_site"}),
                     frozenset({"secure_boot", "remote_attestation"}), "IEC62443"),
        CatalogEntry("ICS-03", "message_tampering", frozenset({"wireless"}),
                     frozenset({"integrity_hmac"}), "IEC62443"),
        CatalogEntry("ICS-04", "datacenter_intrusion", frozenset({"cloud_backend"}),
                     frozenset(), "IEC62443"),
    ]
    return DomainCatalog("ics_it", entries)


@dataclass
class TransferReport:
    """Coverage analysis of the knowledge transfer."""

    target_attack_types: List[str]
    transferred: Dict[str, List[str]]  # domain -> transferred attack types
    rejected: Dict[str, List[str]]     # domain -> entries blocked by context
    covered: Set[str] = field(default_factory=set)
    uncovered: Set[str] = field(default_factory=set)
    mitigation_suggestions: Dict[str, Set[str]] = field(default_factory=dict)

    def coverage(self) -> float:
        total = len(self.target_attack_types)
        if total == 0:
            return 1.0
        return len(self.covered) / total

    def coverage_by_domain(self) -> Dict[str, float]:
        total = len(self.target_attack_types)
        if total == 0:
            return {d: 1.0 for d in self.transferred}
        return {
            domain: len(set(types) & set(self.target_attack_types)) / total
            for domain, types in self.transferred.items()
        }


class KnowledgeTransfer:
    """The Figure 3 pipeline over a set of source catalogs.

    Parameters
    ----------
    catalogs:
        Source domain catalogs (default: mining + automotive + ICS).
    """

    #: target-domain context tags
    context = FORESTRY_CONTEXT

    def __init__(self, catalogs: Optional[Sequence[DomainCatalog]] = None) -> None:
        self.catalogs = list(
            catalogs
            if catalogs is not None
            else [mining_catalog(), automotive_catalog(), it_security_catalog()]
        )

    def transfer(self, item: ItemModel) -> TransferReport:
        """Map the catalogs onto the item's threat space."""
        target_types = sorted({t.attack_type for t in item.threat_scenarios})
        transferred: Dict[str, List[str]] = {}
        rejected: Dict[str, List[str]] = {}
        covered: Set[str] = set()
        suggestions: Dict[str, Set[str]] = {}
        for catalog in self.catalogs:
            ok: List[str] = []
            blocked: List[str] = []
            for entry in catalog.entries:
                if entry.context_tags <= self.context:
                    ok.append(entry.attack_type)
                    if entry.attack_type in target_types:
                        covered.add(entry.attack_type)
                        suggestions.setdefault(entry.attack_type, set()).update(
                            entry.mitigations
                        )
                else:
                    blocked.append(entry.entry_id)
            transferred[catalog.domain] = ok
            rejected[catalog.domain] = blocked
        report = TransferReport(
            target_attack_types=target_types,
            transferred=transferred,
            rejected=rejected,
            covered=covered,
            uncovered=set(target_types) - covered,
            mitigation_suggestions=suggestions,
        )
        return report
