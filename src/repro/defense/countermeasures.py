"""The countermeasure catalog (IEC TS 63074 / IEC 62443 foundational reqs).

IEC TS 63074 "outlines specific security countermeasures and strategies,
such as identification and authentication, access control, system integrity,
and data confidentiality".  The catalog maps each countermeasure to:

* the IEC 62443 foundational requirement (FR) it serves;
* the attack types it mitigates (the vocabulary of :mod:`repro.attacks`);
* its mitigation strength (risk-reduction factor used by treatment);
* the security level capability (SL-C) contribution per FR.

The risk treatment step (:mod:`repro.risk.treatment`) selects from this
catalog; the SoS zone calculus (:mod:`repro.risk.iec62443`) sums SL-C
contributions per zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence


@dataclass(frozen=True)
class Countermeasure:
    """A deployable security countermeasure.

    Attributes
    ----------
    name:
        Catalog identifier.
    foundational_requirement:
        IEC 62443 FR served ("FR1".."FR7").
    mitigates:
        Attack types reduced (``Attack.attack_type`` vocabulary).
    feasibility_increase:
        How much the countermeasure raises attack effort/feasibility cost,
        on the 0–4 attack-potential scale used by the TARA feasibility
        rating (higher = attack becomes harder).
    sl_capability:
        SL-C level this measure contributes for its FR (1–4).
    cost:
        Relative deployment cost (for treatment optimisation).
    description:
        Human-readable summary.
    """

    name: str
    foundational_requirement: str
    mitigates: FrozenSet[str]
    feasibility_increase: int
    sl_capability: int
    cost: float
    description: str = ""


def _cm(
    name: str, fr: str, mitigates: Sequence[str], feas: int, sl: int, cost: float,
    description: str,
) -> Countermeasure:
    return Countermeasure(
        name=name,
        foundational_requirement=fr,
        mitigates=frozenset(mitigates),
        feasibility_increase=feas,
        sl_capability=sl,
        cost=cost,
        description=description,
    )


#: the worksite countermeasure catalog
DEFAULT_CATALOG: List[Countermeasure] = [
    _cm("pki_mutual_auth", "FR1", ["message_injection", "message_tampering"],
        3, 3, 2.0, "Certificate-based mutual authentication of all nodes (CA)"),
    _cm("rbac_command_authorization", "FR2", ["message_injection"],
        2, 2, 1.0, "Role-based authorisation of every machine command"),
    _cm("secure_channel_aead", "FR4", ["message_injection", "message_tampering",
                                       "message_replay"],
        3, 3, 1.5, "AEAD record protection with replay windows on all links"),
    _cm("integrity_hmac", "FR3", ["message_tampering"],
        2, 2, 0.5, "HMAC integrity tags on all application messages"),
    _cm("protected_management_frames", "FR5", ["wifi_deauth"],
        3, 2, 0.5, "Authenticated link-management (de-auth) frames"),
    _cm("channel_agility", "FR7", ["rf_jamming", "frequency_interference"],
        1, 1, 1.0, "Frequency agility and channel re-allocation under interference"),
    _cm("signature_ids", "FR6", ["wifi_deauth", "message_injection", "rf_jamming",
                                 "camera_blinding"],
        1, 2, 1.0, "Signature-based intrusion detection with alerting"),
    _cm("anomaly_ids", "FR6", ["rf_jamming", "frequency_interference",
                               "gnss_jamming", "camera_hijack"],
        1, 2, 1.5, "Statistical anomaly detection on channel features"),
    _cm("spec_ids", "FR6", ["message_injection", "message_replay"],
        2, 3, 1.5, "Specification-based protocol conformance monitoring"),
    _cm("gnss_plausibility", "FR3", ["gnss_spoofing", "gnss_jamming"],
        2, 2, 1.0, "C/N0, innovation and dead-reckoning GNSS checks"),
    _cm("camera_redundancy", "FR3", ["camera_blinding", "camera_hijack"],
        2, 2, 2.0, "Multi-camera redundancy with divergence quarantine"),
    _cm("anti_hacking_ai", "FR6", ["camera_hijack", "camera_blinding"],
        1, 2, 1.5, "AI feed-health watchdog (Kyrkou-style anti-hacking device)"),
    _cm("secure_boot", "FR3", ["firmware_tampering"],
        3, 3, 1.5, "Measured boot against a reference manifest"),
    _cm("remote_attestation", "FR3", ["firmware_tampering"],
        2, 3, 1.5, "Challenge-response attestation of boot measurements"),
    _cm("data_encryption", "FR4", ["eavesdropping"],
        3, 3, 0.5, "Confidentiality of operations data in transit"),
    _cm("offline_recovery_plan", "FR7", ["rf_jamming", "wifi_deauth"],
        1, 2, 1.0, "Degraded-mode autonomy and store-and-forward under comms loss"),
    _cm("session_lockout", "FR1", ["credential_bruteforce"],
        2, 2, 0.3, "Failure counting and lockout on authentication"),
]


#: feasibility-cost increase a measure must bring to count as covering
MIN_FEASIBILITY_INCREASE = 2


class CountermeasureCatalog:
    """Query interface over a countermeasure list."""

    def __init__(self, measures: Optional[Sequence[Countermeasure]] = None) -> None:
        self.measures = list(DEFAULT_CATALOG if measures is None else measures)
        self._by_name = {m.name: m for m in self.measures}
        if len(self._by_name) != len(self.measures):
            raise ValueError("duplicate countermeasure names in catalog")

    def __len__(self) -> int:
        return len(self.measures)

    def get(self, name: str) -> Countermeasure:
        return self._by_name[name]

    def mitigating(self, attack_type: str) -> List[Countermeasure]:
        """All measures that mitigate ``attack_type``, strongest first."""
        found = [m for m in self.measures if attack_type in m.mitigates]
        return sorted(found, key=lambda m: (-m.feasibility_increase, m.cost))

    def sl_capability(self, fr: str, deployed: Sequence[str]) -> int:
        """Achieved SL-C for ``fr`` given the deployed measure names."""
        levels = [
            self._by_name[name].sl_capability
            for name in deployed
            if name in self._by_name
            and self._by_name[name].foundational_requirement == fr
        ]
        return max(levels) if levels else 0

    def cheapest_covering(self, attack_types: Sequence[str]) -> List[Countermeasure]:
        """Greedy minimum-cost set covering all ``attack_types``.

        Each selected measure must raise feasibility cost by at least
        :data:`MIN_FEASIBILITY_INCREASE` for the attacks it covers.
        """
        uncovered = set(attack_types)
        chosen: List[Countermeasure] = []
        candidates = [
            m for m in self.measures if m.feasibility_increase >= MIN_FEASIBILITY_INCREASE
        ]
        while uncovered:
            best, best_gain = None, 0.0
            for measure in candidates:
                gain = len(uncovered & measure.mitigates)
                if gain == 0:
                    continue
                score = gain / measure.cost
                if best is None or score > best_gain:
                    best, best_gain = measure, score
            if best is None:
                break  # some attack types have no strong-enough mitigation
            chosen.append(best)
            uncovered -= best.mitigates
        return chosen
