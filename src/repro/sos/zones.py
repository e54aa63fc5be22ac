"""Mapping the worksite SoS onto an IEC 62443 zone/conduit model.

The partition follows IEC 62443-3-2 practice: group by common security
requirements and management authority.  Safety-related control (forwarder,
drone safety path) gets its own zone with elevated SL-T on FR3/FR6 per
IEC TS 63074; the operator's control station forms the supervision zone;
the OEM cloud is outside the site perimeter and connects via a conduit
with confidentiality requirements (Table I: confidentiality of operations).
"""

from __future__ import annotations

from typing import Optional

from repro.risk.iec62443 import Conduit, Zone, ZoneModel, sl_vector


def worksite_zone_model(
    *,
    deployed_safety_zone: Optional[list] = None,
    deployed_supervision_zone: Optional[list] = None,
    deployed_conduits: Optional[list] = None,
) -> ZoneModel:
    """Build the worksite zone model.

    Membership is checked against the worksite composition
    (:func:`~repro.sos.composition.worksite_sos`).

    Parameters
    ----------
    deployed_*:
        Countermeasure names deployed per zone/conduit; defaults model the
        *initial* (under-protected) state so the gap analysis has work to do.
    """
    from repro.sos.composition import worksite_sos

    sos = worksite_sos()
    model = ZoneModel()

    safety_zone = Zone(
        name="safety-control",
        systems=["forwarder", "drone"],
        sl_target=sl_vector(FR1=3, FR2=3, FR3=3, FR4=2, FR5=2, FR6=3, FR7=3),
        deployed_measures=list(deployed_safety_zone or []),
        safety_related=True,
    )
    supervision_zone = Zone(
        name="supervision",
        systems=["control_station", "harvester"],
        sl_target=sl_vector(FR1=2, FR2=2, FR3=2, FR4=2, FR5=1, FR6=2, FR7=2),
        deployed_measures=list(deployed_supervision_zone or []),
    )
    enterprise_zone = Zone(
        name="enterprise-cloud",
        systems=["fleet_cloud"],
        sl_target=sl_vector(FR1=2, FR2=2, FR3=2, FR4=3, FR5=2, FR6=1, FR7=1),
        deployed_measures=["data_encryption", "pki_mutual_auth", "session_lockout"],
    )
    model.add_zone(safety_zone)
    model.add_zone(supervision_zone)
    model.add_zone(enterprise_zone)

    deployed_conduits = list(deployed_conduits or [])
    model.add_conduit(Conduit(
        name="site-radio",
        zone_a="safety-control",
        zone_b="supervision",
        channels=["fwd-command", "fwd-telemetry", "drone-detections",
                  "drone-telemetry"],
        sl_target=sl_vector(FR1=3, FR3=3, FR4=2, FR5=2, FR7=2),
        deployed_measures=deployed_conduits,
    ))
    model.add_conduit(Conduit(
        name="uplink",
        zone_a="supervision",
        zone_b="enterprise-cloud",
        channels=["cloud-sync", "cloud-config"],
        sl_target=sl_vector(FR1=2, FR3=2, FR4=3, FR5=2),
        deployed_measures=["data_encryption", "pki_mutual_auth"],
    ))

    # membership sanity: every zone system must exist in the SoS
    for zone in model.zones.values():
        for system in zone.systems:
            if system not in sos.systems:
                raise ValueError(
                    f"zone {zone.name!r} lists system {system!r} missing from the SoS"
                )
    return model
