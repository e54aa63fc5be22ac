"""ISO 12100 hazard identification and ISO 13849-1 risk graph.

The risk graph of ISO 13849-1 Annex A maps three parameters to the required
Performance Level (PLr):

* S — severity of injury (S1 slight, S2 serious/death);
* F — frequency/duration of exposure (F1 seldom, F2 frequent);
* P — possibility of avoidance (P1 possible, P2 scarcely possible).

The worksite hazard catalog instantiates the machine-related hazards of the
paper's use case; the combined methodology re-estimates these hazards under
cybersecurity compromise (a successful attack can raise F or P).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence


class Severity(enum.IntEnum):
    """S parameter."""

    S1 = 1  # slight, normally reversible injury
    S2 = 2  # serious, normally irreversible injury or death


class Exposure(enum.IntEnum):
    """F parameter."""

    F1 = 1  # seldom to less often / short exposure
    F2 = 2  # frequent to continuous / long exposure


class Avoidance(enum.IntEnum):
    """P parameter."""

    P1 = 1  # possible under specific conditions
    P2 = 2  # scarcely possible


@dataclass(frozen=True)
class RiskGraphResult:
    """Outcome of the risk graph: the required Performance Level."""

    severity: Severity
    exposure: Exposure
    avoidance: Avoidance
    plr: str


_RISK_GRAPH: Dict[tuple, str] = {
    (Severity.S1, Exposure.F1, Avoidance.P1): "a",
    (Severity.S1, Exposure.F1, Avoidance.P2): "b",
    (Severity.S1, Exposure.F2, Avoidance.P1): "b",
    (Severity.S1, Exposure.F2, Avoidance.P2): "c",
    (Severity.S2, Exposure.F1, Avoidance.P1): "c",
    (Severity.S2, Exposure.F1, Avoidance.P2): "d",
    (Severity.S2, Exposure.F2, Avoidance.P1): "d",
    (Severity.S2, Exposure.F2, Avoidance.P2): "e",
}


def risk_graph(severity: Severity, exposure: Exposure, avoidance: Avoidance) -> RiskGraphResult:
    """Apply the ISO 13849-1 risk graph."""
    plr = _RISK_GRAPH[(severity, exposure, avoidance)]
    return RiskGraphResult(severity=severity, exposure=exposure, avoidance=avoidance, plr=plr)


@dataclass(frozen=True)
class Hazard:
    """An identified hazard per ISO 12100.

    Attributes
    ----------
    hazard_id:
        Catalog identifier.
    description:
        The hazardous situation.
    machine:
        The machine involved.
    severity / exposure / avoidance:
        Risk-graph parameters in the *uncompromised* system.
    safety_function:
        Name of the mitigating safety function, if any.
    cyber_coupled:
        True when a cybersecurity compromise can worsen the hazard
        parameters (the interplay flag consumed by ``repro.core.interplay``).
    """

    hazard_id: str
    description: str
    machine: str
    severity: Severity
    exposure: Exposure
    avoidance: Avoidance
    safety_function: Optional[str] = None
    cyber_coupled: bool = False

    def required_pl(self) -> str:
        return risk_graph(self.severity, self.exposure, self.avoidance).plr

    def degraded(
        self,
        *,
        exposure: Optional[Exposure] = None,
        avoidance: Optional[Avoidance] = None,
    ) -> "Hazard":
        """The hazard re-estimated under compromise (raised F and/or P)."""
        return replace(
            self,
            exposure=exposure if exposure is not None else self.exposure,
            avoidance=avoidance if avoidance is not None else self.avoidance,
        )


def worksite_hazards() -> List[Hazard]:
    """The hazard catalog of the Figure 1 worksite."""
    return [
        Hazard(
            "HZ-01", "Forwarder strikes a person on the extraction route",
            "forwarder", Severity.S2, Exposure.F1, Avoidance.P1,
            safety_function="people_detection_stop", cyber_coupled=True,
        ),
        Hazard(
            "HZ-02", "Forwarder strikes a person occluded by terrain/stand",
            "forwarder", Severity.S2, Exposure.F1, Avoidance.P2,
            safety_function="people_detection_stop", cyber_coupled=True,
        ),
        Hazard(
            "HZ-03", "Forwarder departs the planned route into the harvest area",
            "forwarder", Severity.S2, Exposure.F1, Avoidance.P1,
            safety_function="geofence", cyber_coupled=True,
        ),
        Hazard(
            "HZ-04", "Unexpected forwarder restart during manual intervention",
            "forwarder", Severity.S2, Exposure.F1, Avoidance.P2,
            safety_function="protective_stop", cyber_coupled=True,
        ),
        Hazard(
            "HZ-05", "Drone falls onto a person (battery/impact)",
            "drone", Severity.S1, Exposure.F1, Avoidance.P1,
            safety_function=None, cyber_coupled=True,
        ),
        Hazard(
            "HZ-06", "Harvester boom strikes a person during felling",
            "harvester", Severity.S2, Exposure.F2, Avoidance.P1,
            safety_function=None, cyber_coupled=False,
        ),
        Hazard(
            "HZ-07", "Log load shifts/falls during transport",
            "forwarder", Severity.S2, Exposure.F1, Avoidance.P1,
            safety_function="speed_limiter", cyber_coupled=False,
        ),
        Hazard(
            "HZ-08", "Forwarder rollover on steep terrain",
            "forwarder", Severity.S2, Exposure.F1, Avoidance.P1,
            safety_function="speed_limiter", cyber_coupled=True,
        ),
    ]


class HazardCatalog:
    """Query interface over a hazard list."""

    def __init__(self, hazards: Optional[Sequence[Hazard]] = None) -> None:
        self.hazards = list(worksite_hazards() if hazards is None else hazards)
        self._by_id = {h.hazard_id: h for h in self.hazards}
        if len(self._by_id) != len(self.hazards):
            raise ValueError("duplicate hazard ids")

    def __len__(self) -> int:
        return len(self.hazards)

    def get(self, hazard_id: str) -> Hazard:
        return self._by_id[hazard_id]

    def cyber_coupled(self) -> List[Hazard]:
        return [h for h in self.hazards if h.cyber_coupled]

    def for_machine(self, machine: str) -> List[Hazard]:
        return [h for h in self.hazards if h.machine == machine]
