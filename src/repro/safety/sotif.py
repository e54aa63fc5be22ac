"""ISO 21448 SOTIF: triggering conditions and scenario-area accounting.

SOTIF partitions the scenario space into four areas:

* Area 1 — known safe;
* Area 2 — known unsafe (triggering conditions identified, to be mitigated);
* Area 3 — unknown unsafe (the residual-risk driver, to be minimised);
* Area 4 — unknown safe.

The analysis here tracks a catalog of *triggering conditions* (functional
insufficiencies of the people-detection function under specific conditions —
occlusion, heavy rain, low light, ...), the evaluation evidence collected
per condition from simulation runs, and the resulting movement of scenarios
from "unknown" to "known" and from "unsafe" to "mitigated".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional


class ScenarioArea(enum.Enum):
    """SOTIF scenario areas."""

    KNOWN_SAFE = "area1_known_safe"
    KNOWN_UNSAFE = "area2_known_unsafe"
    UNKNOWN_UNSAFE = "area3_unknown_unsafe"
    UNKNOWN_SAFE = "area4_unknown_safe"


@dataclass
class TriggeringCondition:
    """A condition under which the intended functionality is insufficient.

    Attributes
    ----------
    condition_id:
        Catalog identifier.
    description:
        The condition (e.g. "person approach fully occluded by ridge").
    scenario_class:
        Grouping key (weather / occlusion / kinematics / sensor).
    exposures:
        Number of simulated exposures to the condition.
    failures:
        Exposures in which the function failed (missed/late detection).
    """

    condition_id: str
    description: str
    scenario_class: str
    exposures: int = 0
    failures: int = 0

    @property
    def failure_rate(self) -> Optional[float]:
        if self.exposures == 0:
            return None
        return self.failures / self.exposures

    def record(self, failed: bool) -> None:
        self.exposures += 1
        if failed:
            self.failures += 1


def default_triggering_conditions() -> List[TriggeringCondition]:
    """The worksite people-detection triggering-condition catalog."""
    return [
        TriggeringCondition("TC-01", "Person approach occluded by terrain ridge", "occlusion"),
        TriggeringCondition("TC-02", "Person approach through dense stand (canopy)", "occlusion"),
        TriggeringCondition("TC-03", "Detection in heavy rain", "weather"),
        TriggeringCondition("TC-04", "Detection in fog", "weather"),
        TriggeringCondition("TC-05", "Detection at low ambient light", "weather"),
        TriggeringCondition("TC-06", "Fast approach from behind the machine", "kinematics"),
        TriggeringCondition("TC-07", "Drone unavailable (charging/grounded)", "sensor"),
        TriggeringCondition("TC-08", "Person partially visible at max range", "sensor"),
    ]


class SotifAnalysis:
    """Scenario-area accounting over a triggering-condition catalog.

    The catalog is the worksite's (:func:`default_triggering_conditions`).

    Parameters
    ----------
    acceptance_rate:
        Failure rate at or below which an evaluated condition counts as
        *acceptably mitigated* (validation target of clause 9).
    min_exposures:
        Exposures required before a condition's evidence is trusted.
    """

    def __init__(
        self, *, acceptance_rate: float = 0.05, min_exposures: int = 20
    ) -> None:
        self.conditions = default_triggering_conditions()
        self._by_id = {c.condition_id: c for c in self.conditions}
        self.acceptance_rate = acceptance_rate
        self.min_exposures = min_exposures
        #: estimated share of scenario space not covered by the catalog
        self.unknown_share_estimate = 0.25

    def get(self, condition_id: str) -> TriggeringCondition:
        return self._by_id[condition_id]

    def record_exposure(self, condition_id: str, failed: bool) -> None:
        """Record one simulated exposure outcome."""
        self._by_id[condition_id].record(failed)

    def area_of(self, condition: TriggeringCondition) -> ScenarioArea:
        """Classify one condition's current scenario area."""
        if condition.exposures < self.min_exposures:
            return ScenarioArea.UNKNOWN_UNSAFE
        rate = condition.failure_rate or 0.0
        if rate <= self.acceptance_rate:
            return ScenarioArea.KNOWN_SAFE
        return ScenarioArea.KNOWN_UNSAFE

    def area_counts(self) -> Dict[ScenarioArea, int]:
        counts = {area: 0 for area in ScenarioArea}
        for condition in self.conditions:
            counts[self.area_of(condition)] += 1
        return counts

    def residual_risk_indicator(self) -> float:
        """A [0, 1] indicator combining known-unsafe mass and unknown share.

        Not a probability — a monotone indicator for comparing designs
        (e.g. with vs without the collaborative drone), as clause 7's
        quantitative targets require a full exposure model the paper itself
        notes does not exist for forestry.
        """
        evaluated = [c for c in self.conditions if c.exposures >= self.min_exposures]
        if evaluated:
            unsafe_mass = sum(
                (c.failure_rate or 0.0) for c in evaluated
            ) / len(evaluated)
        else:
            unsafe_mass = 1.0
        coverage = len(evaluated) / max(len(self.conditions), 1)
        return min(1.0, unsafe_mass * coverage + (1.0 - coverage) + self.unknown_share_estimate * 0.2)

    def improvement_over(self, baseline: "SotifAnalysis") -> float:
        """Relative residual-risk reduction vs a baseline analysis."""
        base = baseline.residual_risk_indicator()
        if base == 0.0:
            return 0.0
        return (base - self.residual_risk_indicator()) / base
