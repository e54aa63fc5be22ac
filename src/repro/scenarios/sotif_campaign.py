"""The SOTIF evidence-collection campaign (ISO 21448 clause 9/10).

Section III-C: AGRARSENSE "explores how to adapt SOTIF principles to forest
machinery" on the Figure 2 use case.  The campaign runs approach episodes
under each catalogued triggering condition (occlusion classes, weather
classes, sensor-availability classes) and records pass/fail exposures into
a :class:`~repro.safety.sotif.SotifAnalysis` — the evidence stream that
moves scenarios from "unknown" to "known" and quantifies the residual-risk
difference between the ground-only and collaborative designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.safety.sotif import SotifAnalysis
from repro.scenarios.usecase import UsecaseConfig, build_usecase
from repro.sim.weather import WeatherState


@dataclass(frozen=True)
class ConditionSetup:
    """How one triggering condition is realised as episode parameters."""

    condition_id: str
    config_overrides: Dict[str, object]


#: triggering-condition id -> the use-case parameters that create it
CONDITION_SETUPS: List[ConditionSetup] = [
    ConditionSetup("TC-01", {"ridge_height": 11.0, "n_screen_trees": 10}),
    ConditionSetup("TC-02", {"ridge_height": 2.0, "n_screen_trees": 70}),
    ConditionSetup("TC-03", {"weather": WeatherState.HEAVY_RAIN,
                             "ridge_height": 6.0}),
    ConditionSetup("TC-04", {"weather": WeatherState.FOG, "ridge_height": 6.0}),
    ConditionSetup("TC-05", {"weather": WeatherState.OVERCAST,
                             "ridge_height": 6.0}),
    ConditionSetup("TC-06", {"approach_speed": 2.6, "ridge_height": 8.0}),
    ConditionSetup("TC-07", {"drone_enabled": False, "ridge_height": 8.0}),
    ConditionSetup("TC-08", {"approach_distance_m": 110.0,
                             "ridge_height": 4.0, "n_screen_trees": 25}),
]


@dataclass
class SotifCampaignResult:
    """Outcome of one evidence-collection campaign."""

    analysis: SotifAnalysis
    episodes_run: int
    failures_by_condition: Dict[str, int] = field(default_factory=dict)


def episode_failed(result) -> bool:
    """SOTIF failure criterion: the function endangered the person.

    An episode fails when the machine was still moving with the person
    inside the danger envelope (``stopped_in_time`` False) — a missed or
    too-late detection.
    """
    return not result.stopped_in_time


def run_sotif_campaign(
    *,
    drone_enabled: bool = True,
    exposures_per_condition: int = 8,
    base_seed: int = 500,
    analysis: Optional[SotifAnalysis] = None,
) -> SotifCampaignResult:
    """Collect exposures for every catalogued triggering condition.

    Parameters
    ----------
    drone_enabled:
        The design under evaluation (TC-07 forces the drone off regardless —
        that *is* its condition).
    exposures_per_condition:
        Episodes per condition (clause 9 wants enough exposure for the
        failure-rate estimate; the analysis' ``min_exposures`` gates trust).
    """
    analysis = analysis or SotifAnalysis(
        min_exposures=exposures_per_condition, acceptance_rate=0.15
    )
    episodes = 0
    failures: Dict[str, int] = {}
    for setup in CONDITION_SETUPS:
        overrides = dict(setup.config_overrides)
        if "drone_enabled" not in overrides:
            overrides["drone_enabled"] = drone_enabled
        for i in range(exposures_per_condition):
            config = UsecaseConfig(
                seed=base_seed + episodes, **overrides  # type: ignore[arg-type]
            )
            usecase = build_usecase(config)
            result = usecase.run_episode()
            failed = episode_failed(result)
            analysis.record_exposure(setup.condition_id, failed)
            failures[setup.condition_id] = (
                failures.get(setup.condition_id, 0) + int(failed)
            )
            episodes += 1
    return SotifCampaignResult(
        analysis=analysis,
        episodes_run=episodes,
        failures_by_condition=failures,
    )
