"""Composed attack campaigns.

A campaign is an ordered set of timed attack steps run against a scenario —
the executable form of an ISO/SAE 21434 *attack path*.  Campaigns give the
benchmarks named, reproducible adversary behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.base import Attack


@dataclass
class CampaignStep:
    """One step: an attack, its start time and optional duration."""

    attack: Attack
    start_at: float
    duration: Optional[float] = None


class AttackCampaign:
    """An ordered, named collection of attack steps.

    Parameters
    ----------
    name:
        Campaign identifier (appears in experiment output).
    description:
        Human-readable summary of the adversary's goal.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.steps: List[CampaignStep] = []
        self.armed = False

    def add(
        self, attack: Attack, start_at: float, duration: Optional[float] = None
    ) -> "AttackCampaign":
        """Append a step; returns self for chaining."""
        self.steps.append(CampaignStep(attack=attack, start_at=start_at, duration=duration))
        return self

    def arm(self) -> None:
        """Schedule every step on the simulation clock."""
        if self.armed:
            raise RuntimeError(f"campaign {self.name!r} is already armed")
        for step in self.steps:
            step.attack.schedule(step.start_at, step.duration)
        self.armed = True

    @property
    def attack_types(self) -> List[str]:
        return sorted({step.attack.attack_type for step in self.steps})

    def ground_truth_windows(self) -> List[tuple]:
        """(attack_type, start, end) windows for IDS scoring."""
        windows = []
        for step in self.steps:
            end = step.start_at + step.duration if step.duration is not None else float("inf")
            windows.append((step.attack.attack_type, step.start_at, end))
        return windows
