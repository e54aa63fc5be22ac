"""Emergent-interaction detection over the simulation event log.

Waller & Craddock's "emergent behavior" dimension: "after deployment, SoS
behave and function in a non-localized manner".  The detector finds
*cross-system event cascades* — windows where events from different source
systems cluster far above their independent base rates — and flags cascades
touching safety events as emergent safety-relevant interactions.

This is deliberately a black-box log analysis: emergence is what the
designers did not model, so it must be found from behaviour, not structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.events import EventCategory, EventLog, SimEvent


@dataclass(frozen=True)
class EmergentInteraction:
    """One detected cross-system cascade."""

    start: float
    end: float
    sources: Sequence[str]
    kinds: Sequence[str]
    event_count: int
    safety_relevant: bool
    density_ratio: float  # cascade rate over base rate


class EmergenceDetector:
    """Sliding-window cascade detection.

    Parameters
    ----------
    min_sources:
        Minimum distinct source systems for a window to count as
        cross-system.
    density_threshold:
        Event rate in-window must exceed this multiple of the log's overall
        rate.
    """

    #: cascade window length, seconds
    window_s = 10.0

    SAFETY_KINDS = {"safe_stop", "safety_violation", "near_miss"}

    def __init__(
        self, *, min_sources: int = 3, density_threshold: float = 3.0
    ) -> None:
        self.min_sources = min_sources
        self.density_threshold = density_threshold

    @staticmethod
    def system_of(source: str) -> str:
        """The system owning an event source: its prefix before the first
        ``.`` or ``-``."""
        for sep in (".", "-"):
            if sep in source:
                return source.split(sep, 1)[0]
        return source

    def detect(self, log: EventLog, horizon_s: float) -> List[EmergentInteraction]:
        """Scan the log for emergent cross-system cascades."""
        events = [e for e in log if e.category is not EventCategory.MOVEMENT]
        if not events or horizon_s <= 0.0:
            return []
        base_rate = len(events) / horizon_s
        interactions: List[EmergentInteraction] = []
        i = 0
        n = len(events)
        last_end = -1.0
        while i < n:
            start_time = events[i].time
            if start_time < last_end:
                i += 1
                continue
            window: List[SimEvent] = []
            j = i
            while j < n and events[j].time <= start_time + self.window_s:
                window.append(events[j])
                j += 1
            systems = {self.system_of(e.source) for e in window}
            rate = len(window) / self.window_s
            if (
                len(systems) >= self.min_sources
                and base_rate > 0.0
                and rate / base_rate >= self.density_threshold
            ):
                kinds = sorted({e.kind for e in window})
                interactions.append(
                    EmergentInteraction(
                        start=start_time,
                        end=window[-1].time,
                        sources=sorted(systems),
                        kinds=kinds,
                        event_count=len(window),
                        safety_relevant=bool(set(kinds) & self.SAFETY_KINDS),
                        density_ratio=rate / base_rate,
                    )
                )
                last_end = start_time + self.window_s
                i = j
            else:
                i += 1
        return interactions

    def safety_relevant(
        self, log: EventLog, horizon_s: float
    ) -> List[EmergentInteraction]:
        return [x for x in self.detect(log, horizon_s) if x.safety_relevant]
