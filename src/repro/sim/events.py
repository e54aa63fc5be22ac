"""Typed event records and the worksite event log.

Every noteworthy occurrence in a run — detections, safety stops, attacks,
IDS alerts, message drops — is appended to a single :class:`EventLog` with a
timestamp, a category and structured data.  The log is the raw material for
the safety monitor, the emergence detector (:mod:`repro.sos.emergence`), the
continuous risk assessment and the experiment harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


class EventCategory(enum.Enum):
    """Top-level classification of simulation events."""

    MOVEMENT = "movement"
    MISSION = "mission"
    DETECTION = "detection"
    SAFETY = "safety"
    COMMS = "comms"
    SECURITY = "security"
    ATTACK = "attack"
    DEFENSE = "defense"
    WEATHER = "weather"
    SYSTEM = "system"


@dataclass(frozen=True, slots=True)
class SimEvent:
    """A single event record.

    Attributes
    ----------
    time:
        Simulated time of the event.
    category:
        Coarse classification used by monitors and filters.
    kind:
        Fine event type (e.g. ``"person_detected"``, ``"safe_stop"``).
    source:
        Identifier of the emitting entity/component.
    data:
        Structured payload; keys are event-kind specific.
    """

    time: float
    category: EventCategory
    kind: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only event log with category subscriptions and queries."""

    def __init__(self) -> None:
        self._events: List[SimEvent] = []
        self._subscribers: Dict[
            Optional[EventCategory], List[Callable[[SimEvent], None]]
        ] = {}

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def emit(
        self,
        time: float,
        category: EventCategory,
        kind: str,
        source: str,
        **data: Any,
    ) -> SimEvent:
        """Record an event and notify subscribers."""
        event = SimEvent(time=time, category=category, kind=kind, source=source, data=data)
        self._events.append(event)
        for listener in self._subscribers.get(category, ()):
            listener(event)
        for listener in self._subscribers.get(None, ()):
            listener(event)
        return event

    def subscribe(
        self,
        listener: Callable[[SimEvent], None],
        category: Optional[EventCategory] = None,
    ) -> None:
        """Call ``listener`` for every event of ``category`` (None = all)."""
        self._subscribers.setdefault(category, []).append(listener)

    def of_category(self, category: EventCategory) -> List[SimEvent]:
        return [e for e in self._events if e.category is category]

    def of_kind(self, kind: str) -> List[SimEvent]:
        return [e for e in self._events if e.kind == kind]

    def between(self, start: float, end: float) -> List[SimEvent]:
        return [e for e in self._events if start <= e.time <= end]

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def last(self, kind: str) -> Optional[SimEvent]:
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None
