"""Declarative fault specifications and schedules.

A :class:`FaultSpec` names one fault — its kind, target, activation window
and parameters — using only primitive values, mirroring
:class:`repro.runner.spec.RunSpec`: schedules pickle across process
boundaries, serialise to canonical JSON and survive the sweep cache
unchanged.  A :class:`FaultSchedule` is an ordered tuple of specs plus an
optional deterministic start jitter drawn from the master seed's RNG
streams, so the *same seed always produces the same fault timeline*.

Schedules load from TOML files (``[[fault]]`` tables, see
``examples/faults_storm.toml``) or from primitive tuples embedded in a
:class:`~repro.runner.spec.RunSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.inputs import InputError, load_table, number
from repro.sim.rng import RngStreams

#: the fault taxonomy (see docs/resilience.md for semantics per kind)
FAULT_KINDS: Tuple[str, ...] = (
    "node_crash",          # compute/radio outage of a whole node
    "radio_brownout",      # TX power sag on one endpoint
    "sensor_freeze",       # sensor repeats stale data
    "sensor_dropout",      # sensor produces nothing
    "sensor_bias",         # systematic output offset / quality loss
    "clock_drift",         # node-local clock offset and drift rate
    "packet_corruption",   # in-flight frame corruption bursts
)

#: named RNG stream that activation jitter is drawn from
JITTER_STREAM = "faults.schedule"


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        What the fault hits — a node name (``"drone"``), a sensor name
        (``"cam-forwarder"``), or ``"medium"`` for channel-wide faults.
    start_s:
        Activation time on the simulation clock.
    duration_s:
        How long the fault persists; ``None`` means it never clears.
    params:
        Kind-specific knobs as a sorted tuple of ``(key, value)`` pairs
        (kept primitive and hashable for the sweep cache).
    """

    kind: str
    target: str
    start_s: float
    duration_s: Optional[float] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InputError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.start_s < math.inf:
            raise InputError(
                f"fault start must be finite and >= 0, got {self.start_s}"
            )
        if self.duration_s is not None and not 0.0 < self.duration_s < math.inf:
            raise InputError(
                f"fault duration must be finite and positive, "
                f"got {self.duration_s}"
            )

    @property
    def end_s(self) -> Optional[float]:
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    def param(self, name: str, default: object = None) -> object:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def param_dict(self) -> Dict[str, object]:
        return {k: v for k, v in self.params}

    @classmethod
    def make(
        cls,
        kind: str,
        target: str,
        start_s: float,
        duration_s: Optional[float] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> "FaultSpec":
        return cls(
            kind=str(kind),
            target=str(target),
            start_s=number(start_s, "fault start"),
            duration_s=(None if duration_s is None
                        else number(duration_s, "fault duration")),
            params=_freeze_params(params),
        )

    def to_primitives(self) -> tuple:
        """``(kind, target, start, duration, params)`` for RunSpec embedding."""
        return (
            self.kind, self.target, self.start_s, self.duration_s,
            tuple((k, v) for k, v in self.params),
        )

    @classmethod
    def from_primitives(cls, data: Sequence) -> "FaultSpec":
        kind, target, start, duration, params = data
        return cls.make(kind, target, start, duration, dict(params))


def _freeze_params(params: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((str(k), v) for k, v in dict(params or {}).items()))


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults with optional deterministic start jitter.

    ``jitter_s`` > 0 offsets every fault's start by a uniform draw from the
    RNG stream :data:`JITTER_STREAM` — one draw per fault, in schedule
    order, so the realised timeline is a pure function of the master seed.
    :meth:`resolve` makes those draws once, when a run spec is built; the
    :class:`~repro.faults.injector.FaultInjector` arms only the realised
    timeline (``jitter_s == 0``).  A schedule with ``jitter_s == 0`` makes
    no draws at all.
    """

    faults: Tuple[FaultSpec, ...] = ()
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter_s < math.inf:
            raise InputError(
                f"fault jitter_s must be finite and >= 0, got {self.jitter_s}"
            )

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def resolve(self, streams: RngStreams) -> Tuple[FaultSpec, ...]:
        """The realised fault list, jitter applied from the scenario RNG."""
        if self.jitter_s <= 0.0 or not self.faults:
            return self.faults
        rng = streams.stream(JITTER_STREAM)
        return tuple(
            replace(fault, start_s=fault.start_s + rng.uniform(0.0, self.jitter_s))
            for fault in self.faults
        )

    @property
    def last_end_s(self) -> Optional[float]:
        """Latest fault end (jitter excluded); None if any fault is open-ended."""
        latest = 0.0
        for fault in self.faults:
            if fault.end_s is None:
                return None
            latest = max(latest, fault.end_s)
        return latest



def schedule_from_mapping(data: Mapping) -> FaultSchedule:
    """Build a schedule from a parsed TOML/JSON mapping."""
    known = {"fault", "jitter_s"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InputError(
            f"unknown fault schedule keys {unknown}; known: {sorted(known)}"
        )
    faults = []
    for entry in data.get("fault", ()):
        entry = dict(entry)
        entry_known = {"kind", "target", "start", "duration", "params"}
        entry_unknown = sorted(set(entry) - entry_known)
        if entry_unknown:
            raise InputError(
                f"unknown [[fault]] keys {entry_unknown}; "
                f"known: {sorted(entry_known)}"
            )
        faults.append(FaultSpec.make(
            entry["kind"],
            entry["target"],
            entry.get("start", 0.0),
            entry.get("duration"),
            entry.get("params"),
        ))
    return FaultSchedule(
        faults=tuple(faults),
        jitter_s=number(data.get("jitter_s", 0.0), "jitter_s"),
    )


def load_fault_schedule(path: str) -> FaultSchedule:
    """Load a fault schedule from a TOML (or JSON) file."""
    return load_table(path, schedule_from_mapping)
