"""Named fault campaigns: reusable, sweep-runnable fault schedules.

Mirrors :mod:`repro.scenarios.campaigns` for attacks: each builder maps a
``(start, duration)`` window to a :class:`FaultSchedule`, so the CLI
(``--fault-campaign``), the sweep engine (``fault_campaign`` in a sweep
spec) and tests all share one catalogue.  Builders are pure — no RNG, no
scenario access — which keeps the resulting :class:`RunSpec` primitives
stable cache keys.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.faults.spec import FaultSchedule, FaultSpec
from repro.inputs import InputError


def _crash_brownout(start: float, duration: float) -> FaultSchedule:
    """Drone compute crash overlapping a forwarder radio brownout.

    The acceptance scenario: with the drone crashed mid-mission the
    forwarder must reach SAFE_STOP within the ``detection_relay`` RTO, and
    the brownout stresses the hardened retry path at the same time.
    """
    return FaultSchedule(faults=(
        FaultSpec.make("node_crash", "drone", start, duration),
        FaultSpec.make(
            "radio_brownout", "forwarder", start + 5.0, duration,
            {"sag_db": 14.0},
        ),
    ))


def _sensor_storm(start: float, duration: float) -> FaultSchedule:
    """Staggered perception faults: freeze, dropout and bias at once."""
    third = duration / 3.0
    return FaultSchedule(faults=(
        FaultSpec.make("sensor_freeze", "cam-forwarder", start, duration),
        FaultSpec.make(
            "sensor_dropout", "us-forwarder", start + third, duration
        ),
        FaultSpec.make(
            "sensor_bias", "gnss-forwarder", start + 2.0 * third, duration,
            {"bias_east_m": 8.0, "bias_north_m": 3.0},
        ),
    ))


def _comms_chaos(start: float, duration: float) -> FaultSchedule:
    """Channel-level mayhem: corruption bursts, brownout and clock drift."""
    return FaultSchedule(faults=(
        FaultSpec.make(
            "packet_corruption", "medium", start, duration,
            {"probability": 0.25},
        ),
        FaultSpec.make(
            "radio_brownout", "drone", start + 2.0, duration,
            {"sag_db": 10.0},
        ),
        FaultSpec.make(
            "clock_drift", "forwarder", start, duration,
            {"offset_s": 0.5, "rate": 0.002},
        ),
    ))


FAULT_CAMPAIGNS: Dict[str, Callable[[float, float], FaultSchedule]] = {
    "crash_brownout": _crash_brownout,
    "sensor_storm": _sensor_storm,
    "comms_chaos": _comms_chaos,
}


def build_fault_campaign(
    name: str, *, start: float = 20.0, duration: float = 30.0
) -> FaultSchedule:
    """Build a named campaign's schedule for the given activation window."""
    try:
        builder = FAULT_CAMPAIGNS[name]
    except KeyError:
        raise InputError(
            f"unknown fault campaign {name!r}; "
            f"known: {', '.join(sorted(FAULT_CAMPAIGNS))}"
        ) from None
    return builder(float(start), float(duration))
