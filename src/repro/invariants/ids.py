"""IDS invariants: every alert's attack-window attribution is consistent.

The tracer attributes each ``ids.alert`` to the most recently started
attack window containing it (with the scoring grace period after the
window closes).  The invariant replays the ``attack.start`` /
``attack.stop`` stream independently and checks the attribution:

* ``in_window: true`` requires a containing window, a non-negative
  ``latency_s`` equal to the distance from that window's start, and a
  ``window`` field naming its attack type;
* ``in_window: false`` (a claimed false alarm) is a violation when a
  window *was* open at that time.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.invariants.base import Invariant, Violation
from repro.telemetry.schema import DETECTION_GRACE_S

#: latency re-derivation tolerance: tracer rounds latency_s to 1e-6
LATENCY_TOL_S = 1e-5


class _Window:
    __slots__ = ("name", "attack_type", "start", "end")

    def __init__(self, name: str, attack_type: str, start: float) -> None:
        self.name = name
        self.attack_type = attack_type
        self.start = start
        self.end: Optional[float] = None


class AlertAttributionInvariant(Invariant):
    """Alerts claim in-window status exactly when a window contains them."""

    name = "ids.alert_attribution"
    subsystem = "defense.ids"

    def __init__(self) -> None:
        self._windows: List[_Window] = []

    def _containing(self, now: float) -> Optional[_Window]:
        best: Optional[_Window] = None
        for window in self._windows:
            if now < window.start:
                continue
            if window.end is not None and now > window.end + DETECTION_GRACE_S:
                continue
            if best is None or window.start > best.start:
                best = window
        return best

    def observe(self, record: dict) -> Iterator[Violation]:
        rtype = record.get("type")
        t = float(record.get("t", 0.0))
        if rtype == "attack.start":
            self._windows.append(
                _Window(record.get("attack"), record.get("attack_type"), t)
            )
            return
        if rtype == "attack.stop":
            for window in reversed(self._windows):
                if window.name == record.get("attack") and window.end is None:
                    window.end = t
                    break
            return
        if rtype != "ids.alert":
            return
        window = self._containing(t)
        if record.get("in_window"):
            if window is None:
                yield self.violation(
                    record,
                    f"alert from {record.get('detector')!r} claims "
                    f"in-window attribution but no attack window contains "
                    f"t={t}",
                    detector=record.get("detector"),
                    alert_type=record.get("alert_type"),
                )
                return
            latency = record.get("latency_s")
            expected = t - window.start
            if latency is None or abs(float(latency) - expected) > LATENCY_TOL_S:
                yield self.violation(
                    record,
                    f"alert latency {latency!r} s does not match window "
                    f"start (expected {round(expected, 6)} s from "
                    f"{window.attack_type})",
                    latency_s=latency, expected_s=round(expected, 6),
                    window=window.attack_type,
                )
            claimed = record.get("window")
            if claimed is not None and claimed != window.attack_type:
                yield self.violation(
                    record,
                    f"alert attributed to window {claimed!r} but the "
                    f"containing window is {window.attack_type!r}",
                    claimed=claimed, containing=window.attack_type,
                )
        elif window is not None:
            yield self.violation(
                record,
                f"alert from {record.get('detector')!r} marked as false "
                f"alarm while window {window.attack_type!r} (started "
                f"t={window.start}) was open",
                detector=record.get("detector"),
                window=window.attack_type,
            )
