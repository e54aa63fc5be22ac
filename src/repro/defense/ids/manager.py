"""Alert correlation and IDS scoring.

The manager aggregates alerts from all detectors, deduplicates bursts, and —
given ground-truth attack windows from a campaign — scores each detector and
the ensemble: detection latency per attack, coverage (fraction of attacks
with at least one in-window alert) and false-alarm rate (alerts outside any
window, per hour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.defense.ids.base import Alert, IntrusionDetector
from repro.telemetry.schema import DETECTION_GRACE_S


@dataclass
class DetectionScore:
    """Scoring of IDS output against ground truth."""

    attacks_total: int
    attacks_detected: int
    mean_latency_s: Optional[float]
    false_alarms: int
    false_alarm_rate_per_h: float
    latencies: Dict[str, float] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        if self.attacks_total == 0:
            return 1.0
        return self.attacks_detected / self.attacks_total


class IdsManager:
    """Aggregates detectors, dedups alerts, scores against ground truth."""

    DEDUP_WINDOW_S = 5.0

    def __init__(self) -> None:
        self.detectors: List[IntrusionDetector] = []
        self.alerts: List[Alert] = []
        self._last_by_key: Dict[Tuple[str, str], float] = {}
        self.suppressed = 0

    def attach(self, detector: IntrusionDetector) -> None:
        self.detectors.append(detector)
        detector.add_sink(self._ingest)

    def _ingest(self, alert: Alert) -> None:
        key = (alert.detector, alert.alert_type)
        last = self._last_by_key.get(key)
        if last is not None and alert.time - last < self.DEDUP_WINDOW_S:
            self.suppressed += 1
            return
        self._last_by_key[key] = alert.time
        self.alerts.append(alert)

    def alerts_of_type(self, alert_type: str) -> List[Alert]:
        return [a for a in self.alerts if a.alert_type == alert_type]

    def summary(self) -> Dict[str, int]:
        """Alert accounting (consumed by scenario metrics collection)."""
        return {
            "detectors": len(self.detectors),
            "alerts": len(self.alerts),
            "suppressed": self.suppressed,
        }

    def score(
        self,
        ground_truth: Sequence[Tuple[str, float, float]],
        *,
        horizon_s: float,
        match_type: bool = False,
    ) -> DetectionScore:
        """Score accumulated alerts against ``(attack_type, start, end)`` windows.

        Parameters
        ----------
        ground_truth:
            Attack windows (from ``AttackCampaign.ground_truth_windows``).
        horizon_s:
            Total observed duration (for the false-alarm rate).
        match_type:
            If True an alert only counts for a window when its
            ``alert_type`` equals the attack type (strict attribution);
            otherwise any alert inside the window counts (detection of
            *something wrong*, the operationally relevant notion).
        """
        latencies: Dict[str, float] = {}
        detected = 0
        matched_alerts = set()
        for attack_type, start, end in ground_truth:
            best: Optional[float] = None
            until = min(end + DETECTION_GRACE_S, horizon_s)
            for idx, alert in enumerate(self.alerts):
                if not start <= alert.time <= until:
                    continue
                if match_type and alert.alert_type != attack_type:
                    continue
                matched_alerts.add(idx)
                latency = alert.time - start
                if best is None or latency < best:
                    best = latency
            if best is not None:
                detected += 1
                key = f"{attack_type}@{start:.0f}"
                latencies[key] = best
        in_any_window = set()
        for idx, alert in enumerate(self.alerts):
            for _, start, end in ground_truth:
                if start <= alert.time <= end + DETECTION_GRACE_S:
                    in_any_window.add(idx)
                    break
        false_alarms = len(self.alerts) - len(in_any_window)
        hours = max(horizon_s / 3600.0, 1e-9)
        mean_latency = (
            sum(latencies.values()) / len(latencies) if latencies else None
        )
        return DetectionScore(
            attacks_total=len(ground_truth),
            attacks_detected=detected,
            mean_latency_s=mean_latency,
            false_alarms=false_alarms,
            false_alarm_rate_per_h=false_alarms / hours,
            latencies=latencies,
        )
