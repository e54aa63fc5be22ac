"""Anomaly-based IDS: statistical baselining of channel features.

Samples a set of feature callables every interval, learns mean/variance with
exponentially-weighted moving statistics during a warm-up phase, and raises
an alert when the z-score of any feature exceeds the threshold for
``persistence`` consecutive samples.  Catches *novel* attacks (anything that
shifts the monitored features) at the price of false alarms under benign
variation — the trade the E-A3 ablation quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

from repro.defense.ids.base import IntrusionDetector
from repro.sim.engine import Simulator
from repro.sim.events import EventLog


@dataclass
class _FeatureState:
    mean: float = 0.0
    var: float = 1e-6
    samples: int = 0
    breaches: int = 0


class AnomalyIds(IntrusionDetector):
    """EWMA/z-score anomaly detector over named feature streams.

    Parameters
    ----------
    features:
        Mapping of feature name → zero-argument callable returning a float.
    interval_s:
        Sampling period.
    warmup_samples:
        Samples used purely for baselining before alerting starts.
    z_threshold:
        Z-score magnitude that counts as a breach.
    persistence:
        Consecutive breaches needed to raise an alert.
    """

    #: EWMA smoothing factor
    alpha = 0.05
    #: minimum seconds between two alerts on one feature
    cooldown_s = 20.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        features: Dict[str, Callable[[], float]],
        *,
        interval_s: float = 1.0,
        warmup_samples: int = 30,
        z_threshold: float = 4.0,
        persistence: int = 3,
    ) -> None:
        super().__init__(name, sim, log)
        self.features = dict(features)
        self.warmup_samples = warmup_samples
        self.z_threshold = z_threshold
        self.persistence = persistence
        self._state: Dict[str, _FeatureState] = {
            fname: _FeatureState() for fname in self.features
        }
        self._last_alert: Dict[str, float] = {}
        sim.every(interval_s, self._sample)

    def z_score(self, feature: str, value: float) -> float:
        state = self._state[feature]
        std = math.sqrt(max(state.var, 1e-9))
        return (value - state.mean) / std

    def _sample(self) -> None:
        for fname, getter in self.features.items():
            try:
                value = float(getter())
            except Exception:
                continue
            state = self._state[fname]
            state.samples += 1
            if state.samples <= self.warmup_samples:
                self._learn(state, value)
                continue
            z = self.z_score(fname, value)
            if abs(z) >= self.z_threshold:
                state.breaches += 1
                if state.breaches >= self.persistence:
                    last = self._last_alert.get(fname, -1e18)
                    if self.sim.now - last >= self.cooldown_s:
                        self._last_alert[fname] = self.sim.now
                        self.raise_alert(
                            "anomaly",
                            confidence=min(1.0, abs(z) / (2.0 * self.z_threshold)),
                            feature=fname,
                            z=round(z, 2),
                            value=value,
                        )
                    state.breaches = 0
                # during an incident, freeze learning so the attack does not
                # poison the baseline
            else:
                state.breaches = 0
                self._learn(state, value)

    def _learn(self, state: _FeatureState, value: float) -> None:
        if state.samples == 1:
            state.mean = value
            state.var = max(abs(value) * 0.1, 1e-6) ** 2
            return
        delta = value - state.mean
        state.mean += self.alpha * delta
        state.var = (1.0 - self.alpha) * (state.var + self.alpha * delta * delta)
