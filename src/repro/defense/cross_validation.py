"""Collaborative position cross-validation: the drone checks the GNSS.

The paper's key question — "how drones can complement safety-critical
functions implemented on the autonomous forwarder" — applies to security
too: the drone's camera sees where the forwarder *actually is*, giving an
independent position reference that a GNSS spoofer cannot move.  Sustained
divergence between the forwarder's GNSS fix and the drone's visual estimate
flags spoofing that power- and innovation-checks alone can miss (a
power-stealthy slow drag).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.defense.ids.base import IntrusionDetector
from repro.sensors.gnss import GnssReceiver
from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams


class CollaborativePositionCheck(IntrusionDetector):
    """Cross-validate the forwarder's GNSS fix against drone observation.

    Parameters
    ----------
    receiver:
        The forwarder's GNSS receiver.
    observer_fn:
        Returns the drone's current visual estimate of the forwarder's
        position, or None when the drone cannot see it (grounded, occluded,
        out of range).  The worksite wiring supplies camera-based estimates
        with realistic noise.
    """

    #: fix-vs-visual distance that counts as a breach, metres
    divergence_m = 10.0
    #: consecutive breaches before alerting
    persistence = 3

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        receiver: GnssReceiver,
        observer_fn: Callable[[], Optional[Vec2]],
        *,
        interval_s: float = 2.0,
    ) -> None:
        super().__init__(name, sim, log)
        self.receiver = receiver
        self.observer_fn = observer_fn
        self._breaches = 0
        self.checks = 0
        sim.every(interval_s, self._check)

    def _check(self) -> None:
        visual = self.observer_fn()
        if visual is None:
            return  # no independent reference available right now
        fix = self.receiver.fix(self.sim.now)
        if not fix.valid:
            return
        self.checks += 1
        divergence = fix.position.distance_to(visual)
        if divergence > self.divergence_m:
            self._breaches += 1
            if self._breaches >= self.persistence:
                self.raise_alert(
                    "gnss_spoofing", 0.95,
                    check="drone_cross_validation",
                    divergence_m=round(divergence, 1),
                )
                self._breaches = 0
        else:
            self._breaches = 0


#: how far the drone's camera localises the forwarder, metres
OBSERVER_RANGE_M = 90.0
#: per-axis localisation noise of the drone's estimate, metres
OBSERVER_SIGMA_M = 2.0


def drone_observer(
    drone: Entity, forwarder: Entity, streams: RngStreams
) -> Callable[[], Optional[Vec2]]:
    """A camera-based position estimator for the cross-check.

    Returns the forwarder's position with localisation noise while the
    airborne drone is within visual range; None otherwise.
    """
    rng = streams.stream(f"cross-val.{drone.name}")

    def observe() -> Optional[Vec2]:
        if not drone.alive or drone.state.altitude < 5.0:
            return None
        if drone.position.distance_to(forwarder.position) > OBSERVER_RANGE_M:
            return None
        return Vec2(
            forwarder.position.x + rng.gauss(0.0, OBSERVER_SIGMA_M),
            forwarder.position.y + rng.gauss(0.0, OBSERVER_SIGMA_M),
        )

    return observe
