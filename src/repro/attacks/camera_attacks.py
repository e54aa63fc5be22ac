"""Camera attacks: blinding and feed hijacking.

Petit et al. (cited in Section IV-C) demonstrated remote attacks on
automated-vehicle cameras; Gaber et al. list "camera attacks to steal video
footage from AHS vehicles or to control the vehicles' cameras remotely".

* :class:`CameraBlindingAttack` — periodic light-source blinding while the
  attacker has line of sight; a blinded camera yields no detections.
* :class:`CameraHijackAttack` — compromise of the camera feed: the attacker
  consumes/controls the stream, so detections silently stop reaching the
  safety function (the insidious case: no sensor fault is raised).
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack
from repro.sensors.camera import Camera
from repro.sim.engine import Process, Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2


class CameraBlindingAttack(Attack):
    """Blind a camera with a directed light source.

    Parameters
    ----------
    camera:
        The victim camera.
    position:
        Attacker position; blinding works within ``effective_range``.
    pulse_s:
        Blinding is re-applied in pulses of this length while in range.
    """

    attack_type = "camera_blinding"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        camera: Camera,
        position: Vec2,
        *,
        effective_range: float = 60.0,
        pulse_s: float = 2.0,
    ) -> None:
        super().__init__(name, sim, log)
        self.camera = camera
        self.position = position
        self.effective_range = effective_range
        self.pulse_s = pulse_s
        self._process: Optional[Process] = None

    def _on_start(self) -> None:
        self._pulse()
        self._process = self.sim.every(self.pulse_s, self._pulse)

    def _pulse(self) -> None:
        distance = self.camera.position.distance_to(self.position)
        if distance <= self.effective_range:
            self.camera.blind(self.sim.now, self.pulse_s * 1.5, attacker=self.name)

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None


class CameraHijackAttack(Attack):
    """Take over a camera feed (theft or remote control).

    While active, the people detector treats the feed as unavailable — the
    dangerous silent failure mode the redundancy defence exists for.
    """

    attack_type = "camera_hijack"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        log: EventLog,
        camera: Camera,
    ) -> None:
        super().__init__(name, sim, log)
        self.camera = camera

    def _on_start(self) -> None:
        self.camera.hijack(self.name)

    def _on_stop(self) -> None:
        if self.camera.hijacked_by == self.name:
            self.camera.release()
