"""Attacks against the ground-station command/alert plane.

Three attack classes from the paper's operator-link threat surface, each
modelling a different adversary position:

* **command forgery** — a remote adversary who derived *a* key (their own)
  but not an operator's, injecting commands that claim to be from the
  operator console.  Every injection fails signature verification at the
  vehicle, so the detectable signal is the rejection burst;
* **command replay** — an eavesdropper on the (broadcast) bus who captures
  valid signed command wires and re-publishes them verbatim.  Signatures
  verify; the per-sender replay window is the only line of defence;
* **alert suppression** — a broker-position adversary who silently drops
  the vehicles' alert topics.  Nothing malformed ever arrives, so the
  control station can only detect the *absence* of status beacons (the
  watchdog's ``gs_alert_gap``).

These kinds are deliberately not in the fault-campaign registry: they only
make sense against a scenario with the plane armed, so they are wired via
``ScenarioConfig.gs_attacks`` and :func:`build_gs_attacks`.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import Attack
from repro.groundstation.codec import GsMessage, encode
from repro.inputs import InputError
from repro.sim.engine import Simulator
from repro.sim.events import EventLog

#: attack kinds accepted by ``ScenarioConfig.gs_attacks`` ("+"-separated)
GS_ATTACK_KINDS = ("command_forgery", "command_replay", "alert_suppression")

#: shared default window (mirrors the fig1 campaign windows)
GS_ATTACK_START = 20.0
GS_ATTACK_DURATION = 40.0


class CommandForgeryAttack(Attack):
    """Inject commands claiming an operator identity, signed wrongly."""

    attack_type = "command_forgery"

    #: the vehicle the forged commands address
    target = "forwarder"
    #: the operator identity the forged commands claim
    impersonate = "control"
    interval_s = 2.0

    def __init__(self, name: str, sim: Simulator, log: EventLog, gs) -> None:
        super().__init__(name, sim, log)
        self.gs = gs
        self.injected = 0
        self._counter = 10_000  # far above the operator's real counter
        self._process = None

    def _on_start(self) -> None:
        self._process = self.sim.every(
            self.interval_s, self._inject, start_at=self.sim.now + 0.1
        )

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _inject(self) -> None:
        self._counter += 1
        self.injected += 1
        message = GsMessage.make(
            topic=f"gs/cmd/{self.target}",
            sender=self.impersonate,
            counter=self._counter,
            t=self.sim.now,
            kind="command",
            payload={"command": "safe_stop"},
        )
        # the adversary holds only their own derived key — the signature
        # can never verify under the impersonated operator's key
        wire = encode(message, self.gs.keyring.key_for("attacker"))
        self.gs.bus.publish(message.topic, wire)


class CommandReplayAttack(Attack):
    """Capture valid command wires off the bus and re-publish them."""

    attack_type = "command_replay"

    interval_s = 3.0

    def __init__(self, name: str, sim: Simulator, log: EventLog, gs) -> None:
        super().__init__(name, sim, log)
        self.gs = gs
        self.captured: List[tuple] = []
        self.replayed = 0
        self._process = None
        # passive eavesdropping starts at construction: the tap sees every
        # publish, including the attacker's own (filtered by topic below)
        gs.bus.tap(self._capture)

    def _capture(self, topic: str, wire: bytes) -> None:
        if topic.startswith("gs/cmd/") and (topic, wire) not in self.captured[-4:]:
            self.captured.append((topic, bytes(wire)))

    def _on_start(self) -> None:
        self._process = self.sim.every(
            self.interval_s, self._replay, start_at=self.sim.now + 0.1
        )

    def _on_stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _replay(self) -> None:
        if not self.captured:
            return
        topic, wire = self.captured[-1]
        self.replayed += 1
        self.gs.bus.publish(topic, wire)


class AlertSuppressionAttack(Attack):
    """Silently drop the alert topics at the broker position."""

    attack_type = "alert_suppression"

    FILTER = "gs/alert/#"

    def __init__(self, name: str, sim: Simulator, log: EventLog, gs) -> None:
        super().__init__(name, sim, log)
        self.gs = gs

    def _on_start(self) -> None:
        self.gs.bus.add_drop_filter(self.FILTER)

    def _on_stop(self) -> None:
        self.gs.bus.remove_drop_filter(self.FILTER)


def build_gs_attacks(spec: str, gs, sim: Simulator, log: EventLog) -> List[Attack]:
    """Arm the ``"+"``-separated attack kinds of ``spec`` against ``gs``.

    Windows are staggered 5 s apart so the IDS ground-truth attribution
    stays unambiguous when several kinds run in one scenario.
    """
    attacks: List[Attack] = []
    offset = 0.0
    for kind in [k for k in str(spec).split("+") if k]:
        if kind == "command_forgery":
            attack = CommandForgeryAttack("gs-forgery", sim, log, gs)
        elif kind == "command_replay":
            attack = CommandReplayAttack("gs-replay", sim, log, gs)
        elif kind == "alert_suppression":
            attack = AlertSuppressionAttack("gs-suppress", sim, log, gs)
        else:
            raise InputError(
                f"unknown groundstation attack kind {kind!r} "
                f"(expected one of {GS_ATTACK_KINDS})"
            )
        attack.schedule(GS_ATTACK_START + offset, GS_ATTACK_DURATION)
        offset += 5.0
        attacks.append(attack)
    return attacks
