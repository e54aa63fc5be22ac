"""Operators, vehicle agents and the auditing control station.

Verification is end-to-end and per-receiver: the bus is untrusted, so the
vehicle *and* the control station each check the signature against the
claimed sender's key and run their own per-sender
:class:`~repro.comms.crypto.replay.ReplayWindow`, the window the
SecureChannel record layer runs.
Accepted commands execute through a dedicated per-vehicle
:class:`~repro.faults.modes.ModeMachine` (namespaced ``gs-<vehicle>`` so
it never collides with the fault injector's machines), and everything the
control station observes — accepted or rejected — lands in the hash-chained
:class:`~repro.groundstation.audit.AuditLog`.

Alert suppression is detected by absence: a watchdog at the control
station tracks each vehicle's last verified status beacon and raises a
``gs_alert_gap`` event when the stream goes quiet, which the signature IDS
maps to the ``alert_suppression`` attack class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.comms.crypto.replay import ReplayWindow
from repro.comms.protocols import phase_offset
from repro.defense.recovery import ContinuityManager, RecoveryPlan
from repro.faults.modes import ModeMachine
from repro.groundstation.audit import AuditLog
from repro.groundstation.bus import GsBus
from repro.groundstation.codec import (
    COMMANDS,
    GsCodecError,
    GsMessage,
    decode,
    decode_unverified,
    encode,
)
from repro.groundstation.keys import GsKeyring
from repro.sim.events import EventCategory, EventLog
from repro.telemetry import tracer as trace

#: vehicle status beacon period (the alert stream the watchdog expects)
STATUS_INTERVAL_S = 5.0

#: silence on a vehicle's status topic longer than this raises an alert gap
GAP_TIMEOUT_S = 12.0

#: speed cap applied while an operator hold (pause) is in force, m/s
PAUSE_SPEED_LIMIT = 0.5

#: the scripted operator session driven in every groundstation-enabled run
DEFAULT_SCRIPT: Tuple[Tuple[float, str, str], ...] = (
    (30.0, "forwarder", "pause"),
    (45.0, "forwarder", "start"),
    (60.0, "forwarder", "safe_stop"),
    (75.0, "forwarder", "rejoin"),
)


class Operator:
    """One keyed operator console issuing signed commands."""

    def __init__(self, name: str, keyring: GsKeyring, bus: GsBus, sim) -> None:
        self.name = name
        self.keyring = keyring
        self.bus = bus
        self.sim = sim
        self.counter = -1
        self.issued = 0
        self._key = keyring.register(name, "operator")

    def issue(self, vehicle: str, command: str, **params) -> bytes:
        """Sign and publish one command; returns the wire for the audit."""
        self.counter += 1
        self.issued += 1
        message = GsMessage.make(
            topic=f"gs/cmd/{vehicle}",
            sender=self.name,
            counter=self.counter,
            t=self.sim.now,
            kind="command",
            payload={"command": command, **params},
        )
        wire = encode(message, self._key)
        self.bus.publish(message.topic, wire)
        return wire


class VehicleAgent:
    """One vehicle endpoint: verify commands, execute, publish alerts.

    ``forwarder`` is the executing platform; when ``None`` (the drone) the
    agent only publishes status beacons and detection alerts, and rejects
    commands as unsupported.
    """

    def __init__(
        self,
        name: str,
        sim,
        log: EventLog,
        keyring: GsKeyring,
        bus: GsBus,
        forwarder=None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.log = log
        self.keyring = keyring
        self.bus = bus
        self.forwarder = forwarder
        self.counter = -1
        self.verdicts: Dict[str, int] = {}
        self._replay: Dict[str, ReplayWindow] = {}
        self._key = keyring.register(name, "vehicle")
        self.machine = None
        if forwarder is not None:
            continuity = ContinuityManager(
                RecoveryPlan.worksite_default(), sim, log, scope=f"gs-{name}"
            )
            self.machine = ModeMachine(
                f"gs-{name}", sim, log, continuity,
                on_degraded=lambda: forwarder.set_speed_limit(PAUSE_SPEED_LIMIT),
                on_safe_stop=lambda: forwarder.safe_stop("gs_command"),
                on_recovering=lambda: forwarder.clear_safe_stop("gs_command"),
                on_nominal=lambda: forwarder.set_speed_limit(None),
            )
        bus.subscribe(f"gs/cmd/{name}", self._on_command)
        offset = phase_offset(f"gs-status:{name}", STATUS_INTERVAL_S)
        sim.every(
            STATUS_INTERVAL_S, self._publish_status, start_at=sim.now + offset
        )
        # forward this vehicle's own detections as signed alerts
        log.subscribe(self._on_detection, EventCategory.DETECTION)

    # -- alert publishing ----------------------------------------------------
    def publish_alert(self, kind: str, **payload) -> None:
        self.counter += 1
        message = GsMessage.make(
            topic=f"gs/alert/{self.name}",
            sender=self.name,
            counter=self.counter,
            t=self.sim.now,
            kind=kind,
            payload=payload,
        )
        self.bus.publish(message.topic, encode(message, self._key))
        if trace.ACTIVE:
            trace.TRACER.gs_alert(node=self.name, kind=kind, counter=self.counter)

    def _publish_status(self) -> None:
        mode = self.machine.mode.value if self.machine is not None else "nominal"
        self.publish_alert("status", mode=mode)

    def _on_detection(self, event) -> None:
        if event.source == self.name:
            self.publish_alert("detection", what=event.kind)

    # -- command verification ------------------------------------------------
    def _verdict(
        self, verdict: str, sender: str, command: str, counter: int
    ) -> None:
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        executed = verdict == "executed"
        if verdict == "replay":
            kind = "gs_replay_rejected"
        elif executed:
            kind = "gs_command_executed"
        else:
            kind = "gs_command_rejected"
        self.log.emit(
            self.sim.now, EventCategory.SECURITY, kind, self.name,
            sender=sender, command=command, verdict=verdict,
        )
        if trace.ACTIVE:
            trace.TRACER.gs_command(
                vehicle=self.name, sender=sender, command=command,
                counter=counter, verdict=verdict,
            )

    def _on_command(self, topic: str, wire: bytes) -> None:
        try:
            claimed = decode_unverified(wire)
        except GsCodecError:
            self._verdict("malformed", "unknown", "unknown", -1)
            return
        sender, counter = claimed.sender, claimed.counter
        command = str(claimed.payload_dict().get("command", "unknown"))
        try:
            message = decode(wire, self.keyring.key_for(sender))
        except GsCodecError:
            self._verdict("bad_signature", sender, command, counter)
            return
        window = self._replay.setdefault(sender, ReplayWindow())
        if window.verdict(counter) is not None:
            self._verdict("replay", sender, command, counter)
            return
        window.accept(counter)
        if not self.keyring.is_operator(sender):
            self._verdict("unauthorized", sender, command, counter)
            return
        if (
            message.kind != "command"
            or command not in COMMANDS
            or self.machine is None
        ):
            self._verdict("unsupported", sender, command, counter)
            return
        self._execute(command)
        self._verdict("executed", sender, command, counter)

    def _execute(self, command: str) -> None:
        # operator commands ride the same degraded-mode machine as fault
        # reactions: pause degrades under a speed cap (with the machine's
        # RTO escalation as the dead-man backstop), safe_stop is immediate
        if command == "pause":
            self.machine.service_down("operator_hold", cause="pause")
        elif command == "start":
            self.machine.service_up("operator_hold")
        elif command == "safe_stop":
            self.machine.service_down(
                "operator_stop", cause="commanded", fallback="safe_stop"
            )
        elif command == "rejoin":
            self.machine.service_up("operator_stop")

    def summary(self) -> dict:
        return {
            "verdicts": dict(sorted(self.verdicts.items())),
            "alerts_published": self.counter + 1,
            "mode": self.machine.mode.value if self.machine else None,
        }


class ControlStation:
    """The auditing endpoint: verify everything on ``gs/#``, chain it, and
    watch for alert-stream gaps."""

    def __init__(
        self,
        name: str,
        sim,
        log: EventLog,
        keyring: GsKeyring,
        bus: GsBus,
        audit: AuditLog,
        vehicles: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.sim = sim
        self.log = log
        self.keyring = keyring
        self.bus = bus
        self.audit = audit
        self.verdicts: Dict[str, int] = {}
        self._replay: Dict[str, ReplayWindow] = {}
        #: vehicle -> time of its last verified status beacon
        self._last_status: Dict[str, float] = {v: sim.now for v in vehicles}
        self._gap_flagged: Set[str] = set()
        bus.subscribe("gs/#", self._on_message)
        offset = phase_offset("gs-watchdog", 1.0)
        sim.every(1.0, self._check_gaps, start_at=sim.now + offset)

    def _on_message(self, topic: str, wire: bytes) -> None:
        sender, counter, kind = "unknown", 0, "unknown"
        try:
            claimed = decode_unverified(wire)
        except GsCodecError:
            verdict = "malformed"
        else:
            sender, counter, kind = claimed.sender, claimed.counter, claimed.kind
            try:
                decode(wire, self.keyring.key_for(sender))
            except GsCodecError:
                verdict = "bad_signature"
            else:
                window = self._replay.setdefault(sender, ReplayWindow())
                if window.verdict(counter) is not None:
                    verdict = "replay"
                else:
                    window.accept(counter)
                    unauthorized = topic.startswith("gs/cmd/") and \
                        not self.keyring.is_operator(sender)
                    verdict = "unauthorized" if unauthorized else "ok"
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        if verdict == "ok" and kind == "status" and sender in self._last_status:
            self._last_status[sender] = self.sim.now
            self._gap_flagged.discard(sender)
        self.audit.append(
            self.sim.now, topic, sender, counter, kind, verdict, wire
        )

    def _check_gaps(self) -> None:
        now = self.sim.now
        for vehicle, last in self._last_status.items():
            if vehicle in self._gap_flagged:
                continue
            if now - last > GAP_TIMEOUT_S:
                self._gap_flagged.add(vehicle)
                self.log.emit(
                    now, EventCategory.SECURITY, "gs_alert_gap", self.name,
                    vehicle=vehicle, silent_s=round(now - last, 6),
                )

    def summary(self) -> dict:
        return {
            "verdicts": dict(sorted(self.verdicts.items())),
            "alert_gaps": len(self._gap_flagged),
        }


class GroundStation:
    """Facade wiring the whole plane into one scenario.

    Everything — keys, genesis, message bytes — derives from the run seed,
    so same-seed runs produce byte-identical audit chains.
    """

    script = DEFAULT_SCRIPT

    def __init__(
        self,
        sim,
        log: EventLog,
        seed: int,
        forwarder=None,
        drone=None,
        audit_path: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.log = log
        self.seed = int(seed)
        self.keyring = GsKeyring(self.seed)
        self.bus = GsBus(sim)
        self.audit = AuditLog(self.seed, path=audit_path)
        self.vehicles: List[VehicleAgent] = []
        names: List[str] = []
        if forwarder is not None:
            self.vehicles.append(
                VehicleAgent("forwarder", sim, log, self.keyring, self.bus,
                             forwarder=forwarder)
            )
            names.append("forwarder")
        if drone is not None:
            self.vehicles.append(
                VehicleAgent("drone", sim, log, self.keyring, self.bus)
            )
            names.append("drone")
        self.station = ControlStation(
            "station", sim, log, self.keyring, self.bus, self.audit,
            vehicles=names,
        )
        self.operator = Operator("control", self.keyring, self.bus, sim)
        for at, vehicle, command in self.script:
            if at >= sim.now:
                sim.schedule_at(
                    at, lambda v=vehicle, c=command: self.operator.issue(v, c)
                )

    def vehicle(self, name: str) -> Optional[VehicleAgent]:
        for agent in self.vehicles:
            if agent.name == name:
                return agent
        return None

    def finalize(self) -> None:
        """Close the audit chain (idempotent; call once the run ends)."""
        self.audit.close(self.sim.now)

    def summary(self) -> dict:
        return {
            "operator_commands": self.operator.issued,
            "vehicles": {v.name: v.summary() for v in self.vehicles},
            "station": self.station.summary(),
            "bus": self.bus.summary(),
            "audit": self.audit.summary(),
        }
