"""Degraded-mode vehicle state machines.

Each machine runs NOMINAL → DEGRADED → SAFE_STOP → RECOVERING → NOMINAL,
driven by *service condition* reports (heartbeat loss, sensor-health
votes, link death from dead-peer detection).  Outage accounting and
fallback selection go through the existing
:class:`~repro.defense.recovery.ContinuityManager`, so the RecoveryPlan's
RTO objectives finally run in-sim:

* a service whose declared fallback is ``safe_stop`` drops the vehicle
  straight to SAFE_STOP;
* any other outage degrades the vehicle and starts an RTO deadline —
  if the service is still down when its RTO expires, the machine
  escalates to SAFE_STOP (the certification-relevant "fail safe within
  the declared objective" behaviour);
* when the last outage clears, the machine enters RECOVERING, runs the
  recovery hook (SecureChannel re-handshake / rejoin), and returns to
  NOMINAL after ``recovery_time_s``.

The machines only exist when a non-empty fault schedule is armed, so the
baseline simulation is untouched.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.defense.recovery import ContinuityManager
from repro.sim.engine import Event, Simulator
from repro.sim.events import EventCategory, EventLog
from repro.telemetry import tracer as trace


class VehicleMode(enum.Enum):
    """Operating mode of a worksite vehicle under the resilience machine."""

    NOMINAL = "nominal"
    DEGRADED = "degraded"
    SAFE_STOP = "safe_stop"
    RECOVERING = "recovering"


class ModeMachine:
    """One vehicle's degraded-mode state machine.

    Parameters
    ----------
    machine:
        Vehicle name (``"forwarder"``, ``"drone"``).
    continuity:
        Shared outage accountant; its :class:`RecoveryPlan` supplies the
        per-service RTOs and fallback modes.
    recovery_time_s:
        Dwell time in RECOVERING before declaring NOMINAL.
    default_rto_s:
        Escalation deadline for services the plan has no objective for.
    on_degraded / on_safe_stop / on_recovering / on_nominal:
        Vehicle-specific actions invoked on entering each mode (reduce
        speed, halt, rejoin the network, resume).
    """

    def __init__(
        self,
        machine: str,
        sim: Simulator,
        log: EventLog,
        continuity: ContinuityManager,
        *,
        recovery_time_s: float = 5.0,
        default_rto_s: float = 30.0,
        on_degraded: Optional[Callable[[], None]] = None,
        on_safe_stop: Optional[Callable[[], None]] = None,
        on_recovering: Optional[Callable[[], None]] = None,
        on_nominal: Optional[Callable[[], None]] = None,
    ) -> None:
        self.machine = machine
        self.sim = sim
        self.log = log
        self.continuity = continuity
        self.recovery_time_s = recovery_time_s
        self.default_rto_s = default_rto_s
        self.mode = VehicleMode.NOMINAL
        self._handlers: Dict[VehicleMode, Optional[Callable[[], None]]] = {
            VehicleMode.DEGRADED: on_degraded,
            VehicleMode.SAFE_STOP: on_safe_stop,
            VehicleMode.RECOVERING: on_recovering,
            VehicleMode.NOMINAL: on_nominal,
        }
        #: open outages: service -> outage start time
        self._down: Dict[str, float] = {}
        self._deadlines: Dict[str, Event] = {}
        self._recovery_event: Optional[Event] = None
        #: (time, prev, mode, reason) history for resilience evidence
        self.transitions: List[Tuple[float, str, str, str]] = []
        #: condition-onset → SAFE_STOP latencies, seconds
        self.safe_stop_latencies: List[float] = []

    # -- condition reports ---------------------------------------------------
    def service_down(
        self,
        service: str,
        cause: str = "unknown",
        fallback: Optional[str] = None,
    ) -> None:
        """Report a service outage affecting this vehicle.  Idempotent.

        ``fallback`` overrides the plan-declared fallback mode — used for
        conditions the plan has no objective for but whose safe reaction is
        known (a compute crash is an immediate safe stop).
        """
        if service in self._down:
            return
        self._down[service] = self.sim.now
        declared = self.continuity.service_down(service, cause=cause)
        fallback = fallback if fallback is not None else declared
        if self._recovery_event is not None:
            self._recovery_event.cancel()
            self._recovery_event = None
        reason = f"{service}:{cause}"
        if fallback == "safe_stop":
            self._to(VehicleMode.SAFE_STOP, reason)
            return
        if self.mode is not VehicleMode.SAFE_STOP:
            self._to(VehicleMode.DEGRADED, reason)
        objective = self.continuity.plan.objective(service)
        rto_s = objective.rto_s if objective is not None else self.default_rto_s
        self._deadlines[service] = self.sim.schedule(
            rto_s, lambda s=service: self._escalate(s)
        )

    def service_up(self, service: str) -> None:
        """Report a service restoration.  Idempotent."""
        started = self._down.pop(service, None)
        if started is None:
            return
        deadline = self._deadlines.pop(service, None)
        if deadline is not None:
            deadline.cancel()
        self.continuity.service_up(service)
        if self._down:
            return
        self._to(VehicleMode.RECOVERING, f"{service}:restored")
        self._recovery_event = self.sim.schedule(
            self.recovery_time_s, self._finish_recovery
        )

    # -- internals -----------------------------------------------------------
    def _escalate(self, service: str) -> None:
        if service in self._down and self.mode is not VehicleMode.SAFE_STOP:
            self._to(VehicleMode.SAFE_STOP, f"{service}:rto_exceeded")

    def _finish_recovery(self) -> None:
        self._recovery_event = None
        if not self._down and self.mode is VehicleMode.RECOVERING:
            self._to(VehicleMode.NOMINAL, "recovered")

    def _to(self, mode: VehicleMode, reason: str) -> None:
        if mode is self.mode:
            return
        prev = self.mode
        self.mode = mode
        now = self.sim.now
        extra = {"reason": reason}
        if mode is VehicleMode.SAFE_STOP and self._down:
            latency = now - min(self._down.values())
            self.safe_stop_latencies.append(latency)
            extra["latency_s"] = round(latency, 6)
        self.transitions.append((now, prev.value, mode.value, reason))
        self.log.emit(
            now, EventCategory.SYSTEM, "mode_transition", self.machine,
            mode=mode.value, prev=prev.value, reason=reason,
        )
        if trace.ACTIVE:
            trace.TRACER.mode_transition(
                self.machine, mode.value, prev.value, **extra
            )
        handler = self._handlers.get(mode)
        if handler is not None:
            handler()

    # -- evidence ------------------------------------------------------------
    @property
    def down_services(self) -> List[str]:
        return sorted(self._down)

    def summary(self) -> dict:
        return {
            "mode": self.mode.value,
            "transitions": len(self.transitions),
            "down_services": self.down_services,
            "safe_stop_latencies_s": [
                round(v, 6) for v in self.safe_stop_latencies
            ],
        }


class SensorHealthVoter:
    """Periodic sensor-health quorum vote feeding a mode machine.

    Each tick counts the healthy sensors; falling below ``quorum`` reports
    ``service`` down on the machine (degrading the vehicle), reaching it
    again reports the service up.  Only instantiated in fault mode.
    """

    def __init__(
        self,
        sim: Simulator,
        checks: Sequence[Tuple[str, Callable[[], bool]]],
        machine: ModeMachine,
        *,
        service: str = "perception",
        interval_s: float = 1.0,
    ) -> None:
        from repro.comms.protocols import phase_offset

        self.sim = sim
        self.checks = list(checks)
        self.machine = machine
        self.service = service
        self.quorum = len(self.checks) // 2 + 1
        offset = phase_offset(
            f"sensor-voter:{machine.machine}:{service}", interval_s
        )
        self._process = sim.every(
            interval_s, self._vote, start_at=sim.now + offset
        )

    def _vote(self) -> None:
        healthy = sum(1 for _, check in self.checks if check())
        if healthy < self.quorum:
            self.machine.service_down(self.service, cause="sensor_vote")
        else:
            self.machine.service_up(self.service)

    def stop(self) -> None:
        self._process.stop()
