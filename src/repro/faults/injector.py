"""The fault injector: arms a :class:`FaultSchedule` against a scenario.

Faults are applied through *typed hooks* on the subsystems — endpoint
power (:meth:`LinkEndpoint.power_off`), medium power sag and corruption
(:meth:`WirelessMedium.set_power_sag` / :meth:`set_corruption`), sensor
fault state (:meth:`Sensor.inject_freeze` and friends), kernel clock
domains (:meth:`Simulator.set_clock_drift`) — never by monkey-patching.

Arming a non-empty schedule also builds the resilience stack the faults
exercise: per-vehicle :class:`~repro.faults.modes.ModeMachine` wired
through :class:`~repro.defense.recovery.ContinuityManager`, hardened
link-layer retry policies with deterministic backoff jitter, dead-peer
detection, and drone↔forwarder heartbeats.  Arming an **empty** schedule
does none of that: no RNG draws, no scheduled events, no policies — the
non-perturbation guarantee the golden-trace regression test pins down.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.comms.link import RetryPolicy
from repro.defense.recovery import ContinuityManager, RecoveryPlan
from repro.faults.modes import ModeMachine, SensorHealthVoter, VehicleMode
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.inputs import InputError
from repro.sim.events import EventCategory
from repro.sim.geometry import Vec2
from repro.telemetry import tracer as trace

#: reason string used for safe stops commanded by the mode machines
STOP_REASON = "mode_machine"

#: fault kinds whose target names a sensor; arming checks the name
_SENSOR_KINDS = ("sensor_freeze", "sensor_dropout", "sensor_bias")

#: the worksite's radio node names.  A disabled drone keeps its name, so a
#: drone fault in a run without one arms and stays a recorded no-op.
NODE_NAMES = ("control", "drone", "forwarder")

#: fault kinds whose target names a node; arming checks the name
_NODE_KINDS = ("node_crash", "radio_brownout", "clock_drift")


class FaultInjector:
    """Injects one :class:`FaultSchedule` into a composed worksite scenario.

    Parameters
    ----------
    scenario:
        A :class:`~repro.scenarios.worksite.WorksiteScenario`.
    schedule:
        The declarative fault schedule; an empty schedule arms to nothing.
    """

    def __init__(self, scenario, schedule: FaultSchedule) -> None:
        self.scenario = scenario
        self.schedule = schedule
        self.armed = False
        self.faults_injected = 0
        self.faults_cleared = 0
        self.active_faults: List[FaultSpec] = []
        self.machines: Dict[str, ModeMachine] = {}
        self.continuities: Dict[str, ContinuityManager] = {}
        self._sensors: Dict[str, object] = {}
        self._corruption_rng = None

    # -- arming ---------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install the schedule's faults, as given, and the resilience
        stack.  Idempotent-ish: call once, before running the scenario.

        Raises
        ------
        ValueError
            When the schedule still carries start jitter: it is drawn once,
            when the run spec is built (:meth:`FaultSchedule.resolve`),
            never during the run.  Nothing is installed.
        InputError
            When a node fault targets a name outside :data:`NODE_NAMES`, or
            a sensor fault a sensor the scenario lacks; nothing is
            installed.
        """
        if self.armed or not self.schedule:
            return self
        if self.schedule.jitter_s != 0.0:
            raise ValueError(
                f"fault schedule has unresolved jitter_s="
                f"{self.schedule.jitter_s}; arm schedule.resolve(streams)"
            )
        self._register_sensors()
        for fault in self.schedule.faults:
            if fault.kind in _SENSOR_KINDS:
                self._sensor(fault.target)
            elif fault.kind in _NODE_KINDS and fault.target not in NODE_NAMES:
                raise InputError(
                    f"unknown node target {fault.target!r} for "
                    f"{fault.kind}; known: {list(NODE_NAMES)}"
                )
        self.armed = True
        self._build_resilience_stack()
        sim = self.scenario.sim
        for fault in self.schedule.faults:
            sim.schedule_at(
                max(sim.now, fault.start_s), lambda f=fault: self._inject(f)
            )
        return self

    # -- resilience stack -----------------------------------------------------
    def _build_resilience_stack(self) -> None:
        scenario = self.scenario
        sim, log = scenario.sim, scenario.log
        plan = RecoveryPlan.worksite_default()
        forwarder = scenario.forwarder
        drone = scenario.drone

        cm_fwd = ContinuityManager(plan, sim, log, scope="forwarder")
        self.continuities["forwarder"] = cm_fwd
        machine_fwd = ModeMachine(
            "forwarder", sim, log, cm_fwd,
            on_degraded=lambda: forwarder.set_speed_limit(1.0),
            on_safe_stop=lambda: forwarder.safe_stop(STOP_REASON),
            on_recovering=lambda: self._rejoin("forwarder"),
            on_nominal=lambda: self._forwarder_nominal(),
        )
        self.machines["forwarder"] = machine_fwd

        if drone is not None:
            cm_drone = ContinuityManager(plan, sim, log, scope="drone")
            self.continuities["drone"] = cm_drone
            machine_drone = ModeMachine(
                "drone", sim, log, cm_drone,
                on_safe_stop=lambda: drone.return_home(),
                on_recovering=lambda: self._rejoin("drone"),
                on_nominal=lambda: self._drone_nominal(),
            )
            self.machines["drone"] = machine_drone

        self._wire_heartbeats()
        self._harden_links()
        self._start_voter()

    def _forwarder_nominal(self) -> None:
        self.scenario.forwarder.clear_safe_stop(STOP_REASON)
        self.scenario.forwarder.set_speed_limit(None)

    def _drone_nominal(self) -> None:
        drone = self.scenario.drone
        if drone is not None and drone.mode.value == "grounded":
            drone.launch()

    def _wire_heartbeats(self) -> None:
        """Feed heartbeat loss into the mode machines.

        The existing forwarder↔control watchdog keeps its original
        callbacks (speed-limit fallback) and additionally reports the
        ``command_link`` service; a new drone↔forwarder pair watches the
        ``detection_relay`` / drone uplink.
        """
        from repro.comms.protocols import HeartbeatMonitor

        scenario = self.scenario
        machine_fwd = self.machines["forwarder"]
        hb = scenario.heartbeat
        prev_loss, prev_recovery = hb.on_loss, hb.on_recovery

        def on_loss() -> None:
            if prev_loss is not None:
                prev_loss()
            machine_fwd.service_down("command_link", cause="heartbeat_loss")

        def on_recovery() -> None:
            if prev_recovery is not None:
                prev_recovery()
            machine_fwd.service_up("command_link")

        hb.on_loss, hb.on_recovery = on_loss, on_recovery

        machine_drone = self.machines.get("drone")
        node_fwd = scenario.network.nodes.get("forwarder")
        node_drone = scenario.network.nodes.get("drone")
        if machine_drone is None or node_fwd is None or node_drone is None:
            return
        HeartbeatMonitor(
            node_fwd, "drone", scenario.sim, scenario.log,
            on_loss=lambda: machine_fwd.service_down(
                "detection_relay", cause="heartbeat_loss"
            ),
            on_recovery=lambda: machine_fwd.service_up("detection_relay"),
        )
        HeartbeatMonitor(
            node_drone, "forwarder", scenario.sim, scenario.log,
            on_loss=lambda: machine_drone.service_down(
                "uplink", cause="heartbeat_loss"
            ),
            on_recovery=lambda: machine_drone.service_up("uplink"),
        )

    #: which (endpoint, dead peer) pair maps to which (machine, service)
    _DEAD_PEER_SERVICES = {
        ("forwarder", "control"): ("forwarder", "command_link"),
        ("forwarder", "drone"): ("forwarder", "detection_relay"),
        ("drone", "forwarder"): ("drone", "uplink"),
    }

    def _harden_links(self) -> None:
        """Install deterministic backoff retry + dead-peer detection."""
        scenario = self.scenario
        for name, node in scenario.network.nodes.items():
            rng = scenario.streams.stream(f"faults.retry.{name}")
            node.endpoint.retry_policy = RetryPolicy.hardened(rng)
            node.endpoint.on_peer_dead = (
                lambda peer, me=name: self._on_peer_dead(me, peer)
            )

    def _on_peer_dead(self, endpoint: str, peer: str) -> None:
        mapped = self._DEAD_PEER_SERVICES.get((endpoint, peer))
        if mapped is None:
            return
        machine_name, service = mapped
        machine = self.machines.get(machine_name)
        if machine is not None:
            machine.service_down(service, cause="dead_peer")

    def _register_sensors(self) -> None:
        scenario = self.scenario
        for camera in scenario.cameras.values():
            self._sensors[camera.name] = camera
        ultrasonic = getattr(scenario.safety_function, "ultrasonic", None)
        if ultrasonic is not None:
            self._sensors[ultrasonic.name] = ultrasonic
        self._sensors[scenario.gnss.name] = scenario.gnss

    def _start_voter(self) -> None:
        scenario = self.scenario
        sim = scenario.sim
        checks = []
        camera = scenario.cameras.get("forwarder")
        if camera is not None:
            checks.append((camera.name, lambda: camera.healthy(sim.now)))
        ultrasonic = getattr(scenario.safety_function, "ultrasonic", None)
        if ultrasonic is not None:
            checks.append(
                (ultrasonic.name, lambda: ultrasonic.healthy(sim.now))
            )
        checks.append((scenario.gnss.name, scenario.gnss.healthy))
        SensorHealthVoter(
            sim, checks, self.machines["forwarder"], service="perception"
        )

    def _rejoin(self, machine: str) -> None:
        """Re-run the SecureChannel handshakes for a recovering vehicle."""
        from repro.comms.crypto.secure_channel import HandshakeError

        network = self.scenario.network
        peers = [n for n in network.nodes if n != machine]
        for peer in peers:
            endpoint = network.nodes[peer].endpoint
            if not endpoint.powered:
                continue
            try:
                network.reestablish(machine, peer)
            except HandshakeError:
                pass

    # -- injection ------------------------------------------------------------
    def _inject(self, fault: FaultSpec) -> None:
        scenario = self.scenario
        self.faults_injected += 1
        self.active_faults.append(fault)
        scenario.log.emit(
            scenario.sim.now, EventCategory.SYSTEM, "fault_inject",
            fault.target, fault=fault.kind,
        )
        if trace.ACTIVE:
            trace.TRACER.fault_inject(fault.kind, fault.target)
        self._APPLY[fault.kind](self, fault)
        if fault.duration_s is not None:
            scenario.sim.schedule(
                fault.duration_s, lambda: self._clear(fault)
            )

    def _clear(self, fault: FaultSpec) -> None:
        scenario = self.scenario
        self.faults_cleared += 1
        if fault in self.active_faults:
            self.active_faults.remove(fault)
        scenario.log.emit(
            scenario.sim.now, EventCategory.SYSTEM, "fault_clear",
            fault.target, fault=fault.kind,
        )
        if trace.ACTIVE:
            trace.TRACER.fault_clear(fault.kind, fault.target)
        self._CLEAR[fault.kind](self, fault)

    def _sensor(self, target: str):
        sensor = self._sensors.get(target)
        if sensor is None:
            raise InputError(
                f"unknown sensor target {target!r}; known: {sorted(self._sensors)}"
            )
        return sensor

    # node crash / restore ----------------------------------------------------
    def _apply_node_crash(self, fault: FaultSpec) -> None:
        scenario = self.scenario
        node = scenario.network.nodes.get(fault.target)
        if node is not None:
            node.endpoint.power_off()
        if fault.target == "drone" and scenario.drone is not None:
            scenario.drone.ground("fault_injection")
        machine = self.machines.get(fault.target)
        if machine is not None:
            machine.service_down(
                "compute", cause="node_crash", fallback="safe_stop"
            )

    def _clear_node_crash(self, fault: FaultSpec) -> None:
        node = self.scenario.network.nodes.get(fault.target)
        if node is not None:
            node.endpoint.power_on()
        machine = self.machines.get(fault.target)
        if machine is not None:
            machine.service_up("compute")

    # radio brownout ----------------------------------------------------------
    def _apply_radio_brownout(self, fault: FaultSpec) -> None:
        sag_db = float(fault.param("sag_db", 12.0))
        self.scenario.medium.set_power_sag(fault.target, sag_db)

    def _clear_radio_brownout(self, fault: FaultSpec) -> None:
        self.scenario.medium.clear_power_sag(fault.target)

    # sensor faults -----------------------------------------------------------
    def _apply_sensor_freeze(self, fault: FaultSpec) -> None:
        self._sensor(fault.target).inject_freeze()

    def _clear_sensor_freeze(self, fault: FaultSpec) -> None:
        self._sensor(fault.target).clear_freeze()

    def _apply_sensor_dropout(self, fault: FaultSpec) -> None:
        self._sensor(fault.target).inject_dropout()

    def _clear_sensor_dropout(self, fault: FaultSpec) -> None:
        self._sensor(fault.target).clear_dropout()

    def _apply_sensor_bias(self, fault: FaultSpec) -> None:
        sensor = self._sensor(fault.target)
        if sensor is self.scenario.gnss:
            sensor.fault_bias = Vec2(
                float(fault.param("bias_east_m", 5.0)),
                float(fault.param("bias_north_m", 0.0)),
            )
        else:
            sensor.set_fault_gain(float(fault.param("gain", 0.5)))

    def _clear_sensor_bias(self, fault: FaultSpec) -> None:
        sensor = self._sensor(fault.target)
        if sensor is self.scenario.gnss:
            sensor.fault_bias = None
        else:
            sensor.set_fault_gain(1.0)

    # clock drift -------------------------------------------------------------
    def _apply_clock_drift(self, fault: FaultSpec) -> None:
        self.scenario.sim.set_clock_drift(
            fault.target,
            offset_s=float(fault.param("offset_s", 0.5)),
            rate=float(fault.param("rate", 0.001)),
        )

    def _clear_clock_drift(self, fault: FaultSpec) -> None:
        self.scenario.sim.clear_clock_drift(fault.target)

    # packet corruption -------------------------------------------------------
    def _apply_packet_corruption(self, fault: FaultSpec) -> None:
        if self._corruption_rng is None:
            self._corruption_rng = self.scenario.streams.stream(
                "faults.corruption"
            )
        self.scenario.medium.set_corruption(
            float(fault.param("probability", 0.2)), self._corruption_rng
        )

    def _clear_packet_corruption(self, fault: FaultSpec) -> None:
        self.scenario.medium.clear_corruption()

    _APPLY: Dict[str, Callable] = {
        "node_crash": _apply_node_crash,
        "radio_brownout": _apply_radio_brownout,
        "sensor_freeze": _apply_sensor_freeze,
        "sensor_dropout": _apply_sensor_dropout,
        "sensor_bias": _apply_sensor_bias,
        "clock_drift": _apply_clock_drift,
        "packet_corruption": _apply_packet_corruption,
    }
    _CLEAR: Dict[str, Callable] = {
        "node_crash": _clear_node_crash,
        "radio_brownout": _clear_radio_brownout,
        "sensor_freeze": _clear_sensor_freeze,
        "sensor_dropout": _clear_sensor_dropout,
        "sensor_bias": _clear_sensor_bias,
        "clock_drift": _clear_clock_drift,
        "packet_corruption": _clear_packet_corruption,
    }

    # -- resilience evidence --------------------------------------------------
    def resilience_summary(self, horizon_s: float) -> dict:
        """Deterministic, JSON-serialisable resilience digest, read after
        the run, over ``horizon_s`` seconds.

        An outage still open at the end is charged up to the current
        simulation time in availability and RTO compliance, and left out of
        MTTR, which averages repaired outages only; nothing is written to
        the event log or the trace.  Works without a tracer — sweep workers
        fold it into their result records.
        """
        from repro.sim.metrics import SeriesSummary

        scenario = self.scenario
        now = scenario.sim.now

        availability: Dict[str, float] = {}
        mttr_samples: List[float] = []
        for machine_name, continuity in sorted(self.continuities.items()):
            downtime: Dict[str, float] = {}
            for outage in continuity.outages:
                duration = outage.downtime(now)
                downtime[outage.service] = (
                    downtime.get(outage.service, 0.0) + duration
                )
                if outage.ended_at is not None:
                    mttr_samples.append(duration)
            for service, down_s in sorted(downtime.items()):
                key = f"{machine_name}.{service}"
                availability[key] = round(
                    max(0.0, 1.0 - down_s / horizon_s) if horizon_s > 0 else 0.0,
                    6,
                )

        latencies: List[float] = []
        for machine in self.machines.values():
            latencies.extend(machine.safe_stop_latencies)
        latency = SeriesSummary.of(latencies)
        retry_exhausted = sum(
            node.endpoint.retry_exhausted
            for node in scenario.network.nodes.values()
        )
        return {
            "faults": {
                "scheduled": len(self.schedule),
                "injected": self.faults_injected,
                "cleared": self.faults_cleared,
                "active_at_end": len(self.active_faults),
            },
            "modes": {
                name: machine.summary()
                for name, machine in sorted(self.machines.items())
            },
            "availability": availability,
            "mttr_s": (
                round(sum(mttr_samples) / len(mttr_samples), 6)
                if mttr_samples else None
            ),
            "safe_stop_latency": {
                "count": latency.count,
                "p50_s": round(latency.p50, 6) if latency.count else None,
                "p95_s": round(latency.p95, 6) if latency.count else None,
            },
            "compliance": {
                name: continuity.compliance_report()
                for name, continuity in sorted(self.continuities.items())
            },
            "delivery": {
                "retry_exhausted": retry_exhausted,
                "rejoins": scenario.network.rejoins,
            },
        }

    def final_modes(self) -> Dict[str, VehicleMode]:
        return {name: m.mode for name, m in sorted(self.machines.items())}
