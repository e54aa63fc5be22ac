"""The Figure 1 worksite, fully composed and runnable.

``build_worksite(config)`` assembles the whole stack — world, weather,
machines, humans, radio network with secure channels, sensors and the
collaborative safety function, IDS suite, safety monitor — into a
:class:`WorksiteScenario` whose ``run(duration)`` advances the simulation
and whose fields expose every subsystem to experiments.

``worksite_item_model()`` is the matching ISO/SAE 21434 item definition used
by the risk assessments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.comms.crypto.numbers import DhGroup, TEST_GROUP
from repro.comms.crypto.secure_channel import SecurityProfile
from repro.comms.medium import WirelessMedium
from repro.comms.network import Network
from repro.comms.protocols import (
    CommandChannel,
    DetectionRelay,
    HeartbeatMonitor,
    TelemetryPublisher,
)
from repro.defense.access_control import AccessControlPolicy
from repro.defense.camera_defense import AntiHackingDetector
from repro.defense.gnss_monitor import GnssPlausibilityMonitor
from repro.defense.ids.anomaly import AnomalyIds
from repro.defense.ids.manager import IdsManager
from repro.defense.ids.signature import SignatureIds
from repro.defense.ids.spec import ProtocolSpec, SpecificationIds
from repro.inputs import InputError
from repro.risk.impact import SfopImpact
from repro.risk.model import Asset, CybersecurityProperty, DamageScenario, ItemModel
from repro.risk.stride import enumerate_threats
from repro.safety.iso13849 import Category, SafetyFunctionDesign
from repro.safety.monitor import SafetyMonitor
from repro.safety.people_detection import CollaborativePeopleDetection
from repro.sensors.camera import Camera
from repro.sensors.degradation import DegradationModel
from repro.sensors.detection import Detection, PeopleDetector
from repro.sensors.gnss import GnssReceiver
from repro.sensors.occlusion import OcclusionModel
from repro.sensors.ultrasonic import UltrasonicArray
from repro.sim.drone import Drone
from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.sim.forwarder import Forwarder
from repro.sim.geometry import Vec2
from repro.sim.harvester import Harvester
from repro.sim.human import Human
from repro.sim.metrics import MetricsCollector
from repro.sim.missions import LogPile, MissionPlan
from repro.sim.rng import RngStreams
from repro.sim.weather import Weather, WeatherState
from repro.sim.world import World, Zone, generate_forest


@dataclass
class ScenarioConfig:
    """Knobs of the worksite scenario.

    The defaults give the paper's nominal set-up: AEAD-protected links,
    drone collaboration on, full defence suite, clear weather.
    """

    seed: int = 42
    width: float = 300.0
    height: float = 300.0
    tree_density: float = 0.02
    n_ridges: int = 5
    ridge_height: float = 7.0
    profile: SecurityProfile = SecurityProfile.AEAD
    protected_management: bool = True
    drone_enabled: bool = True
    defenses_enabled: bool = True
    access_control_enabled: bool = True
    n_workers: int = 3
    worker_approach_rate_per_h: float = 2.0
    weather_initial: WeatherState = WeatherState.CLEAR
    weather_frozen: bool = False
    pile_volume_m3: float = 120.0
    #: arm the signed ground-station command/alert plane (off by default:
    #: a disabled run stays byte-identical to the golden traces)
    groundstation_enabled: bool = False
    #: "+"-separated groundstation attack kinds to arm (requires the plane);
    #: see :data:`repro.attacks.groundstation.GS_ATTACK_KINDS`
    gs_attacks: str = ""
    #: stream the audit chain to this JSONL path (None keeps it in memory)
    gs_audit_path: Optional[str] = None
    group: DhGroup = TEST_GROUP  # small group keeps scenario start-up fast
    #: sample delivery ratio / speed / separation into ``metrics`` every this
    #: many seconds; None (the default) schedules no sampler at all
    metrics_interval_s: Optional[float] = None


@dataclass
class WorksiteScenario:
    """All handles of a composed worksite run."""

    config: ScenarioConfig
    sim: Simulator
    log: EventLog
    streams: RngStreams
    world: World
    weather: Weather
    forwarder: Forwarder
    drone: Optional[Drone]
    harvester: Harvester
    workers: List[Human]
    mission: MissionPlan
    medium: WirelessMedium
    network: Network
    safety_function: CollaborativePeopleDetection
    safety_monitor: SafetyMonitor
    gnss: GnssReceiver
    cameras: Dict[str, Camera]
    detectors: Dict[str, PeopleDetector]
    ids_manager: Optional[IdsManager]
    gnss_monitor: Optional[GnssPlausibilityMonitor]
    anti_hacking: Optional[AntiHackingDetector]
    access_policy: Optional[AccessControlPolicy]
    command_channel: CommandChannel
    heartbeat: HeartbeatMonitor
    relay: Optional[DetectionRelay]
    metrics: MetricsCollector
    #: the signed command/alert plane, present only when enabled
    groundstation: Optional[object] = None

    def run(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s``."""
        self.sim.run_until(self.sim.now + duration_s)

    def people(self) -> List[Human]:
        return [w for w in self.workers if w.alive]

    def summary(self) -> dict:
        """End-of-run headline numbers."""
        summary = {
            "time_s": self.sim.now,
            "delivered_m3": self.mission.delivered_m3,
            "cycles": self.mission.cycles_completed,
            "safe_stops": self.forwarder.safe_stops,
            "delivery_ratio": round(self.medium.delivery_ratio, 3),
            "safety": self.safety_monitor.summary(),
            "alerts": len(self.ids_manager.alerts) if self.ids_manager else 0,
        }
        # present only when the plane is armed: plane-off summaries keep
        # their exact pre-existing shape (same discipline as the tracer)
        if self.groundstation is not None:
            summary["groundstation"] = self.groundstation.summary()
        return summary

    def collect_metrics(self) -> MetricsCollector:
        """Fold every subsystem's counters into :attr:`metrics`.

        Idempotent: counters are synchronised to the live subsystem values,
        so calling this again mid-run or at the end never double-counts.
        Series samples accumulate separately via ``metrics_interval_s``.
        """
        metrics = self.metrics

        def sync(name: str, value: float) -> None:
            metrics.increment(name, value - metrics.counter(name))

        sync("comms.frames_sent", self.medium.frames_sent)
        sync("comms.frames_delivered", self.medium.frames_delivered)
        sync("comms.frames_lost", self.medium.frames_lost)
        for node in self.network.nodes.values():
            prefix = f"comms.{node.name}"
            sync(f"{prefix}.messages_sent", node.messages_sent)
            sync(f"{prefix}.messages_received", node.messages_received)
            sync(f"{prefix}.records_rejected", node.records_rejected)
            sync(f"{prefix}.deauths_received", node.endpoint.deauths_received)
            sync(f"{prefix}.deauths_rejected", node.endpoint.deauths_rejected)
            for peer, stats in node.channel_stats().items():
                for kind, count in stats.items():
                    sync(f"{prefix}.channel.{peer}.{kind}", count)
        sync("mission.delivered_m3", self.mission.delivered_m3)
        sync("mission.cycles", self.mission.cycles_completed)
        sync("safety.safe_stops", self.forwarder.safe_stops)
        sync("safety.violations", self.safety_monitor.violation_count)
        sync("safety.near_misses", self.safety_monitor.near_misses)
        if self.ids_manager is not None:
            ids = self.ids_manager.summary()
            sync("ids.alerts", ids["alerts"])
            sync("ids.suppressed", ids["suppressed"])
        metrics.set_gauge("comms.delivery_ratio", self.medium.delivery_ratio)
        metrics.set_gauge("sim.time_s", self.sim.now)
        if self.safety_monitor.min_separation_m != float("inf"):
            metrics.set_gauge(
                "safety.min_separation_m", self.safety_monitor.min_separation_m
            )
        return metrics


def build_worksite(config: Optional[ScenarioConfig] = None) -> WorksiteScenario:
    """Compose the Figure 1 worksite."""
    config = config or ScenarioConfig()
    streams = RngStreams(config.seed)
    sim = Simulator()
    log = EventLog()
    metrics = MetricsCollector()

    # -- world -----------------------------------------------------------------
    harvest = Zone("harvest", Vec2(15.0, 15.0), Vec2(85.0, 85.0))
    landing = Zone(
        "landing",
        Vec2(config.width - 80.0, config.height - 80.0),
        Vec2(config.width - 20.0, config.height - 20.0),
    )
    route = Zone("route", Vec2(60.0, 60.0), Vec2(config.width - 60.0, config.height - 60.0))
    world = generate_forest(
        streams,
        width=config.width,
        height=config.height,
        tree_density=config.tree_density,
        clearings=[harvest, landing, route],
        n_ridges=config.n_ridges,
        ridge_height=config.ridge_height,
    )
    weather = Weather(
        sim, streams, initial=config.weather_initial, frozen=config.weather_frozen
    )
    degradation = DegradationModel(weather)
    occlusion = OcclusionModel(world)

    # -- machines and people ---------------------------------------------------
    pile_positions = [Vec2(30.0, 30.0), Vec2(55.0, 40.0), Vec2(40.0, 65.0)]
    per_pile = config.pile_volume_m3 / len(pile_positions)
    mission = MissionPlan(
        piles=[LogPile(p, per_pile) for p in pile_positions],
        landing_point=landing.center(),
    )
    forwarder = Forwarder(
        "forwarder", sim, log, Vec2(70.0, 70.0), world, mission
    )
    drone: Optional[Drone] = None
    if config.drone_enabled:
        drone = Drone(
            "drone", sim, log, harvest.center(), target=forwarder, altitude=40.0
        )
        # battery draw rises with wind (Section III-D environmental factors)
        drone.wind_draw_factor = (
            lambda: 1.0 + 0.05 * weather.conditions().wind_speed
        )
    harvester = Harvester(
        "harvester", sim, log, streams, Vec2(25.0, 70.0),
        cutting_positions=[Vec2(30.0, 75.0), Vec2(45.0, 78.0), Vec2(60.0, 72.0)],
    )

    # the partially-autonomous chain: piles the manual harvester produces
    # join the autonomous forwarder's transport inventory
    def _collect_new_piles(event) -> None:
        if event.kind == "pile_produced" and event.source == harvester.name:
            mission.piles.append(harvester.piles_produced[-1])
            if forwarder.phase.value == "idle" and not forwarder.safe_stopped:
                forwarder._begin_cycle()

    log.subscribe(_collect_new_piles, EventCategory.MISSION)
    workers: List[Human] = []
    anchors = [Vec2(80.0, 30.0), Vec2(20.0, 45.0), Vec2(70.0, 85.0),
               Vec2(50.0, 20.0), Vec2(35.0, 55.0)]
    for i in range(config.n_workers):
        workers.append(
            Human(
                f"worker-{i + 1}", sim, log, streams, anchors[i % len(anchors)],
                approach_target=forwarder,
                approach_rate_per_h=config.worker_approach_rate_per_h,
            )
        )

    # -- network -----------------------------------------------------------------
    medium = WirelessMedium(
        sim, log, streams, canopy_fn=world.canopy_blockage
    )
    mgmt_key = b"worksite-management-key-0001" if config.protected_management else b""
    network = Network(sim, log, medium, group=config.group, profile=config.profile)
    # the control van parks mid-route so both the harvest site and the
    # landing stay within reliable radio range
    control_pos = Vec2(config.width / 2.0, config.height / 2.0)
    node_control = network.add_node(
        "control", lambda: control_pos, roles=("operator",),
        protected_management=config.protected_management, management_key=mgmt_key,
    )
    node_fwd = network.add_node(
        "forwarder", lambda: forwarder.position,
        protected_management=config.protected_management, management_key=mgmt_key,
    )
    node_drone = None
    if drone is not None:
        drone_ref = drone
        node_drone = network.add_node(
            "drone", lambda: drone_ref.position,
            protected_management=config.protected_management, management_key=mgmt_key,
        )
    network.establish_all()

    # -- sensors and the collaborative safety function ----------------------------
    cameras: Dict[str, Camera] = {}
    detectors: Dict[str, PeopleDetector] = {}
    cameras["forwarder"] = Camera(
        "cam-forwarder", forwarder, occlusion, degradation, nominal_range=35.0
    )
    detectors["forwarder"] = PeopleDetector(cameras["forwarder"], streams)
    ultrasonic = UltrasonicArray("us-forwarder", forwarder, streams, degradation)
    gnss = GnssReceiver("gnss-forwarder", forwarder, streams)

    remote_buffer: List[Detection] = []
    relay: Optional[DetectionRelay] = None
    if drone is not None and node_drone is not None:
        cameras["drone"] = Camera(
            "cam-drone", drone, occlusion, degradation, nominal_range=80.0
        )
        detectors["drone"] = PeopleDetector(cameras["drone"], streams)

        def _on_report(message) -> None:
            remote_buffer.extend(
                CollaborativePeopleDetection.detections_from_report(message)
            )

        relay = DetectionRelay(node_drone, node_fwd, sim, on_report=_on_report)

        def _drone_frame() -> None:
            if drone_ref.mode.value in ("charging", "grounded"):
                return
            detections = detectors["drone"].process_frame(
                sim.now, [w for w in workers if w.alive]
            )
            if detections:
                relay.publish(
                    CollaborativePeopleDetection.report_from_detections(detections)
                )

        from repro.comms.protocols import phase_offset

        sim.every(0.5, _drone_frame, start_at=sim.now + phase_offset("drone-frame", 0.5))

    def _drain_remote() -> List[Detection]:
        drained = list(remote_buffer)
        remote_buffer.clear()
        return drained

    safety_function = CollaborativePeopleDetection(
        forwarder, sim, log, [detectors["forwarder"]],
        people_fn=lambda: [w for w in workers if w.alive],
        ultrasonic=ultrasonic,
        remote_detections_fn=_drain_remote if drone is not None else None,
    )

    # -- protocols -----------------------------------------------------------------
    TelemetryPublisher(node_fwd, forwarder, "control", sim)
    # supervision loss drops the forwarder into degraded-speed autonomy
    # (the recovery plan's fallback) rather than a hard stop — remote sites
    # cannot afford to halt on every connectivity dip (Table I)
    heartbeat = HeartbeatMonitor(
        node_fwd, "control", sim, log,
        on_loss=lambda: forwarder.set_speed_limit(1.0),
        on_recovery=lambda: forwarder.set_speed_limit(None),
    )
    HeartbeatMonitor(node_control, "forwarder", sim, log)

    access_policy: Optional[AccessControlPolicy] = None
    authorize = None
    if config.access_control_enabled:
        access_policy = AccessControlPolicy()
        access_policy.assign("control", "operator")
        access_policy.authenticate("control", credential_valid=True, now=sim.now)
        authorize = lambda message: access_policy.authorize_command(message, sim.now)
    command_channel = CommandChannel(
        node_fwd, forwarder.handle_command, log, sim, authorize=authorize
    )

    # -- defences -----------------------------------------------------------------
    ids_manager: Optional[IdsManager] = None
    gnss_monitor: Optional[GnssPlausibilityMonitor] = None
    anti_hacking: Optional[AntiHackingDetector] = None
    if config.defenses_enabled:
        ids_manager = IdsManager()
        ids_manager.attach(SignatureIds("sig-ids", sim, log))

        def _rate(getter):
            last = {"value": getter()}

            def sample() -> float:
                current = getter()
                delta = current - last["value"]
                last["value"] = current
                return delta

            return sample

        ids_manager.attach(
            AnomalyIds(
                "anom-ids", sim, log,
                features={
                    "frame_loss_rate": _rate(lambda: float(medium.frames_lost)),
                    "record_reject_rate": _rate(
                        lambda: float(node_fwd.records_rejected)
                    ),
                    "deauth_rate": _rate(
                        lambda: float(node_fwd.endpoint.deauths_received)
                    ),
                },
            )
        )
        spec = ProtocolSpec(command_senders={"control"})
        ids_manager.attach(
            SpecificationIds("spec-ids", sim, log, node_fwd, spec)
        )
        gnss_monitor = GnssPlausibilityMonitor("gnss-mon", sim, log, gnss)
        ids_manager.attach(gnss_monitor)
        def _camera_expected(camera) -> bool:
            # the camera should be seeing something when a confirmed fused
            # track sits well inside its nominal range
            for track in safety_function.fusion.confirmed_tracks():
                if track.position.distance_to(camera.position) < 0.6 * camera.nominal_range:
                    return True
            return False

        anti_hacking = AntiHackingDetector(
            "anti-hack", sim, log, list(detectors.values()),
            expectation_fn=_camera_expected,
        )
        ids_manager.attach(anti_hacking)
        if drone is not None:
            from repro.defense.cross_validation import (
                CollaborativePositionCheck,
                drone_observer,
            )

            ids_manager.attach(CollaborativePositionCheck(
                "drone-crossval", sim, log, gnss,
                drone_observer(drone, forwarder, streams),
            ))

    safety_monitor = SafetyMonitor(
        [forwarder, harvester], workers, sim, log
    )

    # -- ground-station plane (strictly opt-in) -----------------------------------
    groundstation = None
    if config.groundstation_enabled:
        # imported lazily so plane-off runs never even load the subsystem
        from repro.attacks.groundstation import build_gs_attacks
        from repro.groundstation.station import GroundStation

        groundstation = GroundStation(
            sim, log, config.seed, forwarder=forwarder, drone=drone,
            audit_path=config.gs_audit_path,
        )
        if config.gs_attacks:
            build_gs_attacks(config.gs_attacks, groundstation, sim, log)
    elif config.gs_attacks:
        raise InputError(
            "gs_attacks requires groundstation_enabled=True"
        )

    if config.metrics_interval_s is not None:

        def _sample_metrics() -> None:
            now = sim.now
            metrics.sample("comms.delivery_ratio", now, medium.delivery_ratio)
            metrics.sample("forwarder.speed", now, forwarder.state.speed)
            metrics.sample("mission.delivered_m3", now, mission.delivered_m3)
            if safety_monitor.min_separation_m != float("inf"):
                metrics.sample(
                    "safety.min_separation_m", now,
                    safety_monitor.min_separation_m,
                )

        sim.every(config.metrics_interval_s, _sample_metrics)

    return WorksiteScenario(
        config=config,
        sim=sim,
        log=log,
        streams=streams,
        world=world,
        weather=weather,
        forwarder=forwarder,
        drone=drone,
        harvester=harvester,
        workers=workers,
        mission=mission,
        medium=medium,
        network=network,
        safety_function=safety_function,
        safety_monitor=safety_monitor,
        gnss=gnss,
        cameras=cameras,
        detectors=detectors,
        ids_manager=ids_manager,
        gnss_monitor=gnss_monitor,
        anti_hacking=anti_hacking,
        access_policy=access_policy,
        command_channel=command_channel,
        heartbeat=heartbeat,
        relay=relay,
        metrics=metrics,
        groundstation=groundstation,
    )


def worksite_item_model() -> ItemModel:
    """The ISO/SAE 21434 item definition of the worksite."""
    item = ItemModel(
        name="agrarsense-worksite",
        systems=["forwarder", "drone", "harvester", "control_station", "fleet_cloud"],
        channels=[
            ("fwd-command", "control_station", "forwarder"),
            ("fwd-telemetry", "forwarder", "control_station"),
            ("drone-detections", "drone", "forwarder"),
            ("drone-telemetry", "drone", "control_station"),
            ("cloud-sync", "control_station", "fleet_cloud"),
        ],
    )
    C, I, A = (
        CybersecurityProperty.CONFIDENTIALITY,
        CybersecurityProperty.INTEGRITY,
        CybersecurityProperty.AVAILABILITY,
    )
    item.assets = [
        Asset("ch-command", "Forwarder command channel", "forwarder", (I, A),
              safety_related=True),
        Asset("ch-detection", "Drone detection relay", "drone", (I, A),
              safety_related=True),
        Asset("ch-telemetry", "Telemetry uplink", "forwarder", (C, A)),
        Asset("gnss-fwd", "Forwarder GNSS positioning", "forwarder", (I, A),
              safety_related=True),
        Asset("cam-fwd", "Forwarder perception cameras", "forwarder", (I, A),
              safety_related=True),
        Asset("cam-drone", "Drone observation camera", "drone", (C, I, A),
              safety_related=True),
        Asset("fw-fwd", "Forwarder control firmware", "forwarder", (I,),
              safety_related=True),
        Asset("data-ops", "Operations data (land, environmental)", "control_station",
              (C,)),
    ]
    item.damage_scenarios = [
        DamageScenario(
            "DS-01", "ch-command", I,
            "Unauthorised command moves the forwarder near people",
            SfopImpact.of(safety=3, operational=2), linked_hazard="HZ-04",
        ),
        DamageScenario(
            "DS-02", "ch-command", A,
            "Command channel lost; no e-stop path from control",
            SfopImpact.of(safety=2, operational=2), linked_hazard="HZ-04",
        ),
        DamageScenario(
            "DS-03", "ch-detection", A,
            "Drone detections lost; occluded approaches unseen",
            SfopImpact.of(safety=2, operational=1), linked_hazard="HZ-02",
        ),
        DamageScenario(
            "DS-04", "ch-detection", I,
            "Forged detections cause spurious stops (availability of work)",
            SfopImpact.of(safety=1, operational=2, financial=1),
        ),
        DamageScenario(
            "DS-05", "gnss-fwd", I,
            "Spoofed position walks forwarder off the cleared route",
            SfopImpact.of(safety=3, operational=2, financial=1),
            linked_hazard="HZ-03",
        ),
        DamageScenario(
            "DS-06", "gnss-fwd", A,
            "GNSS denied; navigation degraded to crawl",
            SfopImpact.of(operational=2, financial=1),
        ),
        DamageScenario(
            "DS-07", "cam-fwd", A,
            "Forwarder cameras blinded; people detection degraded",
            SfopImpact.of(safety=2, operational=1), linked_hazard="HZ-01",
        ),
        DamageScenario(
            "DS-08", "cam-drone", I,
            "Drone feed hijacked; silent loss of the collaborative view",
            SfopImpact.of(safety=2, privacy=1), linked_hazard="HZ-02",
        ),
        DamageScenario(
            "DS-09", "fw-fwd", I,
            "Tampered firmware disables protective stop",
            SfopImpact.of(safety=3, financial=2), linked_hazard="HZ-04",
        ),
        DamageScenario(
            "DS-10", "data-ops", C,
            "Land-ownership and operations data disclosed",
            SfopImpact.of(privacy=2, financial=1),
        ),
        DamageScenario(
            "DS-11", "ch-telemetry", C,
            "Operations telemetry disclosed (confidential sites)",
            SfopImpact.of(privacy=1),
        ),
    ]
    item.threat_scenarios = enumerate_threats(item)
    return item


def worksite_safety_designs() -> Dict[str, SafetyFunctionDesign]:
    """The ISO 13849 designs of the worksite's four safety functions."""
    return {
        "people_detection_stop": SafetyFunctionDesign(
            "people_detection_stop", Category.CAT3, 40.0, 0.95),
        "geofence": SafetyFunctionDesign("geofence", Category.CAT2, 25.0, 0.85),
        "protective_stop": SafetyFunctionDesign(
            "protective_stop", Category.CAT3, 60.0, 0.95),
        "speed_limiter": SafetyFunctionDesign(
            "speed_limiter", Category.CAT2, 30.0, 0.7),
    }
