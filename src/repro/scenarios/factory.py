"""Primitive-valued run specs → composed, armed worksite scenarios.

The sweep runner fans runs out across processes, so everything it ships to
a worker must be picklable and platform-stable: plain strings, numbers and
tuples.  This module is the bridge — it turns such a primitive mapping into
a fully composed :class:`~repro.scenarios.worksite.WorksiteScenario` with
its attack campaigns armed and (optionally) a standalone IDS family
attached, without the caller ever touching enum or object types.

Every worksite execution takes one path: :func:`compose_spec` turns a
:class:`~repro.runner.spec.RunSpec` into a :class:`PreparedRun`, and
:meth:`PreparedRun.run` advances it to the horizon under an optional
tracer.  The sweep worker, the replay oracle, the invariant selftest,
the fuzz evaluator and the ``run``, ``attack``, ``trace`` and
``profile`` commands all go through it.  :func:`compose_run` is the same
composition from loose primitives; :func:`arm_plan` is its
attack-arming step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.comms.crypto.secure_channel import SecurityProfile
from repro.defense.ids.anomaly import AnomalyIds
from repro.defense.ids.manager import IdsManager
from repro.defense.ids.signature import SignatureIds
from repro.defense.ids.spec import ProtocolSpec, SpecificationIds
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.inputs import InputError
from repro.scenarios.campaigns import CAMPAIGN_BUILDERS, build_campaign
from repro.scenarios.worksite import (
    ScenarioConfig,
    WorksiteScenario,
    build_worksite,
)
from repro.sim.weather import WeatherState
from repro.telemetry import tracer as trace

if TYPE_CHECKING:
    from repro.runner.spec import RunSpec

#: names a run spec may use for its defence posture
PROFILES = ("defended", "undefended")

#: IDS families a run spec may attach on top of an undefended scenario
IDS_FAMILIES = ("signature", "anomaly", "spec", "ensemble")

#: ScenarioConfig fields a spec may override with primitive values
_OVERRIDABLE = {
    "width", "height", "tree_density", "n_ridges", "ridge_height",
    "drone_enabled", "n_workers", "worker_approach_rate_per_h",
    "weather_initial", "weather_frozen", "pile_volume_m3",
    "groundstation_enabled", "gs_attacks",
}


def scenario_config_from_primitives(
    seed: int,
    profile: str = "defended",
    overrides: Optional[Mapping[str, object]] = None,
) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from primitive values only.

    ``profile`` selects the defence posture: ``"defended"`` is the paper's
    nominal stack, ``"undefended"`` is plaintext links with every defence
    disabled (the ablation baseline the CLI calls ``--undefended``).
    ``overrides`` may set any field in ``_OVERRIDABLE``; ``weather_initial``
    is given by name (``"clear"``, ``"rain"``, ...).
    """
    if profile not in PROFILES:
        raise InputError(
            f"unknown profile {profile!r}; expected one of {PROFILES}"
        )
    kwargs: Dict[str, object] = {"seed": int(seed)}
    if profile == "undefended":
        kwargs.update(
            profile=SecurityProfile.PLAINTEXT,
            protected_management=False,
            defenses_enabled=False,
            access_control_enabled=False,
        )
    valid = {f.name for f in fields(ScenarioConfig)}
    for name, value in dict(overrides or {}).items():
        if name not in _OVERRIDABLE:
            hint = "overridable" if name in valid else "known"
            raise InputError(
                f"{name!r} is not an {hint} ScenarioConfig field; "
                f"overridable: {sorted(_OVERRIDABLE)}"
            )
        if name == "weather_initial" and isinstance(value, str):
            value = WeatherState[value.upper()]
        kwargs[name] = value
    return ScenarioConfig(**kwargs)


def standalone_ids_family(name: str, scenario: WorksiteScenario) -> IdsManager:
    """Attach one IDS family (or the ensemble) to a composed scenario.

    Used by ablation runs on an *undefended* network, where the scenario's
    own IDS suite is disabled and the family under study is wired up
    separately so channel-level protections do not mask its behaviour.
    """
    if name not in IDS_FAMILIES:
        raise InputError(
            f"unknown IDS family {name!r}; expected one of {IDS_FAMILIES}"
        )
    manager = IdsManager()
    for detector in _family_detectors(name, scenario):
        manager.attach(detector)
    return manager


def _family_detectors(name: str, scenario: WorksiteScenario) -> List:
    node = scenario.network.nodes["forwarder"]
    medium = scenario.medium
    if name == "signature":
        return [SignatureIds("sig", scenario.sim, scenario.log)]
    if name == "anomaly":
        def rate(getter):
            last = {"v": getter()}

            def sample():
                current = getter()
                delta = current - last["v"]
                last["v"] = current
                return delta

            return sample

        return [AnomalyIds(
            "anom", scenario.sim, scenario.log,
            features={
                "frame_loss_rate": rate(lambda: float(medium.frames_lost)),
                "reject_rate": rate(lambda: float(node.records_rejected)),
                "deauth_rate": rate(
                    lambda: float(node.endpoint.deauths_received)
                ),
            },
        )]
    if name == "spec":
        return [SpecificationIds(
            "spec", scenario.sim, scenario.log, node,
            ProtocolSpec(command_senders={"control"}),
        )]
    return (_family_detectors("signature", scenario)
            + _family_detectors("anomaly", scenario)
            + _family_detectors("spec", scenario))


@dataclass
class PreparedRun:
    """A composed scenario with its attack timeline armed and ready to run."""

    scenario: WorksiteScenario
    windows: List[Tuple[str, float, float]]
    ids_manager: Optional[IdsManager]
    #: simulated seconds :meth:`run` advances the clock to
    horizon_s: float
    #: armed fault injector, present only when the spec carries faults
    fault_injector: Optional[FaultInjector] = None

    def score_manager(self) -> Optional[IdsManager]:
        """The manager whose alerts should be scored for this run."""
        return self.ids_manager or self.scenario.ids_manager

    def run(self, tracer: Optional[trace.Tracer] = None) -> None:
        """Run to the horizon, traced by ``tracer`` when one is given.

        The ground station's audit chain is closed inside the traced
        window, so its close entry is part of the record stream (and of
        any audit file); then the tracer is closed, which ends open spans
        and flushes its writer.  The tracer is uninstalled even when the
        run raises.
        """
        if tracer is not None:
            trace.install(tracer)
        try:
            self.scenario.run(self.horizon_s)
            if self.scenario.groundstation is not None:
                self.scenario.groundstation.finalize()
            if tracer is not None:
                tracer.close()
        finally:
            if tracer is not None:
                trace.uninstall()


def arm_plan(
    scenario: WorksiteScenario,
    plan: Sequence[Tuple[str, float, Optional[float]]],
) -> List[Tuple[str, float, float]]:
    """Build and arm every ``(campaign_name, start_s, duration_s)`` step of
    ``plan`` on ``scenario``; returns the steps' ground-truth windows.

    A ``None`` duration leaves the attack open-ended.  A builder that
    stages its own durations (e.g. ``"combined"``) is armed without one.
    """
    windows: List[Tuple[str, float, float]] = []
    for name, start, duration in plan:
        kwargs = {"start": float(start)}
        if duration is not None:
            kwargs["duration"] = float(duration)
        try:
            campaign = build_campaign(name, scenario, **kwargs)
        except TypeError:
            kwargs.pop("duration", None)
            campaign = build_campaign(name, scenario, **kwargs)
        campaign.arm()
        windows.extend(campaign.ground_truth_windows())
    return windows


def compose_run(
    seed: int,
    horizon_s: float,
    profile: str = "defended",
    plan: Sequence[Tuple[str, float, Optional[float]]] = (),
    ids_family: Optional[str] = None,
    overrides: Optional[Mapping[str, object]] = None,
    faults: Sequence[Sequence] = (),
    *,
    audit_path: Optional[str] = None,
    metrics_interval_s: Optional[float] = None,
) -> PreparedRun:
    """Compose and arm a worksite run from primitive values.

    ``plan`` is the attack timeline: ``(campaign_name, start_s, duration_s)``
    steps (duration ``None`` means open-ended).  An empty plan is the benign
    baseline.  The returned :class:`PreparedRun` has every campaign armed;
    :meth:`PreparedRun.run` advances the clock to ``horizon_s``.

    ``faults`` is the primitive tuples a :class:`~repro.runner.spec.RunSpec`
    embeds (``FaultSpec.to_primitives`` items, jitter already realised).
    An empty value leaves the run entirely fault-free — no injector is
    built at all.  A plan that names an unknown campaign, or one campaign
    twice, raises :class:`~repro.inputs.InputError`.

    ``audit_path`` and ``metrics_interval_s`` set the output settings
    :attr:`ScenarioConfig.gs_audit_path` and
    :attr:`ScenarioConfig.metrics_interval_s`; they change where a run
    writes, not what it simulates, so no spec carries them.
    """
    seen = set()
    for name, _, _ in plan:
        if name not in CAMPAIGN_BUILDERS:
            raise InputError(
                f"unknown campaign {name!r}; "
                f"available: {sorted(CAMPAIGN_BUILDERS)}"
            )
        # each campaign hard-codes its attackers' endpoint names, so a
        # second instance of it would collide with the first
        if name in seen:
            raise InputError(
                f"campaign {name!r} appears twice in the plan; "
                f"a plan runs each campaign at most once"
            )
        seen.add(name)
    config = scenario_config_from_primitives(seed, profile, overrides)
    config.gs_audit_path = audit_path
    config.metrics_interval_s = metrics_interval_s
    scenario = build_worksite(config)
    windows = arm_plan(scenario, plan)
    manager = (
        standalone_ids_family(ids_family, scenario) if ids_family else None
    )
    injector = None
    if faults:
        schedule = FaultSchedule(
            faults=tuple(FaultSpec.from_primitives(item) for item in faults)
        )
        injector = FaultInjector(scenario, schedule).arm()
    return PreparedRun(
        scenario=scenario, windows=windows, ids_manager=manager,
        horizon_s=float(horizon_s), fault_injector=injector,
    )


def compose_spec(
    spec: "RunSpec",
    *,
    audit_path: Optional[str] = None,
    metrics_interval_s: Optional[float] = None,
) -> PreparedRun:
    """Compose and arm the run a :class:`~repro.runner.spec.RunSpec`
    describes (see :func:`compose_run` for the output settings)."""
    return compose_run(
        seed=spec.seed,
        horizon_s=spec.horizon_s,
        profile=spec.profile,
        plan=spec.plan,
        ids_family=spec.ids_family,
        overrides=dict(spec.overrides),
        faults=spec.faults,
        audit_path=audit_path,
        metrics_interval_s=metrics_interval_s,
    )
