"""Seed-driven sampling and mutation of valid run specs.

The generator is the fuzzer's input model: it knows which campaign names,
fault kinds/targets, profiles and scenario overrides compose into a valid
:class:`~repro.runner.spec.RunSpec`, and samples them from tunable
distributions.  It is deliberately **stateless** — every draw comes from
the ``random.Random`` the caller passes in, so the search loop can derive
one RNG per iteration from the master seed and stay resumable and
byte-identical (see :mod:`repro.fuzz.search`).

Sampling and mutation both stay inside the valid-spec envelope: campaign
names from :data:`~repro.scenarios.campaigns.CAMPAIGN_BUILDERS`, fault
targets that resolve on the generated worksite (drone targets are only
drawn while the drone is enabled), override keys from the factory's
overridable set.  An invalid spec is a generator bug, not a finding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.campaigns import FAULT_CAMPAIGNS, build_fault_campaign
from repro.faults.spec import FaultSpec
from repro.runner.spec import BASELINE, RunSpec, _freeze_faults
from repro.scenarios.campaigns import CAMPAIGN_BUILDERS
from repro.scenarios.factory import IDS_FAMILIES, PROFILES

#: fault targets resolvable on the default worksite, per kind; targets on
#: the drone are filtered out when a spec disables the drone
FAULT_TARGETS: Dict[str, Tuple[str, ...]] = {
    "node_crash": ("drone", "forwarder"),
    "radio_brownout": ("drone", "forwarder", "control"),
    "sensor_freeze": ("cam-forwarder", "cam-drone", "us-forwarder"),
    "sensor_dropout": ("cam-forwarder", "us-forwarder"),
    "sensor_bias": ("gnss-forwarder", "cam-forwarder"),
    "clock_drift": ("drone", "forwarder"),
    "packet_corruption": ("medium",),
}

_DRONE_TARGETS = ("drone", "cam-drone")

_WEATHER_NAMES = ("clear", "overcast", "rain", "heavy_rain", "fog", "snow")


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable distributions for the scenario generator.

    The defaults keep individual runs short (60–120 simulated seconds)
    so a 50-iteration fuzz budget finishes in well under a minute of
    wall time while still exercising attacks, faults and recovery.
    """

    horizons_s: Tuple[float, ...] = (60.0, 90.0, 120.0)

    campaigns = tuple(sorted(CAMPAIGN_BUILDERS))
    max_plan_steps = 2
    max_faults = 3
    profiles = PROFILES
    #: probability of the undefended ablation profile
    p_undefended = 0.2
    ids_families = IDS_FAMILIES
    p_ids_family = 0.25
    p_open_ended_attack = 0.1
    #: probability of seeding the plan from a named fault campaign
    p_named_fault_campaign = 0.25
    seed_bits = 16
    max_workers = 12
    override_keys = (
        "n_workers", "drone_enabled", "tree_density", "weather_initial",
        "worker_approach_rate_per_h", "pile_volume_m3",
    )
    max_overrides = 2


def _plan_label(plan: Sequence[Tuple[str, float, Optional[float]]]) -> str:
    """Grouping label for a (possibly multi-step) attack plan."""
    names = sorted({name for name, _, _ in plan})
    return "+".join(names) if names else BASELINE


def spec_with_plan(spec: RunSpec, plan) -> RunSpec:
    """``spec`` with a new plan and a consistent campaign label."""
    plan = tuple(plan)
    return replace(spec, plan=plan, campaign=_plan_label(plan))


def drone_disabled(spec: RunSpec) -> bool:
    return dict(spec.overrides).get("drone_enabled") is False


class ScenarioGenerator:
    """Sample and mutate valid run specs from tunable distributions."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()
        #: mutation operators in fixed registry order (shuffled per call)
        self._operators = (
            ("add_plan_step", self._add_plan_step),
            ("drop_plan_step", self._drop_plan_step),
            ("retime_plan_step", self._retime_plan_step),
            ("swap_campaign", self._swap_campaign),
            ("add_fault", self._add_fault),
            ("drop_fault", self._drop_fault),
            ("perturb_fault", self._perturb_fault),
            ("reseed", self._reseed),
            ("change_horizon", self._change_horizon),
            ("flip_profile", self._flip_profile),
            ("cycle_ids_family", self._cycle_ids_family),
            ("set_override", self._set_override),
            ("drop_override", self._drop_override),
        )

    # -- sampling -----------------------------------------------------------
    def sample(self, rng: random.Random) -> RunSpec:
        """One fresh spec drawn from the configured distributions."""
        cfg = self.config
        horizon = rng.choice(cfg.horizons_s)
        profile = (
            "undefended" if rng.random() < cfg.p_undefended else "defended"
        )
        overrides = self._sample_overrides(rng)
        plan: List[Tuple[str, float, Optional[float]]] = []
        for _ in range(rng.randint(0, cfg.max_plan_steps)):
            step = self._sample_plan_step(
                rng, horizon, exclude=[name for name, _, _ in plan]
            )
            if step is not None:
                plan.append(step)
        plan = tuple(plan)
        ids_family = None
        if rng.random() < cfg.p_ids_family:
            ids_family = rng.choice(cfg.ids_families)
        spec = RunSpec(
            campaign=_plan_label(plan),
            seed=rng.getrandbits(cfg.seed_bits),
            horizon_s=float(horizon),
            profile=profile,
            plan=plan,
            ids_family=ids_family,
            overrides=tuple(sorted(overrides.items())),
            faults=self._sample_faults(rng, horizon, overrides),
        )
        return spec

    def _sample_plan_step(
        self,
        rng: random.Random,
        horizon: float,
        exclude: Sequence[str] = (),
    ) -> Optional[Tuple[str, float, Optional[float]]]:
        # a plan never repeats a campaign name: compose_run refuses one
        # that does
        choices = [c for c in self.config.campaigns if c not in exclude]
        if not choices:
            return None
        name = rng.choice(choices)
        start = round(rng.uniform(5.0, horizon * 0.5), 1)
        if rng.random() < self.config.p_open_ended_attack:
            duration = None
        else:
            duration = round(rng.uniform(10.0, 40.0), 1)
        return (name, start, duration)

    def _sample_overrides(self, rng: random.Random) -> Dict[str, object]:
        cfg = self.config
        overrides: Dict[str, object] = {}
        for key in rng.sample(
            cfg.override_keys, rng.randint(0, cfg.max_overrides)
        ):
            overrides[key] = self._override_value(rng, key)
        return overrides

    def _override_value(self, rng: random.Random, key: str) -> object:
        if key == "n_workers":
            return rng.randint(1, self.config.max_workers)
        if key == "drone_enabled":
            return rng.random() < 0.5
        if key == "tree_density":
            return round(rng.uniform(0.005, 0.05), 4)
        if key == "weather_initial":
            return rng.choice(_WEATHER_NAMES)
        if key == "worker_approach_rate_per_h":
            return round(rng.uniform(0.5, 6.0), 2)
        if key == "pile_volume_m3":
            return round(rng.uniform(40.0, 200.0), 1)
        raise ValueError(f"no sampler for override key {key!r}")

    def _sample_fault(
        self, rng: random.Random, horizon: float, no_drone: bool
    ) -> FaultSpec:
        kinds = sorted(FAULT_TARGETS)
        while True:
            kind = rng.choice(kinds)
            targets = [
                t for t in FAULT_TARGETS[kind]
                if not (no_drone and t in _DRONE_TARGETS)
            ]
            if targets:
                break
        target = rng.choice(targets)
        start = round(rng.uniform(5.0, horizon * 0.5), 1)
        duration = round(rng.uniform(5.0, 40.0), 1)
        params: Dict[str, object] = {}
        if kind == "packet_corruption":
            params["probability"] = round(rng.uniform(0.05, 0.5), 3)
        elif kind == "radio_brownout":
            params["sag_db"] = round(rng.uniform(3.0, 20.0), 1)
        elif kind == "sensor_bias":
            params["bias_east_m"] = round(rng.uniform(-10.0, 10.0), 1)
            params["bias_north_m"] = round(rng.uniform(-10.0, 10.0), 1)
        elif kind == "clock_drift":
            params["offset_s"] = round(rng.uniform(0.0, 1.0), 3)
            params["rate"] = round(rng.uniform(0.0, 0.005), 5)
        return FaultSpec.make(kind, target, start, duration, params)

    def _sample_faults(
        self, rng: random.Random, horizon: float, overrides: Dict[str, object]
    ) -> Tuple[tuple, ...]:
        cfg = self.config
        no_drone = overrides.get("drone_enabled") is False
        if rng.random() < cfg.p_named_fault_campaign:
            name = rng.choice(sorted(FAULT_CAMPAIGNS))
            start = round(rng.uniform(5.0, horizon * 0.4), 1)
            duration = round(rng.uniform(10.0, 30.0), 1)
            schedule = build_fault_campaign(name, start=start, duration=duration)
            faults = [
                f for f in schedule.faults
                if not (no_drone and f.target in _DRONE_TARGETS)
            ]
            return tuple(f.to_primitives() for f in faults)
        n = rng.randint(0, cfg.max_faults)
        return tuple(
            self._sample_fault(rng, horizon, no_drone).to_primitives()
            for _ in range(n)
        )

    # -- mutation -----------------------------------------------------------
    def mutate(self, rng: random.Random, spec: RunSpec) -> RunSpec:
        """One structural mutation of ``spec``, staying inside the envelope.

        Operators are tried in a per-call shuffled order; the first one
        applicable to this spec wins (e.g. ``drop_fault`` never applies to
        a fault-free spec).  At least ``reseed`` always applies.
        """
        order = list(self._operators)
        rng.shuffle(order)
        for _, operator in order:
            mutated = operator(rng, spec)
            if mutated is not None and mutated != spec:
                return mutated
        return self._reseed(rng, spec)

    # each operator returns the mutated spec, or None when inapplicable
    def _add_plan_step(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if len(spec.plan) >= self.config.max_plan_steps:
            return None
        step = self._sample_plan_step(
            rng, spec.horizon_s,
            exclude=[name for name, _, _ in spec.plan],
        )
        if step is None:
            return None
        return spec_with_plan(spec, spec.plan + (step,))

    def _drop_plan_step(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if not spec.plan:
            return None
        index = rng.randrange(len(spec.plan))
        return spec_with_plan(
            spec, spec.plan[:index] + spec.plan[index + 1:]
        )

    def _retime_plan_step(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if not spec.plan:
            return None
        index = rng.randrange(len(spec.plan))
        name, _, _ = spec.plan[index]
        step = (name,) + self._sample_plan_step(rng, spec.horizon_s)[1:]
        plan = list(spec.plan)
        plan[index] = step
        return spec_with_plan(spec, plan)

    def _swap_campaign(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if not spec.plan:
            return None
        index = rng.randrange(len(spec.plan))
        _, start, duration = spec.plan[index]
        used = {name for name, _, _ in spec.plan}
        choices = [c for c in self.config.campaigns if c not in used]
        if not choices:
            return None
        plan = list(spec.plan)
        plan[index] = (rng.choice(choices), start, duration)
        return spec_with_plan(spec, plan)

    def _add_fault(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if len(spec.faults) >= self.config.max_faults:
            return None
        fault = self._sample_fault(
            rng, spec.horizon_s, drone_disabled(spec)
        )
        return replace(
            spec, faults=spec.faults + (fault.to_primitives(),)
        )

    def _drop_fault(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if not spec.faults:
            return None
        index = rng.randrange(len(spec.faults))
        return replace(
            spec, faults=spec.faults[:index] + spec.faults[index + 1:]
        )

    def _perturb_fault(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if not spec.faults:
            return None
        index = rng.randrange(len(spec.faults))
        fresh = self._sample_fault(
            rng, spec.horizon_s, drone_disabled(spec)
        )
        faults = list(spec.faults)
        faults[index] = fresh.to_primitives()
        return replace(spec, faults=_freeze_faults(faults))

    def _reseed(self, rng, spec: RunSpec) -> RunSpec:
        return replace(spec, seed=rng.getrandbits(self.config.seed_bits))

    def _change_horizon(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        choices = [h for h in self.config.horizons_s if h != spec.horizon_s]
        if not choices:
            return None
        return replace(spec, horizon_s=float(rng.choice(choices)))

    def _flip_profile(self, rng, spec: RunSpec) -> RunSpec:
        flipped = "undefended" if spec.profile == "defended" else "defended"
        return replace(spec, profile=flipped)

    def _cycle_ids_family(self, rng, spec: RunSpec) -> RunSpec:
        choices: List[Optional[str]] = [
            f for f in self.config.ids_families if f != spec.ids_family
        ]
        if spec.ids_family is not None:
            choices.append(None)
        return replace(spec, ids_family=rng.choice(choices))

    def _set_override(self, rng, spec: RunSpec) -> RunSpec:
        key = rng.choice(self.config.override_keys)
        overrides = dict(spec.overrides)
        overrides[key] = self._override_value(rng, key)
        mutated = replace(spec, overrides=tuple(sorted(overrides.items())))
        if overrides.get("drone_enabled") is False:
            # keep the fault timeline valid: no drone targets without a drone
            faults = tuple(
                f for f in mutated.faults if f[1] not in _DRONE_TARGETS
            )
            mutated = replace(mutated, faults=faults)
        return mutated

    def _drop_override(self, rng, spec: RunSpec) -> Optional[RunSpec]:
        if not spec.overrides:
            return None
        index = rng.randrange(len(spec.overrides))
        overrides = list(spec.overrides)
        del overrides[index]
        return replace(spec, overrides=tuple(overrides))
