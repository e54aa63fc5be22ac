"""Declarative run and sweep specifications.

A :class:`RunSpec` describes exactly one worksite run — campaign timeline,
seed, horizon, defence profile, scenario overrides — using only primitive
values, so it pickles across process boundaries and serialises to JSON
byte-identically on every platform.  Its :attr:`RunSpec.key` is a SHA-256
hash of that canonical JSON; the result store caches completed runs under
this key, which is what makes ``--resume`` and delta execution sound: two
specs collide exactly when they describe the same simulation.

A :class:`SweepSpec` is the declarative grid — campaigns × seeds ×
profiles × scenario variants × horizon — that :meth:`SweepSpec.expand`
turns into the concrete list of run specs.  Grids can come from CLI flags
or from a TOML/JSON spec file (:func:`load_sweep_spec`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.canonical import canonical_json
from repro.inputs import InputError, array, integer, load_table, number, table
from repro.sim.rng import derive_seed

#: sentinel campaign name for the benign no-attack baseline
BASELINE = "baseline"

PlanStep = Tuple[str, float, Optional[float]]


def _freeze_plan(plan: Sequence[Sequence]) -> Tuple[PlanStep, ...]:
    steps: List[PlanStep] = []
    for step in plan:
        name, start, duration = step
        steps.append((
            str(name), number(start, "plan start"),
            None if duration is None else number(duration, "plan duration"),
        ))
    return tuple(steps)


def _shaped(value: object, what: str, names: Tuple[str, ...]) -> list:
    """``value`` if it is an array of one item per name in ``names``;
    anything else raises :class:`InputError` naming that shape."""
    if not isinstance(value, list) or len(value) != len(names):
        raise InputError(
            f"{what} must be a [{', '.join(names)}] array, got {value!r}"
        )
    return value


def _freeze_overrides(overrides: Optional[Mapping]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((str(k), v) for k, v in dict(overrides or {}).items()))


def _freeze_faults(faults: Sequence) -> Tuple[tuple, ...]:
    """Freeze ``FaultSpec.to_primitives`` items (lists after a JSON round
    trip) back into hashable nested tuples."""
    frozen = []
    for item in faults or ():
        kind, target, start, duration, params = item
        frozen.append((
            str(kind), str(target), number(start, "fault start"),
            None if duration is None else number(duration, "fault duration"),
            tuple((str(k), v) for k, v in params),
        ))
    return tuple(frozen)


@dataclass(frozen=True)
class RunSpec:
    """One fully determined worksite run, in primitives only.

    ``campaign`` names the run for grouping and display; the executable
    attack timeline is ``plan``.  Use :meth:`single` to build the common
    one-campaign case, where the plan is derived from the name.
    """

    campaign: str = BASELINE
    seed: int = 42
    horizon_s: float = 900.0
    profile: str = "defended"
    plan: Tuple[PlanStep, ...] = ()
    ids_family: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: fault timeline as FaultSpec.to_primitives() tuples (empty = no faults)
    faults: Tuple[tuple, ...] = ()

    def __post_init__(self) -> None:
        # the key's canonical encoding refuses a non-finite number: apply
        # that rule here, where the spec is built
        data = self.to_dict()
        try:
            canonical_json(data)
        except ValueError:
            raise InputError(
                f"run spec has a non-finite number: {data}"
            ) from None

    @classmethod
    def single(
        cls,
        campaign: str,
        *,
        seed: int,
        horizon_s: float,
        profile: str = "defended",
        start: float = 600.0,
        duration: Optional[float] = None,
        ids_family: Optional[str] = None,
        overrides: Optional[Mapping[str, object]] = None,
        faults: Sequence = (),
    ) -> "RunSpec":
        """A run with one campaign (or the baseline when ``campaign`` is
        :data:`BASELINE` / empty)."""
        plan: Tuple[PlanStep, ...] = ()
        if campaign and campaign != BASELINE:
            plan = ((campaign, float(start),
                     None if duration is None else float(duration)),)
        return cls(
            campaign=campaign or BASELINE,
            seed=int(seed),
            horizon_s=float(horizon_s),
            profile=profile,
            plan=plan,
            ids_family=ids_family,
            overrides=_freeze_overrides(overrides),
            faults=_freeze_faults(faults),
        )

    @property
    def key(self) -> str:
        """Stable content hash of the spec (cache / store key)."""
        payload = canonical_json(self.to_dict()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Human-readable one-liner for progress output."""
        parts = [self.campaign, f"seed={self.seed}", self.profile]
        if self.ids_family:
            parts.append(f"ids={self.ids_family}")
        if self.overrides:
            parts.append("+" + ",".join(k for k, _ in self.overrides))
        if self.faults:
            parts.append(f"faults={len(self.faults)}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "profile": self.profile,
            "plan": [list(step) for step in self.plan],
            "ids_family": self.ids_family,
            "overrides": {k: v for k, v in self.overrides},
            "faults": [
                [kind, target, start, duration, [list(p) for p in params]]
                for kind, target, start, duration, params in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """The spec a :meth:`to_dict` mapping describes; raises
        :class:`InputError` for a value that does not convert."""
        if not isinstance(data, Mapping):
            raise InputError("run spec is not an object")
        try:
            fields = dict(
                campaign=str(data.get("campaign", BASELINE)),
                seed=integer(data.get("seed", 42), "seed"),
                horizon_s=number(data.get("horizon_s", 900.0), "horizon_s"),
                profile=str(data.get("profile", "defended")),
                plan=_freeze_plan([
                    _shaped(step, "plan step",
                            ("campaign", "start", "duration"))
                    for step in array(data.get("plan", []), "plan")
                ]),
                ids_family=data.get("ids_family"),
                overrides=_freeze_overrides(data.get("overrides")),
                faults=_freeze_faults([
                    _shaped(item, "fault",
                            ("kind", "target", "start", "duration", "params"))
                    for item in array(data.get("faults", []), "faults")
                ]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"run spec does not convert: {exc}") from None
        return cls(**fields)


def derive_sweep_seeds(base_seed: int, n_seeds: int) -> List[int]:
    """Deterministic per-run seeds from one base seed.

    Uses the same SHA-256 derivation as the simulation's own
    :class:`~repro.sim.rng.RngStreams`, so the mapping is stable across
    Python versions and platforms; seeds are folded to 31 bits to stay
    friendly to every consumer.
    """
    return [
        derive_seed(base_seed, f"sweep-run:{i}") % (2 ** 31)
        for i in range(int(n_seeds))
    ]


@dataclass
class SweepSpec:
    """A declarative grid of runs: campaigns × seeds × profiles × variants.

    ``variants`` are named ScenarioConfig override sets, e.g.
    ``{"no_drone": {"drone_enabled": False}}``; the empty-name default
    variant (no overrides) is used when none are given.
    """

    campaigns: List[str] = field(default_factory=lambda: [BASELINE])
    seeds: List[int] = field(default_factory=list)
    base_seed: int = 42
    n_seeds: int = 1
    horizon_s: float = 900.0
    profiles: List[str] = field(default_factory=lambda: ["defended"])
    attack_start: float = 600.0
    attack_duration: Optional[float] = None
    variants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    ids_families: List[Optional[str]] = field(default_factory=lambda: [None])
    #: named fault campaign applied to every run (None = fault-free sweep)
    fault_campaign: Optional[str] = None
    fault_start: float = 20.0
    fault_duration: float = 30.0

    def resolved_seeds(self) -> List[int]:
        if self.seeds:
            return [int(s) for s in self.seeds]
        return derive_sweep_seeds(self.base_seed, self.n_seeds)

    def resolved_faults(self) -> Tuple[tuple, ...]:
        """The fault timeline primitives every expanded run carries."""
        if not self.fault_campaign:
            return ()
        from repro.faults.campaigns import build_fault_campaign

        schedule = build_fault_campaign(
            self.fault_campaign,
            start=self.fault_start, duration=self.fault_duration,
        )
        return tuple(fault.to_primitives() for fault in schedule.faults)

    def expand(self) -> List[RunSpec]:
        """The concrete run list, in a stable deterministic order."""
        variants = self.variants or {"": {}}
        faults = self.resolved_faults()
        specs: List[RunSpec] = []
        for campaign in self.campaigns:
            for profile in self.profiles:
                for variant_name, overrides in variants.items():
                    for ids_family in self.ids_families:
                        for seed in self.resolved_seeds():
                            spec = RunSpec.single(
                                campaign,
                                seed=seed,
                                horizon_s=self.horizon_s,
                                profile=profile,
                                start=self.attack_start,
                                duration=self.attack_duration,
                                ids_family=ids_family,
                                overrides=overrides,
                                faults=faults,
                            )
                            if variant_name:
                                spec = replace(
                                    spec,
                                    campaign=f"{campaign}/{variant_name}",
                                )
                            specs.append(spec)
        return specs


def load_sweep_spec(path: str) -> SweepSpec:
    """Load a sweep grid from a TOML or JSON spec file.

    Recognised top-level keys mirror :class:`SweepSpec` fields, with
    ``horizon_minutes`` accepted as a convenience alias for ``horizon_s``.
    Variants are given as a table/object of named override sets::

        campaigns = ["rf_jamming", "gnss_spoofing"]
        base_seed = 42
        n_seeds = 3
        horizon_minutes = 20
        profiles = ["defended", "undefended"]

        [variants.no_drone]
        drone_enabled = false
    """
    return load_table(path, sweep_spec_from_mapping)


def sweep_spec_from_mapping(data: Mapping) -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed spec-file mapping."""
    known = {
        "campaigns", "seeds", "base_seed", "n_seeds", "horizon_s",
        "horizon_minutes", "profiles", "attack_start", "attack_duration",
        "variants", "ids_families", "fault_campaign", "fault_start",
        "fault_duration",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise InputError(
            f"unknown sweep spec keys {unknown}; known: {sorted(known)}"
        )
    spec = SweepSpec()
    if "campaigns" in data:
        spec.campaigns = [
            str(c) for c in array(data["campaigns"], "campaigns")
        ]
    if "seeds" in data:
        spec.seeds = [
            integer(s, "seeds") for s in array(data["seeds"], "seeds")
        ]
    if "base_seed" in data:
        spec.base_seed = integer(data["base_seed"], "base_seed")
    if "n_seeds" in data:
        spec.n_seeds = integer(data["n_seeds"], "n_seeds")
    if "horizon_minutes" in data:
        spec.horizon_s = number(data["horizon_minutes"],
                                "horizon_minutes") * 60.0
    if "horizon_s" in data:
        spec.horizon_s = number(data["horizon_s"], "horizon_s")
    if "profiles" in data:
        spec.profiles = [str(p) for p in array(data["profiles"], "profiles")]
    if "attack_start" in data:
        spec.attack_start = number(data["attack_start"], "attack_start")
    if "attack_duration" in data:
        value = data["attack_duration"]
        spec.attack_duration = (
            None if value is None else number(value, "attack_duration")
        )
    if "variants" in data:
        spec.variants = {
            str(name): dict(table(overrides, f"variants.{name}"))
            for name, overrides in table(data["variants"], "variants").items()
        }
    if "ids_families" in data:
        spec.ids_families = [
            None if f in (None, "", "none") else str(f)
            for f in array(data["ids_families"], "ids_families")
        ]
    if "fault_campaign" in data:
        value = data["fault_campaign"]
        spec.fault_campaign = (
            None if value in (None, "", "none") else str(value)
        )
    if "fault_start" in data:
        spec.fault_start = number(data["fault_start"], "fault_start")
    if "fault_duration" in data:
        spec.fault_duration = number(data["fault_duration"], "fault_duration")
    return spec
