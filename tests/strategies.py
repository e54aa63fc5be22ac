"""Shared Hypothesis strategies over the scenario/fault/run-spec domain.

One place defines what "a valid input" means for property tests: fault
specs whose targets resolve on the default worksite, attack plans built
from registered campaign names, and complete :class:`RunSpec` values
inside the same envelope the coverage-guided fuzzer samples from
(:mod:`repro.fuzz.generator` — its ``FAULT_TARGETS`` table is reused
here so the two input models cannot drift apart).

Used by ``tests/faults/test_property.py``, the fuzzer unit/property
tiers, and any future property module that needs scenario inputs.
:func:`assert_valid_spec` is the matching envelope checker — the
assertion side of the same contract the strategies generate against.

The artefact strategies at the end describe what the readers load —
traces, ``status.json``, fuzz corpora, fault schedules, sweep specs and
audit logs — valid, and with one field replaced by a future version or a
value of the wrong type (``tests/property/test_property_readers.py``).
"""

from typing import Optional

from hypothesis import strategies as st

from repro.faults.spec import FAULT_KINDS, FaultSchedule, FaultSpec
from repro.fuzz.generator import FAULT_TARGETS
from repro.groundstation.codec import ALERT_KINDS, COMMANDS, GsMessage
from repro.runner.spec import RunSpec
from repro.scenarios.campaigns import CAMPAIGN_BUILDERS
from repro.scenarios.factory import IDS_FAMILIES, PROFILES
from repro.telemetry.schema import RECORD_TYPES, SCHEMA_VERSION

#: fault targets that live on the drone (invalid when the drone is disabled)
DRONE_TARGETS = ("drone", "cam-drone")

#: scenario seeds kept small so shrunk examples stay readable
seeds = st.integers(min_value=0, max_value=2 ** 16)

#: registered attack campaign names
campaign_names = st.sampled_from(sorted(CAMPAIGN_BUILDERS))

#: defence profiles / IDS detector families accepted by the factory
profiles = st.sampled_from(PROFILES)
ids_families = st.sampled_from(IDS_FAMILIES)

#: bounded timing values (attack/fault starts and durations)
starts = st.floats(min_value=5.0, max_value=60.0,
                   allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=1.0, max_value=40.0,
                      allow_nan=False, allow_infinity=False)


@st.composite
def fault_specs(draw, no_drone: bool = False) -> FaultSpec:
    """One fault whose kind/target/params resolve on the default worksite."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    targets = [
        t for t in FAULT_TARGETS[kind]
        if not (no_drone and t in DRONE_TARGETS)
    ]
    if not targets:  # drone-only kind under no_drone: fall back
        kind = "packet_corruption"
        targets = list(FAULT_TARGETS[kind])
    target = draw(st.sampled_from(targets))
    start = draw(starts)
    duration = draw(durations)
    params = {}
    if kind == "packet_corruption":
        params["probability"] = draw(
            st.floats(min_value=0.05, max_value=0.5)
        )
    if kind == "radio_brownout":
        params["sag_db"] = draw(st.floats(min_value=3.0, max_value=20.0))
    if kind == "sensor_bias":
        params["bias_east_m"] = draw(
            st.floats(min_value=-10.0, max_value=10.0)
        )
        params["bias_north_m"] = draw(
            st.floats(min_value=-10.0, max_value=10.0)
        )
    if kind == "clock_drift":
        params["offset_s"] = draw(st.floats(min_value=0.0, max_value=1.0))
        params["rate"] = draw(st.floats(min_value=0.0, max_value=0.005))
    return FaultSpec.make(kind, target, start, duration, params)


@st.composite
def fault_schedules(draw, min_size: int = 1, max_size: int = 4,
                    no_drone: bool = False) -> FaultSchedule:
    """A bounded fault schedule valid on the default worksite."""
    faults = draw(st.lists(
        fault_specs(no_drone=no_drone),
        min_size=min_size, max_size=max_size,
    ))
    return FaultSchedule(faults=tuple(faults))


@st.composite
def plan_steps(draw):
    """One ``(campaign, start, duration)`` attack-plan step."""
    name = draw(campaign_names)
    start = draw(starts)
    duration = draw(st.one_of(st.none(), durations))
    return (name, start, duration)


#: scenario override values the factory accepts, keyed by override name
_OVERRIDE_VALUES = {
    "n_workers": st.integers(min_value=1, max_value=12),
    "drone_enabled": st.booleans(),
    "tree_density": st.floats(min_value=0.005, max_value=0.05),
    "weather_initial": st.sampled_from(
        ("clear", "overcast", "rain", "heavy_rain", "fog", "snow")
    ),
    "worker_approach_rate_per_h": st.floats(min_value=0.5, max_value=6.0),
    "pile_volume_m3": st.floats(min_value=40.0, max_value=200.0),
}


@st.composite
def scenario_overrides(draw, max_keys: int = 2) -> dict:
    """A consistent subset of the factory's overridable scenario knobs."""
    keys = draw(st.lists(
        st.sampled_from(sorted(_OVERRIDE_VALUES)),
        max_size=max_keys, unique=True,
    ))
    return {key: draw(_OVERRIDE_VALUES[key]) for key in keys}


@st.composite
def run_specs(draw, max_plan_steps: int = 2, max_faults: int = 3) -> RunSpec:
    """A complete valid RunSpec: plan + faults + overrides all consistent.

    The same validity envelope the fuzzer's :class:`ScenarioGenerator`
    samples — in particular, drone-resident fault targets are never drawn
    for a spec that disables the drone.
    """
    overrides = draw(scenario_overrides())
    no_drone = overrides.get("drone_enabled") is False
    # campaign names never repeat within a plan: compose_run refuses a
    # plan that repeats one
    plan = tuple(draw(st.lists(
        plan_steps(), max_size=max_plan_steps,
        unique_by=lambda step: step[0],
    )))
    faults = tuple(
        fault.to_primitives() for fault in draw(st.lists(
            fault_specs(no_drone=no_drone), max_size=max_faults,
        ))
    )
    names = sorted({name for name, _, _ in plan})
    return RunSpec(
        campaign="+".join(names) if names else "baseline",
        seed=draw(seeds),
        horizon_s=float(draw(st.sampled_from((60.0, 90.0, 120.0)))),
        profile=draw(profiles),
        plan=plan,
        ids_family=draw(st.one_of(st.none(), ids_families)),
        overrides=tuple(sorted(overrides.items())),
        faults=faults,
    )


# -- ground-station plane ----------------------------------------------------

#: principal names drawn for ground-station messages
gs_principals = st.sampled_from(("control", "forwarder", "drone", "ops-2"))

#: signed-plane command verbs
gs_commands = st.sampled_from(COMMANDS)

#: JSON-safe payload scalars (the canonical codec forbids NaN/inf)
_gs_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-2 ** 53, max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)

#: HMAC keys for codec round-trip properties
gs_keys = st.binary(min_size=16, max_size=32)


@st.composite
def gs_payloads(draw, max_keys: int = 4) -> dict:
    """A JSON-safe command/alert payload dict."""
    keys = draw(st.lists(st.text(min_size=1, max_size=12),
                         max_size=max_keys, unique=True))
    return {key: draw(_gs_scalars) for key in keys}


@st.composite
def gs_messages(draw) -> GsMessage:
    """Any well-formed ground-station message (command or alert)."""
    kind = draw(st.sampled_from(("command",) + tuple(ALERT_KINDS)))
    vehicle = draw(st.sampled_from(("forwarder", "drone")))
    payload = draw(gs_payloads())
    if kind == "command":
        payload["command"] = draw(gs_commands)
    topic_kind = "cmd" if kind == "command" else "alert"
    return GsMessage.make(
        topic=f"gs/{topic_kind}/{vehicle}",
        sender=draw(gs_principals),
        counter=draw(st.integers(min_value=0, max_value=2 ** 31)),
        t=draw(st.floats(min_value=0.0, max_value=1e6,
                         allow_nan=False, allow_infinity=False)),
        kind=kind,
        payload=payload,
    )


@st.composite
def gs_command_scripts(draw, max_size: int = 6):
    """One operator session: ``(issue_time, command)`` at increasing times."""
    commands = draw(st.lists(gs_commands, min_size=1, max_size=max_size))
    gaps = draw(st.lists(
        st.floats(min_value=0.5, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=len(commands), max_size=len(commands),
    ))
    script, now = [], 1.0
    for command, gap in zip(commands, gaps):
        now += gap
        script.append((round(now, 3), command))
    return script


def assert_valid_spec(spec: RunSpec) -> None:
    """Assert ``spec`` is inside the valid-input envelope defined above.

    Shared by the generator unit tests and the fuzz property tier: every
    sampled, mutated or strategy-drawn spec must pass this before it is
    allowed anywhere near ``compose_run``.
    """
    from repro.fuzz.generator import GeneratorConfig, drone_disabled
    from repro.runner.spec import BASELINE

    cfg = GeneratorConfig()
    assert spec.profile in cfg.profiles
    assert spec.ids_family is None or spec.ids_family in cfg.ids_families
    plan_names = [name for name, _, _ in spec.plan]
    assert len(plan_names) == len(set(plan_names)), \
        "duplicate campaign in plan (endpoint names would collide)"
    names = sorted(set(plan_names))
    assert spec.campaign == ("+".join(names) if names else BASELINE)
    for name, start, duration in spec.plan:
        assert name in CAMPAIGN_BUILDERS
        assert start > 0.0
        assert duration is None or duration > 0.0
    no_drone = drone_disabled(spec)
    for kind, target, start, duration, _params in spec.faults:
        assert target in FAULT_TARGETS[kind]
        assert start > 0.0 and duration > 0.0
        if no_drone:
            assert target not in DRONE_TARGETS
    for key, _value in spec.overrides:
        assert key in cfg.override_keys


# -- artefacts the readers load ----------------------------------------------

#: any JSON document; ``json.dumps`` writes a non-finite float as ``NaN``
#: or ``Infinity``, which every reader must refuse
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def one_field_replaced(draw, artefact: dict,
                       version_key: Optional[str] = None) -> dict:
    """``artefact`` with one top-level field replaced: the version field
    by a future version or any other value, the rest by a JSON value of
    another type."""
    key = draw(st.sampled_from(sorted(artefact)))
    old = artefact[key]
    other_type = json_values.filter(lambda value: type(value) is not type(old))
    if key == version_key:
        other_type = st.integers(old + 1, old + 1000) | other_type
    return {**artefact, key: draw(other_type)}


@st.composite
def one_record_replaced(draw, records: list,
                        version_key: Optional[str] = None) -> list:
    """``records`` with one field of one record replaced (see
    :func:`one_field_replaced`)."""
    index = draw(st.integers(0, len(records) - 1))
    changed = list(records)
    changed[index] = draw(one_field_replaced(records[index], version_key))
    return changed


@st.composite
def trace_records(draw) -> list:
    """A self-describing trace: a header embedding a valid run spec, then
    a few event records."""
    spec = draw(run_specs(max_plan_steps=1, max_faults=1))
    records = [{
        "v": SCHEMA_VERSION, "i": 0, "t": 0.0, "type": "trace.meta",
        "schema": SCHEMA_VERSION, "seed": spec.seed, "spec": spec.to_dict(),
    }]
    for rtype in draw(st.lists(st.sampled_from(sorted(RECORD_TYPES)),
                               max_size=4)):
        index = len(records)
        records.append({"v": SCHEMA_VERSION, "i": index,
                        "t": float(index), "type": rtype})
    return records


@st.composite
def status_snapshots(draw) -> dict:
    """A ``status.json`` payload folded from a finished sweep's events."""
    from repro.runner import SweepMonitor

    monitor = SweepMonitor()
    total = draw(st.integers(0, 4))
    monitor.on_event({"event": "sweep_started", "total": total, "jobs": 1,
                      "t": 0.0})
    for n in range(draw(st.integers(0, total))):
        monitor.on_event({"event": "cell_finished", "key": f"c{n}",
                          "status": "ok", "cached": False, "wall_s": 1.0,
                          "t": float(n + 1)})
    return monitor.snapshot()


@st.composite
def corpus_files(draw) -> dict:
    """A fuzz corpus directory: ``{file name: JSON content}``, with the
    ``corpus.jsonl`` content as its list of entries."""
    from repro.fuzz.corpus import STATE_SCHEMA
    from repro.fuzz.coverage import CoverageMap

    specs = draw(st.lists(run_specs(max_plan_steps=1, max_faults=1),
                          min_size=1, max_size=3))
    coverage = CoverageMap()
    entries = []
    for n, spec in enumerate(specs):
        origin = f"seed:{n}"
        new = coverage.observe([f"drop:cause-{n}"], origin)
        entries.append({"schema": STATE_SCHEMA, "key": spec.key,
                        "origin": origin, "new_signatures": new,
                        "spec": spec.to_dict()})
    state = {
        "schema": STATE_SCHEMA, "seed": draw(seeds),
        "iterations_done": len(specs), "failures": 0, "unshrinkable": 0,
        "seed_signatures": len(coverage),
        "heatmap": {"baseline|none": {"runs": 1, "new_signatures": 1,
                                      "violations": 0, "failures": 0}},
    }
    return {"state.json": state, "coverage.json": coverage.to_dict(),
            "corpus.jsonl": entries}


def fault_schedule_mapping(schedule: FaultSchedule) -> dict:
    """The ``[[fault]]`` table a fault-schedule file holds for ``schedule``."""
    return {
        "jitter_s": schedule.jitter_s,
        "fault": [
            {"kind": fault.kind, "target": fault.target,
             "start": fault.start_s, "duration": fault.duration_s,
             "params": fault.param_dict()}
            for fault in schedule.faults
        ],
    }


@st.composite
def sweep_specs(draw):
    """A sweep grid with every field set (a spec file holds its
    ``dataclasses.asdict``)."""
    from repro.faults.campaigns import FAULT_CAMPAIGNS
    from repro.runner.spec import BASELINE, SweepSpec

    return SweepSpec(
        campaigns=draw(st.lists(campaign_names | st.just(BASELINE),
                                min_size=1, max_size=3)),
        seeds=draw(st.lists(seeds, max_size=3)),
        base_seed=draw(seeds),
        n_seeds=draw(st.integers(1, 3)),
        horizon_s=float(draw(st.sampled_from((60.0, 90.0, 120.0)))),
        profiles=draw(st.lists(profiles, min_size=1, max_size=2)),
        attack_start=draw(starts),
        attack_duration=draw(st.none() | durations),
        variants=draw(st.dictionaries(st.sampled_from(("a", "b")),
                                      scenario_overrides(), max_size=2)),
        ids_families=draw(st.lists(st.none() | ids_families,
                                   min_size=1, max_size=2)),
        fault_campaign=draw(st.none()
                            | st.sampled_from(sorted(FAULT_CAMPAIGNS))),
        fault_start=draw(starts),
        fault_duration=draw(durations),
    )


@st.composite
def audit_lines(draw) -> list:
    """A closed audit log, one dict per line: the header, then entries."""
    from repro.groundstation.audit import AuditLog

    log = AuditLog(draw(seeds))
    for n in range(draw(st.integers(0, 3))):
        log.append(float(n), "gs/cmd/forwarder", draw(gs_principals), n,
                   "command", "ok")
    log.close(4.0)
    return [log.header(), *log.entries]
