"""Injected-violation self-test of the shrink path.

The production system is invariant-clean by construction, so the shrink
guarantee — a minimal repro fails for the *same reason* as the spec it
came from — cannot be exercised on real failures.  This module closes
the loop the same way :mod:`repro.invariants.selftest` does for the
engine: it takes the three stream-level mutations that were discovered
through fuzzer shrink output (``nonce_regression``,
``broken_mode_chain``, ``latency_mismatch``), injects each into a
deliberately *bloated* spec via the evaluator's mutator hook, and runs
the real shrinker over it.

Each case must

* fail its expected invariant on the bloated spec,
* shrink to a strictly smaller spec, and
* still fail with the identical failure identifier after shrinking.

The shrinker cannot see the mutation — it only sees the failure id — so
a reduction that removes the mutation's record-stream site (e.g. drops
the attack that produced the in-window alert ``latency_mismatch``
rewrites) makes the mutator raise, the candidate's failure id change,
and the candidate be rejected.  That the surviving minimal spec still
carries exactly the behaviour the invariant needs is the property this
self-test proves, and what ``repro-worksite fuzz --selftest`` reports.
"""

from __future__ import annotations

from typing import Callable, List

from repro.fuzz.evaluate import Mutator, evaluate_spec, failure_id
from repro.fuzz.shrink import shrink_spec, spec_size
from repro.invariants.selftest import BASE_SEED, MUTATIONS
from repro.runner.spec import RunSpec

#: the invariants/selftest mutations exercised end-to-end through shrink
INJECTED_NAMES = ("nonce_regression", "broken_mode_chain", "latency_mismatch")

#: per-case shrink evaluation budget (each eval is a full simulated run)
SELFTEST_MAX_EVALS = 60


def mutator_for(name: str) -> Mutator:
    """The named selftest mutation, adapted to the evaluator's hook.

    Drops the expected-time half of the selftest contract: the evaluator
    only needs the mutated stream.  The underlying mutation raises when
    its mutation site is gone — under shrink that converts a candidate's
    failure id and rejects it, which is exactly the guarantee under test.
    """
    mutate = next(m for n, _, m in MUTATIONS if n == name)

    def apply(records: List[dict]) -> List[dict]:
        mutated, _ = mutate(records)
        return mutated

    return apply


def expected_invariant(name: str) -> str:
    return next(e for n, e, _ in MUTATIONS if n == name)


def bloated_spec() -> RunSpec:
    """A spec with every kind of removable weight the shrinker handles.

    Two attack steps, the crash/brownout fault campaign plus one stray
    fault, scenario overrides and an explicit IDS family — all on top of
    the invariants-selftest base recipe, so every mutation site (seals,
    mode transitions, in-window alerts) exists before shrinking.
    """
    from repro.faults.campaigns import build_fault_campaign
    from repro.faults.spec import FaultSpec

    schedule = build_fault_campaign("crash_brownout", start=15.0, duration=20.0)
    faults = tuple(fault.to_primitives() for fault in schedule.faults)
    extra = FaultSpec.make(
        "packet_corruption", "medium", 30.0, 10.0, {"probability": 0.1}
    ).to_primitives()
    return RunSpec(
        campaign="gnss_spoofing+rf_jamming",
        seed=BASE_SEED,
        horizon_s=90.0,
        profile="defended",
        plan=(("rf_jamming", 10.0, 20.0), ("gnss_spoofing", 40.0, 15.0)),
        ids_family="signature",
        overrides=(("n_workers", 4), ("tree_density", 0.02)),
        faults=faults + (extra,),
    )


def run_shrink_selftest(log: Callable[[str], None] = lambda message: None) -> dict:
    """Shrink every injected-violation spec; assert the failure survives."""
    cases = []
    for name in INJECTED_NAMES:
        expected = expected_invariant(name)
        mutator = mutator_for(name)
        spec = bloated_spec()
        original = evaluate_spec(spec, mutator=mutator)
        target = failure_id(original)
        log(f"{name}: injected failure {target}; shrinking")
        shrunk = shrink_spec(
            spec, original, mutator=mutator, max_evals=SELFTEST_MAX_EVALS
        )
        result = shrunk["result"]
        preserved = (
            (original.get("failure") or {}).get("kind") == "invariant"
            and expected in original.get("violated", [])
            and expected in result.get("violated", [])
            and failure_id(result) == target
        )
        reduced = spec_size(shrunk["spec"]) < spec_size(spec)
        log(
            f"{name}: {spec.key} (size {spec_size(spec)}) -> "
            f"{shrunk['spec'].key} (size {spec_size(shrunk['spec'])}) "
            f"in {shrunk['steps']} step(s); preserved={preserved}"
        )
        cases.append({
            "name": name,
            "expected_invariant": expected,
            "failure": target,
            "original": {"key": spec.key, "size": spec_size(spec)},
            "shrunk": {
                "key": shrunk["spec"].key,
                "size": spec_size(shrunk["spec"]),
                "spec": shrunk["spec"].to_dict(),
                "violated": result.get("violated", []),
            },
            "steps": shrunk["steps"],
            "evals": shrunk["evals"],
            "preserved": preserved,
            "reduced": reduced,
        })
    return {
        "schema": 1,
        "cases": cases,
        "ok": all(c["preserved"] and c["reduced"] for c in cases),
    }
