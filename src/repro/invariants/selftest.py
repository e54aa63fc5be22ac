"""Mutation-style self-test of the invariant engine.

An oracle that never fires is indistinguishable from one that works, so
the engine is tested the same way a test suite is mutation-tested: take
one known-clean trace, seed it with known violations — a skipped nonce,
an illegal mode jump, a forged delivery — and assert the engine flags
*every* seeded mutation with the correct invariant and sim-time
attribution.  One mutation per registered invariant keeps the registry
honestly covered: adding an invariant without a mutation here fails
``test_selftest_covers_registry``.

The base trace is deterministic (fixed seed, attack + fault campaign for
full record-type coverage), so mutation sites are stable across runs.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Tuple

from repro.invariants.engine import InvariantEngine
from repro.invariants.modes import ALLOWED_TRANSITIONS

#: base-trace recipe: attack + fault campaign, so the trace carries seals,
#: opens, drops, mode transitions, service outages and in-window alerts
BASE_SEED = 11
BASE_HORIZON_S = 90.0

#: |mutated - expected| tolerance on the violation's sim-time attribution
ATTRIBUTION_TOL_S = 1e-6

MutationResult = Tuple[List[dict], float]
Mutator = Callable[[List[dict]], MutationResult]


def build_base_records() -> List[dict]:
    """One clean, fully featured record stream to mutate."""
    from repro.faults.campaigns import build_fault_campaign
    from repro.invariants.oracle import record_run
    from repro.runner.spec import RunSpec

    schedule = build_fault_campaign(
        "crash_brownout", start=15.0, duration=20.0
    )
    faults = tuple(fault.to_primitives() for fault in schedule.faults)
    spec = RunSpec.single(
        "rf_jamming", seed=BASE_SEED, horizon_s=BASE_HORIZON_S,
        start=10.0, duration=20.0, faults=faults,
        overrides={"groundstation_enabled": True},
    )
    return record_run(spec).records


# -- mutation helpers ---------------------------------------------------------
def _renumber(records: List[dict]) -> List[dict]:
    """Restore contiguous record indices after inserts/deletes, so only
    the intended invariant fires."""
    for index, record in enumerate(records):
        record["i"] = index
    return records


def _find(
    records: List[dict], predicate: Callable[[dict], bool],
    what: str, start: int = 0,
) -> int:
    for index in range(start, len(records)):
        if predicate(records[index]):
            return index
    raise AssertionError(
        f"self-test base trace has no mutation site for {what}; "
        f"re-tune the base recipe in repro.invariants.selftest"
    )


# -- the mutations ------------------------------------------------------------
def _skipped_nonce(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: (r.get("type") == "record.seal"
                   and r.get("profile") != "plaintext"
                   and isinstance(r.get("seq"), int) and r["seq"] >= 2),
        "a protected record.seal with seq >= 2",
    )
    records[index]["seq"] += 5
    return records, records[index]["t"]


def _replayed_record(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: (r.get("type") == "record.open"
                   and isinstance(r.get("seq"), int) and r["seq"] >= 2),
        "a record.open with seq >= 2",
    )
    records.insert(index + 1, dict(records[index]))
    return _renumber(records), records[index]["t"]


def _illegal_mode_jump(records: List[dict]) -> MutationResult:
    index = _find(
        records, lambda r: r.get("type") == "mode.transition",
        "a mode.transition",
    )
    prev = records[index]["prev"]
    records[index]["mode"] = next(
        mode for mode in ("recovering", "nominal", "degraded")
        if mode not in ALLOWED_TRANSITIONS[prev]
    )
    return records, records[index]["t"]


def _rto_without_outage(records: List[dict]) -> MutationResult:
    last = records[-1]
    records.append({
        "v": last["v"], "i": len(records), "t": last["t"],
        "type": "mode.transition", "machine": "ghost",
        "mode": "safe_stop", "prev": "nominal",
        "reason": "lidar:rto_exceeded",
    })
    return records, last["t"]


def _forged_delivery(records: List[dict]) -> MutationResult:
    index = _find(
        records, lambda r: r.get("type") == "frame.delivered",
        "a frame.delivered",
    )
    forged = dict(records[index])
    forged["src"] = "ghost"
    records.insert(index + 1, forged)
    return _renumber(records), forged["t"]


def _double_delivery(records: List[dict]) -> MutationResult:
    tx_counts = {}
    for record in records:
        if record.get("type") == "frame.tx":
            key = (record["src"], record["dst"], record["seq"])
            tx_counts[key] = tx_counts.get(key, 0) + 1
    index = _find(
        records,
        lambda r: (r.get("type") == "frame.delivered"
                   and tx_counts.get((r["src"], r["dst"], r["seq"])) == 1),
        "a singly-transmitted frame.delivered",
    )
    records.insert(index + 1, dict(records[index]))
    return _renumber(records), records[index]["t"]


def _unknown_drop_cause(records: List[dict]) -> MutationResult:
    index = _find(
        records, lambda r: r.get("type") == "frame.drop", "a frame.drop",
    )
    records[index]["cause"] = "gremlins"
    return records, records[index]["t"]


def _clock_regression(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: r.get("type") == "frame.tx" and r.get("t", 0.0) > 50.0,
        "a frame.tx past t=50",
    )
    records[index]["t"] = round(records[index]["t"] - 50.0, 6)
    return records, records[index]["t"]


def _dropped_record(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: r.get("type") in ("mission.phase", "safety.intervention"),
        "an untracked record type to excise",
        start=2,
    )
    del records[index]
    # indices NOT renumbered: the gap is the point
    return records, records[index]["t"]


def _orphan_alert(records: List[dict]) -> MutationResult:
    # before the first attack window (t=0 keeps the clock monotone)
    records.insert(1, {
        "v": records[0]["v"], "i": 1, "t": 0.0, "type": "ids.alert",
        "detector": "sig", "alert_type": "jamming_suspected",
        "confidence": 0.9, "in_window": True, "latency_s": 1.0,
        "window": "rf_jamming",
    })
    return _renumber(records), 0.0


# -- mutations discovered through fuzzer shrink output ------------------------
# These three came out of delta-debugging seeded failures with
# ``repro.fuzz.shrink``: each is the minimal record-stream edit the
# shrinker converged on for its invariant.  They are shared with
# :mod:`repro.fuzz.selftest`, which re-injects them through the fuzzer's
# evaluator and proves shrinking a failing spec preserves the triggering
# invariant end-to-end.

def _nonce_regression(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: (r.get("type") == "record.seal"
                   and r.get("profile") != "plaintext"
                   and isinstance(r.get("seq"), int) and r["seq"] >= 3),
        "a protected record.seal with seq >= 3",
    )
    # seq-1 was the previous seal on this direction: an exact re-seal of
    # an already-used nonce, the sharpest form of reuse
    records[index]["seq"] -= 1
    return records, records[index]["t"]


def _broken_mode_chain(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: (r.get("type") == "mode.transition"
                   and r.get("prev") != "recovering"),
        "a mode.transition whose prev is not 'recovering'",
    )
    # the claimed prev no longer chains onto the machine's observed mode
    records[index]["prev"] = "recovering"
    return records, records[index]["t"]


def _unclosed_span(records: List[dict]) -> MutationResult:
    # a span.start with the correct deterministic id (so only the
    # balance check fires) that no span.end ever closes
    from repro.telemetry.spans import run_prefix, span_id

    last = records[-1]
    records.append({
        "v": last["v"], "si": 0, "t": last["t"], "type": "span.start",
        "span": span_id(run_prefix(BASE_SEED), 0),
        "kind": "fault", "name": "ghost-window",
    })
    return records, last["t"]


def _overlapping_span(records: List[dict]) -> MutationResult:
    # parent closes while its child is still open: the one ordering the
    # strict-nesting rule forbids (ids and si stay consistent so only
    # the nesting check fires)
    from repro.telemetry.spans import run_prefix, span_id

    last = records[-1]
    t = last["t"]
    prefix = run_prefix(BASE_SEED)
    parent, child = span_id(prefix, 0), span_id(prefix, 1)
    records.extend([
        {"v": last["v"], "si": 0, "t": t, "type": "span.start",
         "span": parent, "kind": "attack", "name": "outer"},
        {"v": last["v"], "si": 1, "t": t, "type": "span.start",
         "span": child, "parent": parent, "kind": "frame", "name": "inner"},
        {"v": last["v"], "si": 2, "t": t, "type": "span.end",
         "span": parent, "kind": "attack", "dur_s": 0.0},
        {"v": last["v"], "si": 3, "t": t, "type": "span.end",
         "span": child, "kind": "frame", "dur_s": 0.0},
    ])
    return records, t


def _latency_mismatch(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: (r.get("type") == "ids.alert" and r.get("in_window")
                   and r.get("latency_s") is not None),
        "an in-window ids.alert with a latency",
    )
    records[index]["latency_s"] = round(records[index]["latency_s"] + 7.0, 6)
    return records, records[index]["t"]


def _broken_audit_chain(records: List[dict]) -> MutationResult:
    index = _find(
        records,
        lambda r: (r.get("type") == "gs.audit"
                   and isinstance(r.get("seq"), int) and r["seq"] >= 1),
        "a gs.audit record with seq >= 1",
    )
    # the entry no longer chains onto its predecessor's hash
    records[index]["prev"] = "0" * 64
    return records, records[index]["t"]


def _replayed_command_executed(records: List[dict]) -> MutationResult:
    first = _find(
        records,
        lambda r: (r.get("type") == "gs.command"
                   and r.get("verdict") == "executed"),
        "an executed gs.command",
    )
    second = _find(
        records,
        lambda r: (r.get("type") == "gs.command"
                   and r.get("verdict") == "executed"
                   and r.get("vehicle") == records[first]["vehicle"]
                   and r.get("sender") == records[first]["sender"]),
        "a second executed gs.command from the same sender",
        start=first + 1,
    )
    # the replay window somehow let an old counter execute again
    records[second]["counter"] = records[first]["counter"]
    return records, records[second]["t"]


#: (name, expected invariant, mutator) — at least one per registered invariant
MUTATIONS: List[Tuple[str, str, Mutator]] = [
    ("skipped_nonce", "crypto.nonce_sequence", _skipped_nonce),
    ("replayed_record", "crypto.replay_window", _replayed_record),
    ("illegal_mode_jump", "modes.transition_legality", _illegal_mode_jump),
    ("rto_without_outage", "modes.rto_ordering", _rto_without_outage),
    ("forged_delivery", "frames.causality", _forged_delivery),
    ("double_delivery", "frames.causality", _double_delivery),
    ("unknown_drop_cause", "frames.drop_taxonomy", _unknown_drop_cause),
    ("clock_regression", "clock.monotonic", _clock_regression),
    ("dropped_record", "clock.record_index", _dropped_record),
    ("orphan_alert", "ids.alert_attribution", _orphan_alert),
    ("nonce_regression", "crypto.nonce_sequence", _nonce_regression),
    ("broken_mode_chain", "modes.transition_legality", _broken_mode_chain),
    ("latency_mismatch", "ids.alert_attribution", _latency_mismatch),
    ("unclosed_span", "telemetry.spans", _unclosed_span),
    ("overlapping_span", "telemetry.spans", _overlapping_span),
    ("broken_audit_chain", "gs.audit_chain", _broken_audit_chain),
    ("replayed_command_executed", "gs.command_causality",
     _replayed_command_executed),
]


def run_selftest(records: Optional[List[dict]] = None) -> dict:
    """Seed every known violation; assert the engine flags each one.

    Returns a JSON-serialisable report.  ``ok`` requires the base trace
    to be clean *and* every mutation to be detected by its expected
    invariant at the mutated record's sim time.
    """
    base = records if records is not None else build_base_records()
    baseline = InvariantEngine()
    baseline.check(base)
    results = []
    for name, expected, mutate in MUTATIONS:
        mutated, expected_t = mutate(copy.deepcopy(base))
        engine = InvariantEngine()
        engine.check(mutated)
        hits = [v for v in engine.violations if v.invariant == expected]
        attributed = [
            v for v in hits if abs(v.t - expected_t) <= ATTRIBUTION_TOL_S
        ]
        results.append({
            "mutation": name,
            "expected_invariant": expected,
            "expected_t": expected_t,
            "detected": bool(hits),
            "attributed": bool(attributed),
            "violations": len(engine.violations),
            "flagged": sorted({v.invariant for v in engine.violations}),
        })
    detected = sum(1 for r in results if r["detected"] and r["attributed"])
    return {
        "schema": 1,
        "base_records": len(base),
        "base_violations": len(baseline.violations),
        "mutations": len(results),
        "detected": detected,
        "results": results,
        "ok": not baseline.violations and detected == len(results),
    }
