"""Mutation-style self-test of the audit-chain verifier.

Same philosophy as :mod:`repro.invariants.selftest`: a checker you have
never seen catch anything is untested safety equipment.  This module
builds a known-good audit chain, applies each tamper mutation from the
catalogue — the edits a real adversary (or a flaky disk) would make — and
asserts the verifier not only rejects the log but localises the damage to
the exact entry and check.

Run it via ``repro-worksite audit verify --selftest``; the adversarial
test tier pins every mutation individually.
"""

from __future__ import annotations

import json
from typing import Callable, List, Tuple

from repro.groundstation.audit import (
    AuditLog,
    entry_hash,
    entry_sig,
    genesis_hash,
    station_key,
    verify_chain,
)

#: seed the sample chain (and its genesis and keys) derives from
SAMPLE_SEED = 1307

#: a different seed, for wrong-key and splice material
OTHER_SEED = 2046

#: index the mutations target (mid-chain, so localisation is non-trivial)
TARGET = 5

#: entries in the sample chain before its close entry
SAMPLE_ENTRIES = 12


def build_sample_log(seed: int = SAMPLE_SEED) -> AuditLog:
    """A deterministic, closed, known-good chain of
    :data:`SAMPLE_ENTRIES` + close entries."""
    log = AuditLog(seed)
    for i in range(SAMPLE_ENTRIES):
        sender = "control" if i % 3 == 0 else "forwarder"
        topic = "gs/cmd/forwarder" if sender == "control" else "gs/alert/forwarder"
        kind = "command" if sender == "control" else "status"
        log.append(
            t=float(i), topic=topic, sender=sender, counter=i // 3 if
            sender == "control" else i, kind=kind, verdict="ok",
            wire=f"wire-{i}".encode(),
        )
    log.close(float(SAMPLE_ENTRIES))
    return log


def _entries(log: AuditLog) -> List[dict]:
    return [json.loads(json.dumps(e)) for e in log.entries]


def _rechain(entries: List[dict], seed: int, start: int, *, key: bytes) -> None:
    """Recompute hashes/prev/sigs from ``start`` on (the insider's move)."""
    prev = genesis_hash(seed) if start == 0 else entries[start - 1]["hash"]
    for entry in entries[start:]:
        entry["prev"] = prev
        entry.pop("hash", None)
        entry.pop("sig", None)
        entry["hash"] = entry_hash(entry)
        entry["sig"] = entry_sig(entry["hash"], key)
        prev = entry["hash"]


# -- the tamper catalogue ----------------------------------------------------
def _bit_flip_payload(entries: List[dict]) -> None:
    """Flip the message digest of one entry, no recompute (naive edit)."""
    digest = entries[TARGET]["digest"]
    entries[TARGET]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]


def _drop_link(entries: List[dict]) -> None:
    """Remove one mid-chain entry entirely."""
    del entries[TARGET]


def _reorder(entries: List[dict]) -> None:
    """Swap two adjacent entries."""
    entries[TARGET], entries[TARGET + 1] = entries[TARGET + 1], entries[TARGET]


def _truncate_tail(entries: List[dict]) -> None:
    """Drop the tail including the close entry."""
    del entries[-3:]


def _resign_wrong_key(entries: List[dict]) -> None:
    """Edit, then recompute the whole chain — but sign with the wrong key."""
    entries[TARGET]["verdict"] = "ok" if entries[TARGET]["verdict"] != "ok" else "replay"
    _rechain(entries, SAMPLE_SEED, TARGET, key=station_key(OTHER_SEED))


def _splice(entries: List[dict]) -> None:
    """Graft the tail of a different run's chain onto this one's prefix."""
    other = _entries(build_sample_log(OTHER_SEED))
    entries[TARGET:] = other[TARGET:]


def _counter_rollback(entries: List[dict]) -> None:
    """Insider edit: roll a counter back and re-sign with the real key."""
    victim = entries[TARGET]
    victim["counter"] = 0
    victim["verdict"] = "ok"
    _rechain(entries, SAMPLE_SEED, TARGET, key=station_key(SAMPLE_SEED))


def _duplicate_entry(entries: List[dict]) -> None:
    """Insert a verbatim copy of one entry right after itself."""
    entries.insert(TARGET + 1, dict(entries[TARGET]))


def _time_rollback(entries: List[dict]) -> None:
    """Insider edit: rewrite one timestamp into the past, re-sign properly."""
    entries[TARGET]["t"] = entries[TARGET - 1]["t"] - 1.0
    _rechain(entries, SAMPLE_SEED, TARGET, key=station_key(SAMPLE_SEED))


#: (name, mutator, expected check, expected violation index)
MUTATIONS: List[Tuple[str, Callable[[List[dict]], None], str, int]] = [
    ("bit_flip_payload", _bit_flip_payload, "hash", TARGET),
    ("drop_link", _drop_link, "sequence", TARGET),
    ("reorder", _reorder, "sequence", TARGET),
    ("truncate_tail", _truncate_tail, "close", 9),
    ("resign_wrong_key", _resign_wrong_key, "sig", TARGET),
    ("splice", _splice, "chain", TARGET),
    ("counter_rollback", _counter_rollback, "counter", TARGET),
    ("duplicate_entry", _duplicate_entry, "sequence", TARGET + 1),
    ("time_rollback", _time_rollback, "time", TARGET),
]


def run_audit_selftest() -> dict:
    """Apply every mutation; each must be caught *and* localised.

    Returns ``{"ok", "mutations", "detected", "results": [...]}`` with one
    result row per mutation (mirrors the invariant selftest shape).
    """
    baseline = verify_chain(_entries(build_sample_log()), SAMPLE_SEED)
    results: List[dict] = []
    if not (baseline["ok"] and baseline["complete"]):
        results.append({
            "mutation": "<baseline>", "ok": False,
            "message": "known-good chain failed verification",
        })
    for name, mutate, expected_check, expected_index in MUTATIONS:
        entries = _entries(build_sample_log())
        mutate(entries)
        report = verify_chain(entries, SAMPLE_SEED)
        first = report["violations"][0] if report["violations"] else None
        detected = not report["ok"]
        localised = (
            first is not None
            and first["check"] == expected_check
            and first["index"] == expected_index
        )
        results.append({
            "mutation": name,
            "ok": detected and localised,
            "detected": detected,
            "expected": {"check": expected_check, "index": expected_index},
            "first_violation": first,
        })
    detected = sum(1 for r in results if r.get("ok"))
    return {
        "ok": all(r.get("ok") for r in results) and bool(results),
        "mutations": len(MUTATIONS),
        "detected": detected,
        "results": results,
    }
