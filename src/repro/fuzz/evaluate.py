"""The one-spec evaluator: compose, run, trace, check, extract coverage.

This is the fuzzer's measurement instrument and its oracle in one pass.
A spec is recorded by :func:`~repro.invariants.oracle.record_run`, the
same in-memory recording ``repro-worksite check`` replays (the trace
header embeds the spec, so every persisted repro is self-describing and
replayable by ``check``), and the record stream is then:

* folded into behavioural coverage signatures
  (:func:`repro.fuzz.coverage.signatures_from_records`);
* swept by the full :class:`~repro.invariants.engine.InvariantEngine`
  registry — any violation is a **failure**;
* hashed into a canonical trace digest that pins the exact bytes a
  repro reproduces.

A spec also fails when composition/execution raises, or when the kernel
deadlocks short of the horizon.  ``failure_id`` names the failure class;
the shrinker only accepts reductions that preserve it.

The optional ``mutator`` hook rewrites the record stream *before* the
invariant sweep.  It exists for the self-test tier
(:mod:`repro.fuzz.selftest`): seeded stream-level violations let the
shrink path be proven against known failures on a system whose real runs
are invariant-clean.
"""

from __future__ import annotations

import hashlib
import traceback
from typing import Callable, List, Optional

from repro.canonical import canonical_json
from repro.invariants.engine import InvariantEngine
from repro.invariants.oracle import record_run
from repro.fuzz.coverage import signatures_from_records
from repro.runner.spec import RunSpec

Mutator = Callable[[List[dict]], object]


def trace_digest(records: List[dict]) -> str:
    """SHA-256 over the canonical JSONL encoding of a record stream."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(canonical_json(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _run_records(spec: RunSpec) -> List[dict]:
    """Execute ``spec`` and return its full in-memory record stream."""
    tracer = record_run(spec)
    if tracer.sim.now < spec.horizon_s:
        raise RuntimeError(
            f"kernel deadlock: clock stopped at "
            f"t={tracer.sim.now} before horizon {spec.horizon_s}"
        )
    return tracer.records


def evaluate_spec(spec: RunSpec, *, mutator: Optional[Mutator] = None) -> dict:
    """Evaluate one spec; never raises (failures become the result).

    The returned dict is JSON-serialisable and a pure function of the
    spec (plus the mutator, when given).
    """
    result = {
        "key": spec.key,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "records": 0,
        "digest": None,
        "signatures": [],
        "invariants": None,
        "violated": [],
        "failure": None,
    }
    try:
        records = _run_records(spec)
        if mutator is not None:
            mutated = mutator(records)
            if mutated is not None:
                records = list(mutated)
    except Exception as exc:  # noqa: BLE001 - the result carries the details
        result["status"] = "error"
        result["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        result["failure"] = {
            "kind": "exception",
            "detail": type(exc).__name__,
            "message": result["error"],
        }
        return result
    engine = InvariantEngine()
    engine.check(records)
    result["records"] = len(records)
    result["digest"] = trace_digest(records)
    result["signatures"] = signatures_from_records(records)
    result["invariants"] = engine.summary()
    result["violated"] = sorted(engine.by_invariant())
    if engine.violations:
        result["failure"] = {
            "kind": "invariant",
            "detail": ",".join(result["violated"]),
            "violations": len(engine.violations),
        }
    return result


def failure_id(result: dict) -> Optional[str]:
    """The stable failure-class identifier of an evaluation, if it failed.

    Shrinking preserves this exactly: a candidate reduction is only
    accepted while its evaluation fails with the same identifier.
    """
    failure = result.get("failure")
    if not failure:
        return None
    return f"{failure['kind']}:{failure['detail']}"
