"""Differential replay oracle: re-execute a recorded trace and diff it.

A trace recorded with its :class:`~repro.runner.spec.RunSpec` embedded in
the ``trace.meta`` header is *self-describing*: the oracle re-runs the
spec through :func:`record_run` — the one in-memory recording, shared
with the fuzz evaluator and the invariant selftest — and compares the
fresh record stream against the file record by record (canonical JSON,
so "equal" means byte-equal on disk).  Any divergence — a changed field,
a missing record, extra records — is reported with the index where the
histories split.

:func:`check_trace` is the CLI entry point (``repro-worksite check``):
it folds the offline invariant sweep and the differential replay into
one structured, JSON-serialisable violation report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.canonical import canonical_json
from repro.inputs import InputError
from repro.invariants.engine import InvariantEngine
from repro.telemetry.spans import has_spans
from repro.telemetry.tracer import Tracer
from repro.telemetry.writer import read_trace

if TYPE_CHECKING:
    from repro.runner.spec import RunSpec

#: report schema version (bumped when the report shape changes)
REPORT_SCHEMA = 1

#: how many record-level divergences a replay diff carries in full
DIVERGENCE_CAP = 5

#: how many violation dicts a report carries in full
VIOLATION_CAP = 100


def spec_from_meta(records: List[dict]) -> Optional[dict]:
    """The embedded RunSpec dict, if the trace header carries one."""
    if not records:
        return None
    meta = records[0]
    if meta.get("type") != "trace.meta":
        return None
    spec = meta.get("spec")
    return dict(spec) if isinstance(spec, Mapping) else None


def record_run(
    spec: "RunSpec", header: Optional[Mapping] = None, *, spans: bool = False,
) -> Tracer:
    """Run ``spec`` under an in-memory tracer and return the tracer.

    The tracer keeps every record (``tracer.records``).  ``header`` is the
    ``trace.meta`` payload; by default the seed, profile, horizon,
    campaign and the spec itself, so the stream is self-describing.
    ``spans`` arms the causal span layer.
    """
    # imported lazily: an offline `check --no-replay` never needs the
    # composition stack
    from repro.scenarios.factory import compose_spec

    if header is None:
        header = {
            "seed": spec.seed, "profile": spec.profile,
            "horizon_s": spec.horizon_s, "campaign": spec.campaign,
            "spec": spec.to_dict(),
        }
    prepared = compose_spec(spec)
    tracer = Tracer(prepared.scenario.sim, keep_records=True, spans=spans)
    tracer.meta(**header)
    prepared.run(tracer)
    return tracer


def replay_records(records: List[dict]) -> List[dict]:
    """Re-execute the run described by the trace header, in memory.

    Reconstructs the scenario from the embedded spec, re-emits the header
    verbatim (minus the tracer-stamped ``v``/``i``/``t``/``type`` fields,
    which the fresh tracer stamps itself), and runs to the recorded
    horizon.  Raises :class:`ValueError` when the trace is not
    self-describing.
    """
    from repro.runner.spec import RunSpec

    spec_dict = spec_from_meta(records)
    if spec_dict is None:
        raise ValueError(
            "trace is not self-describing: no RunSpec embedded in "
            "trace.meta (record it with a current `repro-worksite trace`)"
        )
    header = {
        key: value for key, value in records[0].items()
        if key not in ("v", "i", "t", "type", "schema")
    }
    # a span-augmented trace must replay with the span layer armed (and
    # closed at the horizon), or the diff would flag every span line
    return record_run(
        RunSpec.from_dict(spec_dict), header, spans=has_spans(records)
    ).records


def diff_records(recorded: List[dict], replayed: List[dict]) -> dict:
    """Record-by-record canonical-JSON diff of two record streams."""
    divergences: List[dict] = []
    total = 0
    for index in range(max(len(recorded), len(replayed))):
        old = recorded[index] if index < len(recorded) else None
        new = replayed[index] if index < len(replayed) else None
        old_line = canonical_json(old) if old is not None else None
        new_line = canonical_json(new) if new is not None else None
        if old_line == new_line:
            continue
        total += 1
        if len(divergences) < DIVERGENCE_CAP:
            divergences.append({
                "i": index,
                "recorded": old_line,
                "replayed": new_line,
            })
    return {
        "recorded": len(recorded),
        "replayed": len(replayed),
        "divergences": total,
        "first_divergences": divergences,
        "ok": total == 0,
    }


def check_trace(path, *, replay: bool = True) -> dict:
    """Full oracle pass over a trace file: invariants, then replay diff.

    Returns the violation report (see ``docs/testing.md`` for the shape);
    ``report["ok"]`` is the overall verdict.  A file with no records, a
    header whose ``spec`` is not an object, and a spec the replay refuses
    raise :class:`InputError` naming the file.
    """
    records = read_trace(path)
    if not records:
        raise InputError(f"{path}: trace has no records")
    if records[0].get("type") == "trace.meta" and not isinstance(
            records[0].get("spec", {}), Mapping):
        raise InputError(f"{path}: the trace.meta spec is not an object")
    engine = InvariantEngine()
    engine.check(records)
    violations = [v.to_dict() for v in engine.violations]
    report = {
        "schema": REPORT_SCHEMA,
        "trace": str(path),
        "records": len(records),
        "invariants": {
            "checked": len(engine.invariants),
            "violations": len(violations),
            "by_invariant": engine.by_invariant(),
            "details": violations[:VIOLATION_CAP],
        },
    }
    if len(violations) > VIOLATION_CAP:
        report["invariants"]["truncated"] = len(violations) - VIOLATION_CAP
    if replay:
        if spec_from_meta(records) is None:
            report["replay"] = {
                "performed": False,
                "reason": "no RunSpec embedded in trace.meta",
                "ok": True,
            }
        else:
            try:
                fresh = replay_records(records)
            except InputError as exc:
                raise InputError(f"{path}: trace.meta spec: {exc}") from None
            diff = diff_records(records, fresh)
            diff["performed"] = True
            report["replay"] = diff
    else:
        report["replay"] = {
            "performed": False, "reason": "disabled", "ok": True,
        }
    report["ok"] = engine.ok and report["replay"]["ok"]
    return report


def write_report(report: Mapping, path) -> str:
    """Write a violation report as stable, human-diffable JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    return str(target)
