"""Delta-debug a failing spec down to a minimal repro.

The shrinker is a deterministic greedy reducer: it applies a fixed
sequence of structural passes (drop plan steps, drop faults, drop
overrides, clear the IDS family, shorten the horizon, then snap attack
and fault timings to coarse values) and accepts a candidate only when
its evaluation still fails with the *same* failure identifier
(:func:`repro.fuzz.evaluate.failure_id`) as the original.  Passes repeat
until a full sweep accepts nothing, or the evaluation budget runs out.

Because acceptance is keyed on the failure identifier — the violated
invariant set for invariant failures, the exception type for crashes —
the minimal repro is guaranteed to fail *for the same reason* as the
spec it came from.  That guarantee is what makes a shrunk repro a
machine-checkable assurance artifact rather than merely a smaller run,
and it is exercised end-to-end by :mod:`repro.fuzz.selftest`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

from repro.fuzz.evaluate import Mutator, evaluate_spec, failure_id
from repro.fuzz.generator import spec_with_plan
from repro.runner.spec import RunSpec

#: default cap on evaluations one shrink may spend
DEFAULT_MAX_EVALS = 120

#: horizons tried (ascending) when shortening a repro's run
_HORIZON_LADDER = (30.0, 45.0, 60.0, 90.0)

#: timing quantum attack/fault starts and durations are snapped to
_TIME_QUANTUM_S = 5.0


def spec_size(spec: RunSpec) -> float:
    """Scalar complexity of a spec; shrinking never increases it.

    Structure dominates (plan steps, faults, overrides, an explicit IDS
    family), the horizon breaks ties, and non-quantized timings add a
    small penalty so the timing-snap pass counts as progress.
    """
    size = (
        10.0 * len(spec.plan)
        + 10.0 * len(spec.faults)
        + 4.0 * len(spec.overrides)
        + (2.0 if spec.ids_family is not None else 0.0)
        + spec.horizon_s / 100.0
    )
    for _, start, duration in spec.plan:
        size += _quantum_penalty(start) + _quantum_penalty(duration)
    for fault in spec.faults:
        size += _quantum_penalty(fault[2]) + _quantum_penalty(fault[3])
    return round(size, 6)


def _quantum_penalty(value: Optional[float]) -> float:
    if value is None:
        return 0.0
    return 0.0 if float(value) % _TIME_QUANTUM_S == 0.0 else 0.5


def _snap(value: Optional[float]) -> Optional[float]:
    """``value`` snapped to the timing quantum (never below one quantum)."""
    if value is None:
        return None
    snapped = round(float(value) / _TIME_QUANTUM_S) * _TIME_QUANTUM_S
    return max(_TIME_QUANTUM_S, snapped)


def _candidates(spec: RunSpec) -> Iterator[RunSpec]:
    """All one-step reductions of ``spec``, in fixed deterministic order."""
    for index in range(len(spec.plan)):
        yield spec_with_plan(
            spec, spec.plan[:index] + spec.plan[index + 1:]
        )
    for index in range(len(spec.faults)):
        yield replace(
            spec, faults=spec.faults[:index] + spec.faults[index + 1:]
        )
    for index in range(len(spec.overrides)):
        yield replace(
            spec,
            overrides=spec.overrides[:index] + spec.overrides[index + 1:],
        )
    if spec.ids_family is not None:
        yield replace(spec, ids_family=None)
    for horizon in _HORIZON_LADDER:
        if horizon < spec.horizon_s:
            yield replace(spec, horizon_s=horizon)
    snapped_plan = tuple(
        (name, _snap(start), _snap(duration))
        for name, start, duration in spec.plan
    )
    if snapped_plan != spec.plan:
        yield spec_with_plan(spec, snapped_plan)
    snapped_faults = tuple(
        (kind, target, _snap(start), _snap(duration), params)
        for kind, target, start, duration, params in spec.faults
    )
    if snapped_faults != spec.faults:
        yield replace(spec, faults=snapped_faults)


def shrink_spec(
    spec: RunSpec,
    result: Optional[dict] = None,
    *,
    mutator: Optional[Mutator] = None,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> dict:
    """Reduce a failing ``spec`` while preserving its failure identifier.

    ``result`` is the spec's prior evaluation, if the caller already has
    it (saves one evaluation).  Returns a dict with the shrunk ``spec``,
    its evaluation ``result``, the preserved ``failure`` identifier, the
    number of ``evals`` spent, and ``reproduced`` — False means the
    original spec did not fail at all under this evaluator, so there was
    nothing to shrink (the spec comes back unchanged).
    """
    evals = 0
    if result is None:
        result = evaluate_spec(spec, mutator=mutator)
        evals += 1
    target = failure_id(result)
    if target is None:
        return {
            "spec": spec,
            "result": result,
            "failure": None,
            "evals": evals,
            "reproduced": False,
            "steps": 0,
        }
    steps = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(spec):
            if spec_size(candidate) >= spec_size(spec):
                continue
            if evals >= max_evals:
                break
            attempt = evaluate_spec(candidate, mutator=mutator)
            evals += 1
            if failure_id(attempt) == target:
                spec, result = candidate, attempt
                steps += 1
                improved = True
                break
    return {
        "spec": spec,
        "result": result,
        "failure": target,
        "evals": evals,
        "reproduced": True,
        "steps": steps,
    }


def shrink_report(original_spec: RunSpec, original_result: dict,
                  shrunk: dict) -> dict:
    """The persisted JSON payload for one shrunk failing spec."""
    shrunk_spec: RunSpec = shrunk["spec"]
    return {
        "schema": 1,
        "failure": shrunk["failure"],
        "original": {
            "key": original_spec.key,
            "spec": original_spec.to_dict(),
            "size": spec_size(original_spec),
            "digest": original_result.get("digest"),
            "violated": original_result.get("violated", []),
            "error": original_result.get("error"),
        },
        "shrunk": {
            "key": shrunk_spec.key,
            "spec": shrunk_spec.to_dict(),
            "size": spec_size(shrunk_spec),
            "digest": shrunk["result"].get("digest"),
            "violated": shrunk["result"].get("violated", []),
            "error": shrunk["result"].get("error"),
        },
        "evals": shrunk["evals"],
        "steps": shrunk["steps"],
        "reproduced": shrunk["reproduced"],
    }
