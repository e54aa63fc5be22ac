"""The process-pool worker: one :class:`RunSpec` in, one result record out.

``execute_run`` is the module-level entry point submitted to
``ProcessPoolExecutor`` — it must stay importable as
``repro.runner.worker.execute_run`` and take/return only picklable,
JSON-serialisable values.  Everything a run can report — summary, IDS
score, channel-level counters — is folded into one flat record dict; a
worker that raises is converted into a ``status: "failed"`` record instead
of propagating, so one broken cell never kills the sweep.

The record's ``result`` sub-dict is a pure function of the spec (the
determinism contract the cache relies on); wall-clock timing lives outside
it under ``wall_s``.  The invariant report recorded under
``REPRO_CHECK=1`` is spec-pure too, so it rides inside ``result`` as
``result["invariants"]``.

A run is composed by :func:`~repro.scenarios.factory.compose_spec` and
executed by :meth:`~repro.scenarios.factory.PreparedRun.run`, the path
every other worksite execution takes.  Under ``REPRO_CHECK`` the
invariant engine is handed to a writer-less tracer, which feeds it every
record, as ``run`` does; otherwise the cell runs untraced.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Mapping, Optional, Union

from repro.runner.spec import RunSpec


def execute_run(spec: Union[RunSpec, Mapping], attempt: int = 1) -> dict:
    """Execute one run; never raises (failures become failed records).

    ``attempt`` is the execution attempt number under the engine's retry
    policy (1 for first tries); it is stamped into the record so the
    campaign store can attribute the result to the right attempt row.
    """
    if not isinstance(spec, RunSpec):
        spec = RunSpec.from_dict(spec)
    started = time.perf_counter()
    try:
        result = _simulate(spec)
        status, error = "ok", None
    except Exception as exc:  # noqa: BLE001 - the record carries the details
        result, status = None, "failed"
        error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    return {
        "key": spec.key,
        "spec": spec.to_dict(),
        "status": status,
        "error": error,
        "result": result,
        "wall_s": round(time.perf_counter() - started, 3),
        # which pool worker ran the cell — feeds per-worker liveness in
        # the sweep monitor; wall-clock-adjacent, so outside ``result``
        "pid": os.getpid(),
        # which retry attempt produced this record (1 = first try)
        "attempt": int(attempt),
    }


def _simulate(spec: RunSpec) -> dict:
    # imported here so pool workers pay the import cost once per process,
    # not once per module import on the coordinator
    from repro.invariants import engine as checks
    from repro.scenarios.factory import compose_spec
    from repro.telemetry.tracer import Tracer

    prepared = compose_spec(spec)
    scenario = prepared.scenario
    checker = tracer = None
    if checks.env_enabled():
        # online checking rides on the record stream, so REPRO_CHECK
        # attaches the engine to a writer-less tracer
        checker = checks.InvariantEngine()
        tracer = Tracer(scenario.sim, checker=checker)
    prepared.run(tracer)

    detection: Optional[dict] = None
    manager = prepared.score_manager()
    if manager is not None:
        score = manager.score(prepared.windows, horizon_s=spec.horizon_s)
        detection = {
            "attacks_total": score.attacks_total,
            "attacks_detected": score.attacks_detected,
            "coverage": round(score.coverage, 4),
            "mean_latency_s": (
                None if score.mean_latency_s is None
                else round(score.mean_latency_s, 3)
            ),
            "false_alarms": score.false_alarms,
            "false_alarm_rate_per_h": round(score.false_alarm_rate_per_h, 3),
            "alerts": len(manager.alerts),
        }
    forwarder_node = scenario.network.nodes["forwarder"]
    result = {
        "summary": scenario.summary(),
        "detection": detection,
        "channel": {
            "frames_lost": scenario.medium.frames_lost,
            "records_rejected": forwarder_node.records_rejected,
            "deauths_accepted": scenario.log.count("deauthenticated"),
            "forged_executed": scenario.command_channel.executed,
        },
    }
    if prepared.fault_injector is not None:
        result["resilience"] = prepared.fault_injector.resilience_summary(
            spec.horizon_s
        )
    if checker is not None:
        checker.finish()
        result["invariants"] = checker.summary()
    return result
