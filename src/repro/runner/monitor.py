"""Live campaign progress: the sweep/fuzz monitor and ``status.json``.

:class:`SweepMonitor` is the write side of the progress plane.  The sweep
engine (and, opted in, the fuzz session) feeds it plain event dicts —
``sweep_started`` / ``cell_started`` / ``cell_finished`` / ``cell_retry``
/ ``workers_degraded`` / ``heartbeat`` — each stamped with a
caller-supplied wall-clock time.  The monitor is a
**pure fold** over that event sequence: feed the same events and ask for
a snapshot at the same ``now`` and you get the same dict, which is what
makes ``status.json`` reproducible and testable without real sleeps.

The read side is :func:`read_status` plus :func:`render_status`, backing
the ``repro-worksite status <dir>`` subcommand: done/running/pending
counts, throughput, an ETA extrapolated from completed-cell durations,
per-worker liveness, per-cell attempt numbers, retry totals, worker-budget
degradation, and stall warnings for cells whose age exceeds a rolling
p95-based threshold (each firing is also counted in ``stall_events``, so
a finished campaign still shows whether its cells ever wedged).

``status.json`` is written atomically (temp file + ``os.replace``) so a
concurrently-running ``status`` command never reads a torn file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.inputs import InputError, read_json_object
from repro.sim.metrics import percentile

#: status.json layout version (2: retries / stall_events / degraded_from
#: / per-cell attempt numbers)
STATUS_SCHEMA = 2

#: a running cell is stalled when its age exceeds this multiple of the
#: p95 completed-cell duration ...
STALL_FACTOR = 3.0

#: ... but never before this many cells have completed (the p95 of one
#: or two samples is noise) ...
MIN_COMPLETED_FOR_STALL = 3

#: ... and never below this absolute floor, so short sweeps don't flag
#: every cell during warm-up
STALL_FLOOR_S = 30.0


class SweepMonitor:
    """Fold progress events into a live campaign snapshot.

    All timestamps are caller-supplied floats from one monotonic clock;
    the monitor never reads a clock itself, so a recorded event sequence
    replays to an identical snapshot (asserted by the monitor tests).
    """

    def __init__(self) -> None:
        self.kind = "sweep"
        self.total = 0
        self.jobs = 1
        self.started_t: Optional[float] = None
        self.last_t: Optional[float] = None
        self.done = 0
        self.failed = 0
        self.cached = 0
        self.retries = 0
        self.stall_events = 0
        self.degraded_from: Optional[int] = None
        self._running: Dict[str, dict] = {}
        self._durations: List[float] = []
        self._workers: Dict[int, float] = {}

    # -- event intake -------------------------------------------------------
    def on_event(self, event: dict) -> None:
        """Fold one progress event; unknown event names are ignored."""
        name = event.get("event")
        t = event.get("t")
        if isinstance(t, (int, float)):
            if self.started_t is None:
                self.started_t = float(t)
            self.last_t = float(t)
        pid = event.get("pid")
        if isinstance(pid, int) and isinstance(t, (int, float)):
            self._workers[pid] = float(t)

        if name == "sweep_started":
            self.kind = event.get("kind", "sweep")
            self.total = int(event.get("total", 0))
            self.jobs = int(event.get("jobs", 1))
        elif name == "cell_started":
            self._running[event["key"]] = {
                "key": event["key"],
                "label": event.get("label", event["key"]),
                "t": float(t) if isinstance(t, (int, float)) else 0.0,
                "pid": pid,
                "attempt": int(event.get("attempt", 1)),
            }
        elif name == "cell_finished":
            self._running.pop(event.get("key"), None)
            self.done += 1
            if event.get("cached"):
                self.cached += 1
            elif event.get("status") != "ok":
                self.failed += 1
            wall_s = event.get("wall_s")
            # cached cells finish in microseconds; folding them into the
            # duration stats would drag the stall threshold to zero
            if isinstance(wall_s, (int, float)) and not event.get("cached"):
                self._durations.append(float(wall_s))
        elif name == "cell_retry":
            # the attempt ended (lost worker / timeout) and the cell went
            # back to the queue: it is no longer running
            self._running.pop(event.get("key"), None)
            self.retries += 1
        elif name == "workers_degraded":
            if self.degraded_from is None:
                self.degraded_from = int(event.get("old", self.jobs))
            self.jobs = int(event.get("new", self.jobs))
        # "heartbeat" only refreshes last_t / worker liveness, done above

        # stall accounting: flag each running cell the first time its age
        # crosses the threshold, so a finished campaign still reports how
        # often the detector fired (snapshot() recomputes liveness per
        # call; this counter is the durable trace of it)
        if isinstance(t, (int, float)):
            threshold = self.stall_threshold_s()
            if threshold is not None:
                for cell in self._running.values():
                    if (not cell.get("stall_flagged")
                            and float(t) - cell["t"] > threshold):
                        cell["stall_flagged"] = True
                        self.stall_events += 1

    # -- snapshot -----------------------------------------------------------
    def stall_threshold_s(self) -> Optional[float]:
        """Age beyond which a running cell counts as stalled, or None
        while too few cells have completed to estimate one."""
        if len(self._durations) < MIN_COMPLETED_FOR_STALL:
            return None
        p95 = percentile(sorted(self._durations), 0.95)
        return round(max(STALL_FLOOR_S, STALL_FACTOR * p95), 3)

    def snapshot(self, now: Optional[float] = None) -> dict:
        """The full progress picture at ``now`` (default: last event)."""
        if now is None:
            now = self.last_t if self.last_t is not None else 0.0
        elapsed = (
            round(now - self.started_t, 3)
            if self.started_t is not None else 0.0
        )
        pending = max(0, self.total - self.done - len(self._running))
        threshold = self.stall_threshold_s()
        running = []
        for cell in sorted(self._running.values(), key=lambda c: c["t"]):
            age = round(now - cell["t"], 3)
            running.append({
                "key": cell["key"],
                "label": cell["label"],
                "age_s": age,
                "pid": cell["pid"],
                "attempt": cell.get("attempt", 1),
                "stalled": threshold is not None and age > threshold,
            })
        executed = self.done - self.cached
        mean_dur = (
            sum(self._durations) / len(self._durations)
            if self._durations else None
        )
        remaining = self.total - self.done
        eta_s = (
            round(remaining * mean_dur / max(1, self.jobs), 3)
            if mean_dur is not None and remaining > 0 else None
        )
        throughput = (
            round(executed / elapsed * 60.0, 3) if elapsed > 0 else None
        )
        return {
            "schema": STATUS_SCHEMA,
            "kind": self.kind,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "cached": self.cached,
            "retries": self.retries,
            "stall_events": self.stall_events,
            "degraded_from": self.degraded_from,
            "jobs": self.jobs,
            "pending": pending,
            "elapsed_s": elapsed,
            "throughput_per_min": throughput,
            "eta_s": eta_s,
            "stall_threshold_s": threshold,
            "running": running,
            "workers": {
                str(pid): {"idle_s": round(now - seen, 3)}
                for pid, seen in sorted(self._workers.items())
            },
            "durations": {
                "count": len(self._durations),
                "p50_s": round(
                    percentile(sorted(self._durations), 0.50), 3
                ) if self._durations else None,
                "p95_s": round(
                    percentile(sorted(self._durations), 0.95), 3
                ) if self._durations else None,
            },
        }

    # -- status.json --------------------------------------------------------
    def write_status(
        self, path: os.PathLike, now: Optional[float] = None
    ) -> Path:
        """Atomically write the snapshot; returns the written path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            self.snapshot(now), indent=2, sort_keys=True
        ) + "\n"
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, target)
        return target


_COUNT = (int,)
_SECONDS = (int, float)
_MAYBE_SECONDS = (int, float, type(None))

#: the JSON types of every ``status.json`` field that :func:`render_status`
#: and :func:`progress_line` read (a missing field renders its default)
_STATUS_FIELDS = {
    "kind": (str,), "total": _COUNT, "done": _COUNT, "failed": _COUNT,
    "cached": _COUNT, "retries": _COUNT, "stall_events": _COUNT,
    "degraded_from": (int, type(None)), "jobs": _COUNT, "pending": _COUNT,
    "elapsed_s": _SECONDS, "throughput_per_min": _MAYBE_SECONDS,
    "eta_s": _MAYBE_SECONDS, "stall_threshold_s": _MAYBE_SECONDS,
    "running": (list,), "workers": (dict,), "durations": (dict,),
}
_CELL_FIELDS = {
    "key": (str,), "label": (str,), "age_s": _SECONDS,
    "pid": (int, type(None)), "attempt": _COUNT, "stalled": (bool,),
}
_WORKER_FIELDS = {"idle_s": _SECONDS}
_DURATION_FIELDS = {
    "count": _COUNT, "p50_s": _MAYBE_SECONDS, "p95_s": _MAYBE_SECONDS,
}


def _wrong_type(path, field: str, value) -> InputError:
    return InputError(f"{path}: field {field} has the wrong type "
                      f"({type(value).__name__})")


def _check_fields(path, value: dict, fields: dict, where: str = "") -> None:
    """Raise :class:`InputError` for the first of ``fields`` present in
    ``value`` whose JSON type is not one of its types."""
    for name, types in fields.items():
        if name in value and type(value[name]) not in types:
            raise _wrong_type(path, where + name, value[name])


def read_status(path: os.PathLike) -> dict:
    """Load a ``status.json`` written by :meth:`SweepMonitor.write_status`;
    raises :class:`~repro.inputs.InputError` for any other file, including
    one where a field that :func:`render_status` reads has the wrong type."""
    status = read_json_object(path, STATUS_SCHEMA)
    _check_fields(path, status, _STATUS_FIELDS)
    nested = [
        (f"running[{index}]", cell, _CELL_FIELDS)
        for index, cell in enumerate(status.get("running", []))
    ]
    nested += [
        (f"workers.{pid}", worker, _WORKER_FIELDS)
        for pid, worker in status.get("workers", {}).items()
    ]
    nested.append(("durations", status.get("durations", {}),
                   _DURATION_FIELDS))
    for where, value, fields in nested:
        if type(value) is not dict:
            raise _wrong_type(path, where, value)
        _check_fields(path, value, fields, where + ".")
    return status


def progress_line(status: dict) -> str:
    """One-line progress summary (what ``sweep --progress`` prints)."""
    parts = [
        f"[{status.get('kind', 'sweep')}]",
        f"{status.get('done', 0)}/{status.get('total', 0)} done",
        f"{len(status.get('running') or [])} running",
        f"{status.get('pending', 0)} pending",
    ]
    if status.get("failed"):
        parts.append(f"{status['failed']} failed")
    if status.get("retries"):
        parts.append(f"{status['retries']} retries")
    if status.get("degraded_from") is not None:
        parts.append(
            f"DEGRADED {status['degraded_from']}->{status.get('jobs', '?')}"
        )
    if status.get("throughput_per_min") is not None:
        parts.append(f"{status['throughput_per_min']:.1f}/min")
    if status.get("eta_s") is not None:
        parts.append(f"eta {status['eta_s']:.0f}s")
    stalled = sum(
        1 for cell in status.get("running") or [] if cell.get("stalled")
    )
    if stalled:
        parts.append(f"{stalled} STALLED")
    return " ".join(parts)


def render_status(status: dict) -> str:
    """Multi-line human rendering (what ``repro-worksite status`` prints)."""
    lines = [
        f"campaign: {status.get('kind', 'sweep')}",
        f"progress: {status.get('done', 0)}/{status.get('total', 0)} done, "
        f"{len(status.get('running') or [])} running, "
        f"{status.get('pending', 0)} pending, "
        f"{status.get('failed', 0)} failed, "
        f"{status.get('cached', 0)} cached",
        f"elapsed:  {status.get('elapsed_s', 0.0)}s",
    ]
    if status.get("retries") or status.get("stall_events"):
        lines.append(
            f"healing:  {status.get('retries', 0)} retried attempt(s), "
            f"{status.get('stall_events', 0)} stall warning(s)"
        )
    if status.get("degraded_from") is not None:
        lines.append(
            f"workers:  DEGRADED {status['degraded_from']} -> "
            f"{status.get('jobs', '?')} after repeated pool breakage"
        )
    if status.get("throughput_per_min") is not None:
        lines.append(
            f"rate:     {status['throughput_per_min']:.2f} cells/min"
        )
    if status.get("eta_s") is not None:
        lines.append(f"eta:      {status['eta_s']:.0f}s")
    durations = status.get("durations") or {}
    if durations.get("count"):
        lines.append(
            f"cell wall: p50 {durations.get('p50_s')}s, "
            f"p95 {durations.get('p95_s')}s "
            f"(n={durations.get('count')})"
        )
    workers = status.get("workers") or {}
    if workers:
        seen = ", ".join(
            f"pid {pid} (idle {info.get('idle_s', '?')}s)"
            for pid, info in sorted(workers.items())
        )
        lines.append(f"workers:  {seen}")
    running = status.get("running") or []
    if running:
        lines.append("running cells:")
        for cell in running:
            flag = "  ** STALLED **" if cell.get("stalled") else ""
            attempt = cell.get("attempt", 1)
            retry = f", attempt {attempt}" if attempt and attempt > 1 else ""
            lines.append(
                f"  {cell.get('label', cell.get('key'))} "
                f"(age {cell.get('age_s')}s, pid {cell.get('pid')}"
                f"{retry}){flag}"
            )
    threshold = status.get("stall_threshold_s")
    if threshold is not None:
        lines.append(f"stall threshold: {threshold}s")
    return "\n".join(lines)
