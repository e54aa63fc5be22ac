"""The sweep engine: fan a grid of run specs across a process pool.

:class:`SweepRunner` takes the expanded spec list, consults the campaign
store for already-completed runs (``resume=True``), and executes only the
delta — inline for ``jobs=1`` without a cell timeout (no pool overhead,
same code path as the workers), otherwise through a
:class:`~repro.runner.dispatch.LocalPoolDispatcher` it builds per run.
Each completed record is written to the store as it arrives, so progress
survives interruption.
Failures are data, not exceptions: a worker that raises produces a
``status: "failed"`` record and the sweep keeps going.

The execution layer is self-healing.  Infrastructure losses — a worker
SIGKILLed mid-cell (``BrokenProcessPool``), a cell that exceeds its
wall-clock budget — do not fail the cell, let alone the sweep: the
dispatcher resurrects its pool and the engine requeues the cell under a
deterministic :class:`~repro.runner.dispatch.CellRetryPolicy` (bounded
attempts, exponential backoff, seed-derived jitter).  Every attempt is
recorded in the campaign store and reported to the monitor, and only a
cell that exhausts its attempt budget becomes a ``failed`` record.

Because every run is a pure function of its spec (see
:mod:`repro.runner.worker`), the report's records are returned in spec
order regardless of completion order — ``--jobs 1`` and ``--jobs 8``
produce identical result sets, and so do an uninterrupted campaign and
one resumed after a crash.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.campaign import CampaignBinding
from repro.runner.dispatch import CellRetryPolicy, LocalPoolDispatcher, Outcome
from repro.runner.monitor import SweepMonitor
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_run

ProgressFn = Callable[[str], None]

#: minimum seconds between status.json rewrites (and the dispatcher poll
#: timeout that drives heartbeats while no cell completes)
STATUS_INTERVAL_S = 2.0


class UncheckedResultWarning(UserWarning):
    """A resumed cache hit carries no ``result.invariants`` block.

    Raised (as a warning) when ``REPRO_CHECK=1`` asks for invariant-checked
    results but a spec-hash cache hit predates online checking — e.g. a
    store written before checking existed, or without ``REPRO_CHECK``.
    The cached record is still used; the warning keeps the mix visible so
    checked corpora (sweep stores feeding fuzz seeds, CI baselines) are
    never silently diluted with unchecked results.
    """


@dataclass
class SweepReport:
    """Outcome of one sweep invocation."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    #: attempts that were requeued (lost workers, timeouts) rather than
    #: finalised — self-healing activity, not additional cells
    retries: int = 0
    #: stall-detector firings observed by the monitor during the sweep
    stalls: int = 0
    wall_s: float = 0.0
    records: List[dict] = field(default_factory=list)
    #: finished attempt count per cell key (cached hits report 0 new
    #: attempts; the campaign store keeps their history)
    attempts: Dict[str, int] = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        return self.total - self.failed

    @property
    def total_attempts(self) -> int:
        return sum(self.attempts.values())

    def failures(self) -> List[dict]:
        return [r for r in self.records if r.get("status") != "ok"]

    def results(self) -> List[dict]:
        """The ``result`` payloads of successful runs, in spec order."""
        return [r["result"] for r in self.records if r.get("status") == "ok"]


class SweepRunner:
    """Execute a list of run specs, caching by spec hash.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs inline in this process unless
        ``cell_timeout_s`` is set.
    store:
        Optional campaign binding (see
        :meth:`repro.runner.campaign.CampaignStore.bind`); completed
        records are written through ``append`` as they arrive, attempts
        through ``record_attempt``, and ``completed_keys`` backs cache hits
        when ``resume`` is set.
    retry_policy:
        The per-cell retry schedule; defaults to
        :class:`~repro.runner.dispatch.CellRetryPolicy` (3 attempts,
        exponential backoff with seed-derived jitter).  Only
        infrastructure losses retry — a sim-level failure is a pure
        function of the spec and stays final.
    cell_timeout_s:
        Per-cell wall-clock budget; an overdue cell is killed and requeued
        as a retryable ``timeout`` attempt.  A budget can only be enforced
        on a worker process, so setting one runs even ``jobs=1`` sweeps
        through a one-worker pool.  ``None`` disables timeouts.
    task:
        Picklable ``(spec_dict, attempt) -> record`` callable; defaults to
        :func:`repro.runner.worker.execute_run`.  Injectable so the chaos
        tests can wrap the worker in crash/hang behaviour.
    progress:
        Optional callable receiving one formatted line per completed run.
    monitor:
        Optional :class:`~repro.runner.monitor.SweepMonitor` receiving
        ``sweep_started`` / ``cell_started`` / ``cell_finished`` /
        ``cell_retry`` / ``workers_degraded`` / ``heartbeat`` events as
        the sweep advances.
    status_path:
        Where to (atomically) write the monitor snapshot as
        ``status.json``; requires ``monitor``.  Writes are throttled to
        :data:`STATUS_INTERVAL_S` with a forced final write.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        store: Optional[CampaignBinding] = None,
        retry_policy: Optional[CellRetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        task: Optional[Callable] = None,
        progress: Optional[ProgressFn] = None,
        monitor: Optional[SweepMonitor] = None,
        status_path=None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = store
        self.retry_policy = (
            retry_policy if retry_policy is not None else CellRetryPolicy()
        )
        self.cell_timeout_s = cell_timeout_s
        self.task = task if task is not None else execute_run
        self.progress = progress
        self.monitor = monitor
        self.status_path = status_path
        self._last_status_write: Optional[float] = None
        self._retries = 0

    def run(self, specs: Sequence[RunSpec], *, resume: bool = False) -> SweepReport:
        started = time.perf_counter()
        self._retries = 0
        ordered: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec.key not in seen:  # identical cells collapse to one run
                seen.add(spec.key)
                ordered.append(spec)

        cached: Dict[str, dict] = {}
        if resume and self.store is not None:
            completed = self.store.completed_keys()
            cached = {
                spec.key: completed[spec.key]
                for spec in ordered if spec.key in completed
            }
        pending = [spec for spec in ordered if spec.key not in cached]
        if cached:
            self._warn_unchecked(cached)

        self._event("sweep_started", total=len(ordered), jobs=self.jobs)
        report = SweepReport(total=len(ordered), cached=len(cached))
        by_key: Dict[str, dict] = dict(cached)
        done = 0
        for record in cached.values():
            done += 1
            report.attempts[record["key"]] = 0
            # monitor first, so a progress callback reading the monitor's
            # snapshot sees the cell it is reporting on
            self._event("cell_finished", key=record["key"],
                        status=record.get("status"), cached=True)
            self._emit(done=done, total=len(ordered),
                       record=record, from_cache=True)

        for record in self._execute(pending):
            by_key[record["key"]] = record
            report.executed += 1
            report.attempts[record["key"]] = record.get("attempts", 1)
            done += 1
            if self.store is not None:
                self.store.append(record)
            self._event("cell_finished", key=record["key"],
                        status=record.get("status"), cached=False,
                        wall_s=record.get("wall_s"),
                        pid=record.get("pid"),
                        attempts=record.get("attempts"))
            self._emit(done=done, total=len(ordered),
                       record=record, from_cache=False)

        report.records = [by_key[spec.key] for spec in ordered]
        report.failed = sum(
            1 for r in report.records if r.get("status") != "ok"
        )
        report.retries = self._retries
        if self.monitor is not None:
            report.stalls = self.monitor.stall_events
        report.wall_s = round(time.perf_counter() - started, 3)
        self._write_status(force=True)
        return report

    def _warn_unchecked(self, cached: Dict[str, dict]) -> None:
        """Flag resumed cache hits that predate online invariant checking."""
        from repro.invariants import engine as checks

        if not checks.env_enabled():
            return
        stale = sorted(
            key for key, record in cached.items()
            if record.get("status") == "ok"
            and "invariants" not in (record.get("result") or {})
        )
        if not stale:
            return
        shown = ", ".join(stale[:5]) + (" ..." if len(stale) > 5 else "")
        warnings.warn(
            f"{len(stale)} resumed cache hit(s) carry no invariants block "
            f"(store written without REPRO_CHECK?): {shown}; re-run without "
            f"--resume to refresh them",
            UncheckedResultWarning,
            stacklevel=3,
        )

    # -- progress plane ----------------------------------------------------

    def _event(self, name: str, **fields) -> None:
        """Forward one progress event to the monitor (if any) and let it
        refresh ``status.json`` on the throttled cadence."""
        if self.monitor is None:
            return
        fields["event"] = name
        fields.setdefault("t", time.monotonic())
        self.monitor.on_event(fields)
        self._write_status()

    def _write_status(self, force: bool = False) -> None:
        if self.monitor is None or self.status_path is None:
            return
        now = time.monotonic()
        if (not force and self._last_status_write is not None
                and now - self._last_status_write < STATUS_INTERVAL_S):
            return
        self._last_status_write = now
        self.monitor.write_status(self.status_path, now=now)

    # -- store writes ------------------------------------------------------

    def _mark_running(self, spec: RunSpec, attempt: int) -> None:
        if self.store is not None:
            self.store.mark_running(spec.key, attempt)

    def _record_attempt(self, outcome: Outcome) -> None:
        if self.store is None:
            return
        record = outcome.record or {}
        self.store.record_attempt(
            outcome.spec.key, outcome.attempt,
            status=outcome.kind,
            error=record.get("error") if outcome.record else outcome.error,
            wall_s=record.get("wall_s"),
            pid=record.get("pid"),
        )

    # -- execution ---------------------------------------------------------

    def _execute(self, pending: Sequence[RunSpec]):
        if not pending:
            return
        if self.jobs == 1 and self.cell_timeout_s is None:
            yield from self._execute_inline(pending)
            return
        yield from self._execute_dispatched(pending)

    def _execute_inline(self, pending: Sequence[RunSpec]):
        """The no-pool path: one attempt per cell, same record shape.

        Infrastructure losses cannot happen inline (the worker is this
        process) and a simulation failure is final, so nothing here is
        retried: the dispatched loop is the one retry path.
        """
        for spec in pending:
            self._mark_running(spec, 1)
            self._event("cell_started", key=spec.key, label=spec.label,
                        attempt=1)
            record = self.task(spec.to_dict(), 1)
            kind = "ok" if record.get("status") == "ok" else "failed"
            self._record_attempt(Outcome(spec, 1, kind, record=record))
            record["attempts"] = 1
            yield record

    def _execute_dispatched(self, pending: Sequence[RunSpec]):
        """The self-healing pool loop: lazy submission (one in-flight cell
        per worker), retry with deterministic backoff, heartbeats."""
        policy = self.retry_policy
        dispatcher = LocalPoolDispatcher(
            min(self.jobs, len(pending)),
            task=self.task,
            cell_timeout_s=self.cell_timeout_s,
            on_degrade=self._on_degrade,
        )
        ready = deque(pending)
        delayed: List[tuple] = []  # (eligible_t, spec) backoff parking lot
        attempts: Dict[str, int] = {}
        dispatcher.start()
        try:
            while ready or delayed or dispatcher.in_flight:
                now = time.monotonic()
                if delayed:
                    due = [item for item in delayed if item[0] <= now]
                    if due:
                        delayed = [i for i in delayed if i[0] > now]
                        ready.extend(spec for _, spec in due)
                # lazy submission — one in-flight future per worker — keeps
                # "started" synonymous with "executing", so cell ages (and
                # the stall detector reading them) measure work, not queue
                # time
                while ready and dispatcher.capacity > 0:
                    spec = ready.popleft()
                    attempt = attempts.get(spec.key, 0) + 1
                    attempts[spec.key] = attempt
                    dispatcher.submit(spec, attempt)
                    self._mark_running(spec, attempt)
                    self._event("cell_started", key=spec.key,
                                label=spec.label, attempt=attempt)
                if not dispatcher.in_flight and not ready and delayed:
                    # nothing to poll: park until the earliest backoff
                    # deadline instead of spinning
                    wake = min(t for t, _ in delayed) - time.monotonic()
                    if wake > 0:
                        time.sleep(min(wake, STATUS_INTERVAL_S))
                    continue
                timeout = (
                    STATUS_INTERVAL_S if self.monitor is not None
                    else None
                )
                if delayed:
                    wake = max(0.0, min(t for t, _ in delayed) - now)
                    timeout = wake if timeout is None else min(timeout, wake)
                outcomes = dispatcher.poll(timeout)
                if not outcomes:
                    # nothing completed within the interval: refresh
                    # liveness so a wedged worker surfaces as a stall
                    self._event("heartbeat")
                    continue
                for outcome in outcomes:
                    self._record_attempt(outcome)
                    if policy.should_retry(outcome.kind, outcome.attempt):
                        self._retries += 1
                        delay = policy.delay_s(outcome.spec, outcome.attempt)
                        self._event("cell_retry", key=outcome.spec.key,
                                    attempt=outcome.attempt,
                                    kind=outcome.kind, delay_s=delay,
                                    error=outcome.error)
                        delayed.append((time.monotonic() + delay, outcome.spec))
                        continue
                    yield self._finalise(outcome)
        finally:
            dispatcher.stop()

    def _finalise(self, outcome: Outcome) -> dict:
        """The final record for a cell that will not be retried."""
        record = outcome.record
        if record is None:
            # the cell never produced a record (lost / timeout / pool
            # error after the attempt budget): report it, keep sweeping
            record = {
                "key": outcome.spec.key,
                "spec": outcome.spec.to_dict(),
                "status": "failed",
                "error": outcome.error,
                "result": None,
                "wall_s": None,
            }
        record["attempts"] = outcome.attempt
        return record

    def _on_degrade(self, old_workers: int, new_workers: int) -> None:
        """Dispatcher shrank its worker budget: surface, don't fail."""
        self._event("workers_degraded", old=old_workers, new=new_workers)
        if self.progress is not None:
            self.progress(
                f"[degraded] worker budget {old_workers} -> {new_workers} "
                "after repeated pool breakage"
            )

    def _emit(self, *, done: int, total: int, record: dict,
              from_cache: bool) -> None:
        if self.progress is None:
            return
        spec = RunSpec.from_dict(record["spec"])
        status = record.get("status", "?")
        if from_cache:
            tag = "cached"
        elif status == "ok":
            tag = f"ok {record.get('wall_s', '?')}s"
            if record.get("attempts", 1) > 1:
                tag += f" ({record['attempts']} attempts)"
        else:
            tag = f"FAILED ({record.get('error', 'unknown error')})"
        self.progress(f"[{done}/{total}] {spec.label}: {tag}")


def run_sweep(specs: Sequence[RunSpec], *, jobs: int = 1) -> SweepReport:
    """Convenience wrapper: run ``specs`` on ``jobs`` workers, no store.

    A stored, resumable or monitored sweep builds a :class:`SweepRunner`.
    """
    return SweepRunner(jobs=jobs).run(specs)
