"""The sweep's process-pool dispatcher, plus its retry policy.

The engine used to own a ``ProcessPoolExecutor`` directly, which meant one
SIGKILLed worker broke the pool and the next ``submit`` crashed the whole
sweep.  :class:`LocalPoolDispatcher` wraps the pool and hardens it three
ways:

* **pool resurrection** — a ``BrokenProcessPool`` (worker SIGKILLed, OOM
  kill, interpreter abort) no longer propagates: the in-flight cells come
  back as retryable ``lost`` outcomes and a fresh pool is spawned for the
  next submit;
* **per-cell wall-clock timeouts** — a wedged cell is killed (the pool's
  worker processes are terminated) and reported as a retryable ``timeout``
  outcome instead of stalling the sweep forever;
* **graceful degradation** — :data:`DEGRADE_AFTER` consecutive pool
  breakages halve the worker budget (never below one) instead of failing
  the campaign, surfacing the reduction through ``on_degrade`` (the engine
  forwards it to the :class:`~repro.runner.monitor.SweepMonitor`).

Whether a ``lost``/``timeout`` cell is *re-run* is the engine's decision,
driven by :class:`CellRetryPolicy` — deterministic bounded attempts with
the exponential backoff of :func:`repro.sim.rng.backoff_delay` (shared
with the link-layer :class:`~repro.comms.link.RetryPolicy`) and
seed-derived jitter.  Simulation-level failures (a run that raises inside
the sim) are a pure function of the spec, so they are always final:
retrying them would burn attempts on a deterministic outcome.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.runner.spec import RunSpec
from repro.runner.worker import execute_run
from repro.sim.rng import backoff_delay, derive_seed

#: outcome kinds that are infrastructure losses (the cell never produced a
#: record) and therefore worth retrying
RETRYABLE_KINDS = ("lost", "timeout")

#: consecutive organic pool breakages before the worker budget is halved
#: (deliberate timeout kills do not count)
DEGRADE_AFTER = 3


@dataclass(frozen=True)
class CellRetryPolicy:
    """Deterministic per-cell retry schedule: bounded attempts, exponential
    backoff, seed-derived jitter.

    The jitter is a pure function of ``(spec.seed, spec.key, attempt)`` via
    the same SHA-256 derivation the simulation RNG uses, so two runs of the
    same campaign produce identical retry timelines — no module-level
    ``random`` anywhere near the scheduler.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    max_delay_s: float = 2.0
    jitter_s: float = 0.01

    def should_retry(self, kind: str, attempt: int) -> bool:
        """Whether an attempt that ended as ``kind`` deserves another try.

        ``lost`` and ``timeout`` are infrastructure losses — retryable while
        attempts remain.  ``failed`` (the sim raised) and ``error``
        (unpicklable payload and friends) are deterministic — a run is a
        pure function of its spec — so they are always final.
        """
        return kind in RETRYABLE_KINDS and attempt < self.max_attempts

    def delay_s(self, spec: RunSpec, attempt: int) -> float:
        """Backoff before re-submitting ``spec`` after attempt ``attempt``."""
        delay = backoff_delay(self.base_delay_s, self.backoff_factor,
                              attempt, self.max_delay_s)
        if self.jitter_s > 0.0:
            frac = derive_seed(
                spec.seed, f"cell-retry:{spec.key}:{attempt}"
            ) % 1_000_000 / 1_000_000.0
            delay += frac * self.jitter_s
        return round(delay, 6)


@dataclass
class Outcome:
    """One finished (or lost) execution attempt, as the dispatcher saw it.

    ``kind`` is the attempt-status taxonomy the retry policy and the
    campaign store's ``attempts`` table share:

    * ``ok`` — the worker returned a successful record;
    * ``failed`` — the worker returned a record whose *simulation* failed
      (deterministic: the record carries the traceback);
    * ``lost`` — the worker died (or the pool broke) before returning;
    * ``timeout`` — the cell exceeded the wall-clock budget and its worker
      was killed;
    * ``error`` — the future raised something that is not pool breakage
      (e.g. an unpicklable result).
    """

    spec: RunSpec
    attempt: int
    kind: str
    record: Optional[dict] = None
    error: Optional[str] = None


class LocalPoolDispatcher:
    """Self-healing ``ProcessPoolExecutor``: submit cells, poll outcomes.

    The engine drives it with a four-step loop (``start``; ``submit``
    while ``capacity``; ``poll``; ``stop``).  Worker-side failures never
    raise out of ``submit``/``poll`` — bad news travels as
    :class:`Outcome` values — and a submitted spec is never dropped.

    Parameters
    ----------
    workers:
        Initial worker budget; may shrink under repeated pool breakage.
    task:
        Module-level picklable callable ``(spec_dict, attempt) -> record``;
        defaults to :func:`repro.runner.worker.execute_run`.
    cell_timeout_s:
        Per-cell wall-clock budget.  ``None`` (the default) disables
        timeouts; a budget must be positive.  Because a running future
        cannot be cancelled, enforcing a timeout kills the pool's workers;
        collateral in-flight cells come back as retryable ``lost``
        outcomes.
    on_degrade:
        Optional callback ``(old_workers, new_workers)`` fired when the
        budget shrinks.
    """

    def __init__(
        self,
        workers: int,
        *,
        task: Optional[Callable] = None,
        cell_timeout_s: Optional[float] = None,
        on_degrade: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cell_timeout_s is not None and not cell_timeout_s > 0:
            raise ValueError(
                f"cell_timeout_s must be > 0, got {cell_timeout_s}"
            )
        self.workers = workers
        self.cell_timeout_s = cell_timeout_s
        self.on_degrade = on_degrade
        self._task = task if task is not None else execute_run
        self._pool: Optional[ProcessPoolExecutor] = None
        #: future -> (spec, attempt, started_t)
        self._futures: Dict = {}
        #: outcomes produced outside poll (submit-time pool resets)
        self._pending: List[Outcome] = []
        self._breakage_streak = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._ensure_pool()

    def stop(self) -> None:
        if self._pool is None:
            return
        if self._futures:
            # abandoning in-flight work (engine shutdown mid-campaign):
            # kill rather than wait, a wedged worker must not block exit
            self._terminate_workers()
            self._pool.shutdown(wait=False, cancel_futures=True)
        else:
            self._pool.shutdown(wait=True)
        self._pool = None
        self._futures.clear()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _terminate_workers(self) -> None:
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # already gone / closed
                pass

    # -- accounting ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return max(0, self.workers - len(self._futures))

    @property
    def in_flight(self) -> int:
        return len(self._futures)

    # -- submit / poll ------------------------------------------------------

    def submit(self, spec: RunSpec, attempt: int = 1) -> None:
        """Submit one cell; never raises for pool breakage and never loses
        the spec (a broken pool is reset and the submit retried on the
        fresh one)."""
        for _ in range(2):
            pool = self._ensure_pool()
            try:
                future = pool.submit(self._task, spec.to_dict(), attempt)
            except BrokenProcessPool as exc:
                # the previous batch broke the pool after our last poll:
                # surface its in-flight cells as lost, spawn a new pool
                self._pending.extend(self._reset_pool(
                    f"{type(exc).__name__} on submit", organic=True
                ))
                continue
            self._futures[future] = (spec, attempt, time.monotonic())
            return
        raise RuntimeError(
            "process pool broke twice during a single submit"
        )  # pragma: no cover - a fresh pool accepts submissions

    def poll(self, timeout_s: Optional[float] = None) -> List[Outcome]:
        """Outcomes that finished (or were lost) since the last poll,
        blocking up to ``timeout_s`` for the first one."""
        outcomes = list(self._pending)
        self._pending.clear()
        if not self._futures:
            return outcomes
        timeout = 0.0 if outcomes else timeout_s
        if self.cell_timeout_s is not None:
            deadline = min(
                started + self.cell_timeout_s
                for _, _, started in self._futures.values()
            )
            budget = max(0.0, deadline - time.monotonic())
            timeout = budget if timeout is None else min(timeout, budget)
        finished, _ = futures_wait(
            set(self._futures), timeout=timeout,
            return_when=FIRST_COMPLETED,
        )
        broke = False
        for future in finished:
            spec, attempt, _started = self._futures.pop(future)
            error = future.exception()
            if error is None:
                record = future.result()
                kind = "ok" if record.get("status") == "ok" else "failed"
                self._breakage_streak = 0
                outcomes.append(Outcome(
                    spec, attempt, kind,
                    record=record, error=record.get("error"),
                ))
            elif isinstance(error, BrokenProcessPool):
                broke = True
                outcomes.append(Outcome(
                    spec, attempt, "lost",
                    error=f"{type(error).__name__}: worker lost mid-cell",
                ))
            else:
                outcomes.append(Outcome(
                    spec, attempt, "error",
                    error=f"{type(error).__name__}: {error}",
                ))
        if broke:
            # every other in-flight future is doomed too: drain them now
            # and replace the pool before the next submit
            outcomes.extend(self._reset_pool("BrokenProcessPool", organic=True))
        outcomes.extend(self._expire_overdue())
        return outcomes

    # -- self-healing -------------------------------------------------------

    def _expire_overdue(self) -> List[Outcome]:
        """Kill and report cells that exceeded the wall-clock budget."""
        if self.cell_timeout_s is None or not self._futures:
            return []
        now = time.monotonic()
        overdue = [
            future for future, (_, _, started) in self._futures.items()
            if now - started >= self.cell_timeout_s
        ]
        if not overdue:
            return []
        outcomes = []
        for future in overdue:
            spec, attempt, _started = self._futures.pop(future)
            outcomes.append(Outcome(
                spec, attempt, "timeout",
                error=(f"cell exceeded the {self.cell_timeout_s}s "
                       "wall-clock budget; worker killed"),
            ))
        # a running future cannot be cancelled: the only way to reclaim the
        # worker is to kill the pool; innocent in-flight cells requeue as
        # lost (deliberate kill — not held against the degradation streak)
        outcomes.extend(self._reset_pool("cell timeout", organic=False))
        return outcomes

    def _reset_pool(self, reason: str, *, organic: bool) -> List[Outcome]:
        """Tear the pool down, drain in-flight cells as ``lost`` outcomes,
        and leave the dispatcher ready to spawn a fresh pool."""
        outcomes = [
            Outcome(spec, attempt, "lost",
                    error=f"in-flight when the pool was reset ({reason})")
            for _, (spec, attempt, _started) in list(self._futures.items())
        ]
        if self._pool is not None:
            self._terminate_workers()
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self._futures.clear()
        if organic:
            self._breakage_streak += 1
            self._maybe_degrade()
        return outcomes

    def _maybe_degrade(self) -> None:
        if self._breakage_streak < DEGRADE_AFTER or self.workers <= 1:
            return
        old = self.workers
        self.workers = max(1, self.workers // 2)
        self._breakage_streak = 0
        if self.on_degrade is not None:
            self.on_degrade(old, self.workers)
