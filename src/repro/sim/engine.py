"""Event-heap discrete-event simulation kernel.

The kernel is deliberately small and deterministic:

* events are ordered by ``(time, priority, sequence)`` so two events scheduled
  for the same instant always fire in scheduling order;
* all state lives in the :class:`Simulator`; there is no global clock;
* periodic behaviour is expressed with :class:`Process` (a recurring callback)
  rather than coroutines, which keeps stack traces flat and replay trivial.

Typical use::

    sim = Simulator()
    sim.schedule(5.0, lambda: print("fires at t=5"))
    sim.every(1.0, tick)          # tick() called at t=1, 2, 3, ...
    sim.run_until(10.0)
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.perf import counters as perf


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    The heap orders lightweight ``(time, priority, seq, event)`` tuples, so
    the Event object itself never participates in comparisons (tuple
    comparison runs at C speed; the old dataclass ``__lt__`` dominated heap
    churn on large runs).  ``cancelled`` events stay in the heap but are
    skipped when popped, which makes cancellation O(1).  Periodic timers
    reuse one Event object across occurrences (see :class:`Process`).
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None]
    cancelled: bool = field(default=False)
    _sim: Optional["Simulator"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._on_cancel(self)


class Process:
    """A recurring callback scheduled every ``interval`` simulated seconds.

    The next occurrence is scheduled *after* the callback runs, so a callback
    that stops the process (or raises) does not leave a stale event behind.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        *,
        start_at: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"process interval must be positive, got {interval}")
        self._sim = sim
        self.interval = interval
        self.callback = callback
        self.priority = priority
        self._stopped = False
        self._event: Optional[Event] = None
        first = sim.now + interval if start_at is None else start_at
        self._event = sim.schedule_at(first, self._fire, priority=priority)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop the process; the pending occurrence is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            # timer slot reuse: the fired Event object becomes the next
            # occurrence (fresh seq drawn at the same point as a fresh
            # schedule_at, so event ordering is byte-identical) — periodic
            # timers stop allocating one Event per tick
            self._event = self._sim._reschedule(
                self._event, self._sim.now + self.interval, priority=self.priority
            )


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        self._live = 0
        # per-domain clock faults: domain -> (t0, offset_s, rate); empty in
        # nominal runs so local_time() returns the kernel clock unchanged
        self._clock_faults: Dict[str, Tuple[float, float, float]] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- clock domains (fault injection) ------------------------------------
    def set_clock_drift(
        self, domain: str, *, offset_s: float = 0.0, rate: float = 0.0
    ) -> None:
        """Give ``domain``'s local clock a step ``offset_s`` plus linear
        drift ``rate`` (seconds of skew per simulated second) from now on.

        Event *scheduling* always uses the kernel clock; drift only affects
        what :meth:`local_time` reports, i.e. the timestamps a faulted node
        stamps into its own messages.
        """
        self._clock_faults[domain] = (self._now, float(offset_s), float(rate))

    def clear_clock_drift(self, domain: str) -> None:
        """Remove ``domain``'s clock fault.  Idempotent."""
        self._clock_faults.pop(domain, None)

    def local_time(self, domain: str) -> float:
        """``domain``'s local clock: exactly :attr:`now` unless drifted."""
        if not self._clock_faults:
            return self._now
        fault = self._clock_faults.get(domain)
        if fault is None:
            return self._now
        t0, offset, rate = fault
        return self._now + offset + rate * (self._now - t0)

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        Maintained as a live counter (O(1)): incremented on schedule,
        decremented when an event is cancelled or popped for firing.
        """
        return self._live

    def _on_cancel(self, event: Event) -> None:
        # called exactly once per cancelled in-queue event (Event.cancel
        # guards idempotence; popped events detach their back-reference)
        self._live -= 1

    def schedule(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = next(self._seq)
        event = Event(
            time=time, priority=priority, seq=seq,
            callback=callback, _sim=self,
        )
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def _reschedule(self, event: Event, time: float, *, priority: int = 0) -> Event:
        """Re-arm a fired :class:`Event` object for its next occurrence.

        Used by :class:`Process` so periodic timers reuse one slot instead
        of allocating a fresh Event per tick.  The sequence number is drawn
        exactly where :meth:`schedule_at` would draw it, so global event
        ordering — and therefore every trace byte — is unchanged.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = next(self._seq)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.cancelled = False
        event._sim = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        if perf.ACTIVE:
            perf.incr("engine.timer_slot_reuse")
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_at: Optional[float] = None,
        priority: int = 0,
    ) -> Process:
        """Create a :class:`Process` calling ``callback`` every ``interval`` s."""
        return Process(self, interval, callback, start_at=start_at, priority=priority)

    def run_until(self, end_time: float) -> None:
        """Run events until the clock would pass ``end_time``.

        The clock is left exactly at ``end_time`` even if the queue drains
        early, so metric sampling aligned to the horizon stays consistent.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time} is before current time {self._now}"
            )
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                if entry[0] > end_time:
                    break
                heappop(heap)
                event._sim = None
                self._live -= 1
                self._now = entry[0]
                self._processed += 1
                event.callback()
            self._now = end_time
        finally:
            self._running = False
