"""Invariant and violation primitives.

An :class:`Invariant` is a stateful checker over the structured trace
record stream (:mod:`repro.telemetry.schema`).  Feeding it records one at
a time — online as the tracer emits them, or offline from a recorded
JSONL file — yields :class:`Violation` objects whenever the stream breaks
one of the system's own contracts.

Design constraints, shared with the tracer the engine rides on:

* **read-only** — an invariant may never mutate a record or touch the
  simulation; checking a run must leave its trace byte-identical
  (pinned by the golden-trace regression under ``REPRO_CHECK=1``);
* **deterministic** — violations carry simulated time and record index
  only, no wall clock, so a violation report is a pure function of the
  trace;
* **attributable** — every violation names its invariant, subsystem and
  the simulated time it was detected at, which is what the mutation
  self-test asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass(frozen=True)
class Violation:
    """One detected contract breach, attributed to its invariant.

    ``t`` and ``index`` point at the record the breach was detected on
    (for end-of-trace checks, the last record seen).  ``context`` carries
    invariant-specific evidence — sequence numbers, link keys, mode names
    — and must stay JSON-serialisable.
    """

    invariant: str
    subsystem: str
    message: str
    t: float = 0.0
    index: Optional[int] = None
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "subsystem": self.subsystem,
            "message": self.message,
            "t": self.t,
            "i": self.index,
            "context": dict(self.context),
        }


class Invariant:
    """Base class for one runtime invariant over the trace record stream.

    Subclasses set :attr:`name` (globally unique, ``subsystem.property``
    style) and :attr:`subsystem`, and implement :meth:`observe`; checks
    that only conclude at end-of-trace override :meth:`finish`.
    """

    #: unique invariant identifier, e.g. ``"crypto.nonce_sequence"``
    name: str = "invariant"
    #: the subsystem whose contract this checks, e.g. ``"comms.crypto"``
    subsystem: str = "sim"

    def observe(self, record: dict) -> Iterator[Violation]:
        """Check one record; yield violations detected at this record."""
        return iter(())

    def finish(self) -> Iterator[Violation]:
        """Conclude end-of-trace checks (conservation, open windows)."""
        return iter(())

    # -- helpers for subclasses ---------------------------------------------
    def violation(
        self, record: Optional[dict], message: str, **context
    ) -> Violation:
        """A violation attributed to ``record``'s sim time and index."""
        return Violation(
            invariant=self.name,
            subsystem=self.subsystem,
            message=message,
            t=float(record.get("t", 0.0)) if record else 0.0,
            index=record.get("i") if record else None,
            context=context,
        )

