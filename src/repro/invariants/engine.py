"""The invariant engine: a subscriber on the tracer's record stream.

Online checking hands an :class:`InvariantEngine` to the
:class:`~repro.telemetry.tracer.Tracer` (``Tracer(sim, checker=engine)``),
which feeds it each record *after* writing it, so checking can never
perturb the trace (pinned by the golden-trace regression).
:func:`env_enabled` gates on ``REPRO_CHECK=1`` so sweeps and the CLI opt
in uniformly; offline, :meth:`InvariantEngine.check` sweeps a recorded
stream.

The default registry (:func:`default_invariants`) is the complete set
of per-subsystem contracts; :class:`InvariantEngine` folds their
violations into a deterministic, JSON-serialisable report.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from repro.invariants.base import Invariant, Violation

#: cap on full violation dicts carried in a summary block
SUMMARY_DETAIL_CAP = 20


def env_enabled() -> bool:
    """Whether ``REPRO_CHECK=1`` asks for online invariant checking."""
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def default_invariants() -> List[Invariant]:
    """Fresh instances of every registered per-subsystem invariant."""
    # imported lazily: the crypto checkers import the comms stack, which
    # importing the engine (say, for env_enabled()) should not pay for
    from repro.invariants.clock import (
        MonotoneClockInvariant, RecordIndexInvariant,
    )
    from repro.invariants.crypto import (
        NonceSequenceInvariant, ReplayWindowInvariant,
    )
    from repro.invariants.frames import (
        DropTaxonomyInvariant, FrameCausalityInvariant,
    )
    from repro.invariants.groundstation import (
        AuditChainInvariant, CommandCausalityInvariant,
    )
    from repro.invariants.ids import AlertAttributionInvariant
    from repro.invariants.modes import (
        ModeTransitionInvariant, RtoOrderingInvariant,
    )
    from repro.invariants.spans import SpanDisciplineInvariant

    return [
        MonotoneClockInvariant(),
        RecordIndexInvariant(),
        NonceSequenceInvariant(),
        ReplayWindowInvariant(),
        FrameCausalityInvariant(),
        DropTaxonomyInvariant(),
        ModeTransitionInvariant(),
        RtoOrderingInvariant(),
        AlertAttributionInvariant(),
        SpanDisciplineInvariant(),
        AuditChainInvariant(),
        CommandCausalityInvariant(),
    ]


class InvariantEngine:
    """Run a set of invariants over a record stream and collect violations.

    Parameters
    ----------
    invariants:
        The checkers to run; defaults to :func:`default_invariants`.
    """

    def __init__(
        self, invariants: Optional[Iterable[Invariant]] = None
    ) -> None:
        self.invariants: List[Invariant] = (
            list(invariants) if invariants is not None
            else default_invariants()
        )
        self.violations: List[Violation] = []
        self._records = 0
        self._finished = False

    # -- stream interface ---------------------------------------------------
    def observe(self, record: dict) -> None:
        """Feed one record to every invariant; collect any violations."""
        self._records += 1
        for invariant in self.invariants:
            found = invariant.observe(record)
            if found is not None:
                self.violations.extend(found)

    def finish(self) -> List[Violation]:
        """Conclude end-of-trace checks; idempotent."""
        if not self._finished:
            self._finished = True
            for invariant in self.invariants:
                found = invariant.finish()
                if found is not None:
                    self.violations.extend(found)
        return self.violations

    def check(self, records: Iterable[dict]) -> List[Violation]:
        """Run the full stream through the engine (offline entry point)."""
        for record in records:
            self.observe(record)
        return self.finish()

    # -- reporting ----------------------------------------------------------
    @property
    def record_count(self) -> int:
        return self._records

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_invariant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """Compact digest for sweep records and run reports.

        Deterministic: a pure function of the record stream, ordered by
        detection.  ``details`` is capped so sweep JSONL rows stay small.
        """
        summary = {
            "checked": len(self.invariants),
            "records": self._records,
            "violations": len(self.violations),
            "by_invariant": self.by_invariant(),
        }
        if self.violations:
            summary["details"] = [
                v.to_dict() for v in self.violations[:SUMMARY_DETAIL_CAP]
            ]
            if len(self.violations) > SUMMARY_DETAIL_CAP:
                summary["truncated"] = (
                    len(self.violations) - SUMMARY_DETAIL_CAP
                )
        return summary
