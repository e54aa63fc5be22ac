"""Runtime invariant engine: typed, per-subsystem contract checks.

Every invariant watches the structured trace record stream
(:mod:`repro.telemetry.schema`), which makes one engine serve both
modes:

* **online** — handed to the tracer (``Tracer(checker=...)``) under
  ``REPRO_CHECK=1`` and fed each record as the tracer emits it (zero
  perturbation: records are checked after they are written);
* **offline** — run over a recorded JSONL trace by the differential
  replay oracle (``repro-worksite check``).

The registry lives in :func:`repro.invariants.engine.default_invariants`;
see ``docs/testing.md`` for how to author a new invariant.
"""
