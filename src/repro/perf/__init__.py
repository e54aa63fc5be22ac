"""Near-zero-overhead performance instrumentation.

The hot per-frame pipeline (medium → link budget → AEAD) carries optional
counters that cost one module-attribute check when disabled.
``repro-worksite profile --perf`` is their one reader: it turns them on
with :func:`repro.perf.counters.enable` and prints their report.
"""
