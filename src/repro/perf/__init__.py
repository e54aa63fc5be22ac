"""Near-zero-overhead performance instrumentation.

The hot per-frame pipeline (medium → link budget → AEAD) carries optional
counters that cost one module-attribute check when disabled.
Enable them with the ``REPRO_PERF=1`` environment variable or
:func:`repro.perf.counters.enable`; read them with
:func:`repro.perf.counters.snapshot` or the ``repro-worksite profile``
subcommand.
"""

from repro.perf.counters import (
    enable,
    enabled,
    incr,
    report,
    reset,
    snapshot,
)

__all__ = [
    "enable",
    "enabled",
    "incr",
    "report",
    "reset",
    "snapshot",
]
