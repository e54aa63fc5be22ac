"""Deterministic, sim-time-stamped telemetry for worksite runs.

Cooperating pieces:

* :mod:`repro.telemetry.tracer` — a :class:`Tracer` that records typed
  span/event records (frame lifecycle, attack windows, IDS detections,
  safety interventions, mission phases) behind the same
  one-attribute-check-when-disabled guard as :mod:`repro.perf`;
* :mod:`repro.telemetry.hub` — the one exporter of a run's
  :class:`~repro.sim.metrics.MetricsCollector`: the JSON snapshot and the
  Prometheus exposition behind ``run --metrics-json`` / ``--metrics-prom``;
* :mod:`repro.telemetry.analysis` — report generation over recorded
  traces (per-link delivery/drop breakdown, detection-latency
  percentiles, attack-vs-defense timeline), driving the
  ``repro-worksite trace`` CLI subcommand;
* :mod:`repro.telemetry.spans` — the causal span layer: hierarchical
  start/end records (mission phases, frame lifecycles, fault windows,
  recovery intervals) with deterministic ids, plus span-tree
  reconstruction, critical-path extraction and folded-stack flamegraph
  export behind ``repro-worksite trace --analyze``.

Every record is stamped with *simulated* time only, so the same scenario
and seed always produce byte-identical trace files (asserted by
``tests/integration/test_trace_determinism.py``).
"""

from repro.telemetry.schema import (
    DROP_CAUSES,
    RECORD_TYPES,
    SCHEMA_VERSION,
    SPAN_KINDS,
    validate_record,
    validate_trace,
)
from repro.telemetry.spans import (
    SpanEmitter,
    build_span_tree,
    critical_path,
    flamegraph_folded,
    has_spans,
    span_report,
)
from repro.telemetry.tracer import (
    Tracer,
    install,
    installed,
    uninstall,
)
from repro.telemetry.writer import TraceWriter, read_trace

__all__ = [
    "DROP_CAUSES",
    "RECORD_TYPES",
    "SCHEMA_VERSION",
    "SPAN_KINDS",
    "SpanEmitter",
    "TraceWriter",
    "Tracer",
    "build_span_tree",
    "critical_path",
    "flamegraph_folded",
    "has_spans",
    "install",
    "installed",
    "read_trace",
    "span_report",
    "uninstall",
    "validate_record",
    "validate_trace",
]
