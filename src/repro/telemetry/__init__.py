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
