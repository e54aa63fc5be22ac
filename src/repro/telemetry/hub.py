"""The one exporter of a run's metrics (``run --metrics-json|--metrics-prom``).

A worksite run records its counters, gauges and sampled series in one
:class:`~repro.sim.metrics.MetricsCollector`.  This module renders that
collector, under the name :data:`COLLECTOR`, as a JSON snapshot
(:func:`metrics_snapshot`, written by :func:`write_metrics_json`) and as
the Prometheus text exposition format (:func:`render_prometheus`, written
by :func:`write_prometheus`): counters map to ``counter`` samples, gauges
to ``gauge`` and series summaries to ``summary`` quantiles, so one
scrape-ready file captures the run without a client-library dependency.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import List

from repro.sim.metrics import MetricsCollector
from repro.telemetry.schema import SCHEMA_VERSION

#: the name the worksite collector is exported under
COLLECTOR = "worksite"

#: characters allowed in a Prometheus metric name; everything else
#: collapses to "_" (labels are not used for metric identity here)
_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(*parts: str) -> str:
    """Join name parts into a valid Prometheus metric name."""
    name = _NAME_SANITISE.sub("_", "_".join(parts))
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_value(value: float) -> str:
    """Render a sample value; Prometheus spells infinities ``+Inf``."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _write(path: os.PathLike, text: str) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def metrics_snapshot(collector: MetricsCollector) -> dict:
    """The collector's counters, gauges and series summaries as one
    JSON-serialisable dict, under ``metrics.worksite``."""
    section = {
        "counters": collector.counters,
        "gauges": collector.gauges,
        "series": {
            series: collector.summarize(series).as_dict()
            for series in collector.series_names()
        },
    }
    return {"schema": SCHEMA_VERSION, "metrics": {COLLECTOR: section}}


def write_metrics_json(collector: MetricsCollector, path: os.PathLike) -> Path:
    """Write the snapshot as indented JSON; returns the written path."""
    return _write(path, json.dumps(
        metrics_snapshot(collector), indent=2, sort_keys=True
    ) + "\n")


def render_prometheus(collector: MetricsCollector) -> str:
    """The Prometheus text exposition format (version 0.0.4).

    Metric names are ``repro_worksite_<metric>``; counters become
    ``counter`` samples, gauges ``gauge`` and series summaries ``summary``
    (p50/p95 quantiles plus ``_sum``/``_count``).  Deterministic: metric
    names render in sorted order.
    """
    lines: List[str] = []

    def emit(name: str, mtype: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")

    for metric in sorted(collector.counters):
        name = _prom_name("repro", COLLECTOR, metric, "total")
        emit(name, "counter",
             f"Counter {metric!r} from collector {COLLECTOR!r}.")
        lines.append(f"{name} {_prom_value(collector.counter(metric))}")
    for metric in sorted(collector.gauges):
        name = _prom_name("repro", COLLECTOR, metric)
        emit(name, "gauge",
             f"Gauge {metric!r} from collector {COLLECTOR!r}.")
        lines.append(f"{name} {_prom_value(collector.gauge(metric))}")
    for metric in collector.series_names():
        summary = collector.summarize(metric)
        name = _prom_name("repro", COLLECTOR, metric)
        emit(name, "summary",
             f"Series {metric!r} from collector {COLLECTOR!r}.")
        lines.append(f'{name}{{quantile="0.5"}} {_prom_value(summary.p50)}')
        lines.append(f'{name}{{quantile="0.95"}} {_prom_value(summary.p95)}')
        lines.append(
            f"{name}_sum {_prom_value(summary.mean * summary.count)}"
        )
        lines.append(f"{name}_count {summary.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(collector: MetricsCollector, path: os.PathLike) -> Path:
    """Write the Prometheus exposition; returns the written path."""
    return _write(path, render_prometheus(collector))
