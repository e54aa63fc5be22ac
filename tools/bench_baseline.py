#!/usr/bin/env python
"""Observability benchmark: span-layer overhead -> BENCH_PR8.json.

Times a traced fig1 worksite run with spans off and on, plus the metric
histogram and the Prometheus exposition, and merges the numbers into a
JSON file under a record key::

    PYTHONPATH=src python tools/bench_baseline.py --record current --check

``--check`` fails when the span layer costs 5 % or more of traced-run wall
clock (the budget in docs/observability.md; the CI obs-smoke job runs it).
End-to-end benchmarks of the simulator live in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path


def _best_of(fn, *, repeats: int = 5, inner: int = 1) -> float:
    """Best per-call seconds over ``repeats`` timed batches of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        dt = (time.perf_counter() - t0) / inner
        if dt < best:
            best = dt
    return best


def bench_span_overhead(
    horizon_s: float = 120.0, seed: int = 11, repeats: int = 5
) -> dict:
    """Traced fig1 worksite run, spans off vs on (writer-less tracer).

    The span emitter rides the tracer's emit hook, so this isolates the
    marginal cost of the span layer on an already-traced run — the number
    the <5 % budget in docs/observability.md is about.
    """
    from repro.scenarios.worksite import ScenarioConfig, build_worksite
    from repro.telemetry.tracer import Tracer, installed

    def timed_run(spans: bool) -> tuple:
        best = float("inf")
        span_records = 0
        for _ in range(max(1, repeats)):
            scenario = build_worksite(ScenarioConfig(seed=seed))
            tracer = Tracer(scenario.sim, spans=spans)
            tracer.meta(seed=seed, horizon_s=horizon_s)
            t0 = time.perf_counter()
            with installed(tracer):
                scenario.run(horizon_s)
            tracer.close()
            best = min(best, time.perf_counter() - t0)
            span_records = tracer.span_count
        return best, span_records

    off, _ = timed_run(False)
    on, span_records = timed_run(True)
    return {
        "seed": seed,
        "horizon_s": horizon_s,
        "repeats": max(1, repeats),
        "spans_off_wall_s": round(off, 4),
        "spans_on_wall_s": round(on, 4),
        "span_records": span_records,
        "overhead_pct": round((on - off) / off * 100.0, 2),
    }


def bench_histogram_observe(n: int = 100_000) -> dict:
    """Hot-path cost of Histogram.observe and a full quantile read-out."""
    from repro.sim.metrics import Histogram

    values = [0.0001 * (1 + i % 997) for i in range(n)]

    def fill():
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        return histogram

    per_fill = _best_of(fill, repeats=3)
    histogram = fill()
    per_quantiles = _best_of(
        lambda: (histogram.quantile(0.5), histogram.quantile(0.95),
                 histogram.quantile(0.99)),
        inner=200,
    )
    return {
        "observations": n,
        "observe_ns": round(per_fill / n * 1e9, 1),
        "quantile_readout_us": round(per_quantiles * 1e6, 3),
        "buckets": len(histogram.counts),
    }


def bench_prometheus_render(n_groups: int = 8, n_metrics: int = 16) -> dict:
    """Prometheus text exposition of a mid-sized worksite collector:
    ``n_groups * n_metrics`` each of counters, gauges and series."""
    from repro.sim.metrics import MetricsCollector
    from repro.telemetry.hub import render_prometheus

    collector = MetricsCollector()
    for c in range(n_groups):
        for m in range(n_metrics):
            collector.increment(f"c{c}.counter_{m}", m + 1)
            collector.set_gauge(f"c{c}.gauge_{m}", m * 0.5)
            collector.sample(f"c{c}.series_{m}", float(m), float(m))

    def render():
        return render_prometheus(collector)

    per_render = _best_of(render, inner=20)
    return {
        "metrics_per_kind": n_groups * n_metrics,
        "render_ms": round(per_render * 1e3, 3),
        "exposition_lines": len(render().splitlines()),
    }


# span layer must stay under 5 % of traced-run wall clock (the budget
# documented in docs/observability.md); generous for single-vCPU jitter
OBS_OVERHEAD_CEILING_PCT = 5.0


def run_obs_checks(obs: dict) -> list:
    failures = []
    value = obs.get("span_overhead", {}).get("overhead_pct")
    if value is None or value >= OBS_OVERHEAD_CEILING_PCT:
        failures.append(
            f"span_overhead.overhead_pct = {value} at or above ceiling "
            f"{OBS_OVERHEAD_CEILING_PCT}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_PR8.json",
                        help="result file (default BENCH_PR8.json)")
    parser.add_argument("--record", choices=("baseline", "current"),
                        default="current",
                        help="key to write the measurements under")
    parser.add_argument("--check", action="store_true",
                        help="fail when the span overhead reaches its ceiling")
    args = parser.parse_args(argv)

    print("benchmarking observability plane ...", flush=True)
    obs = {
        "span_overhead": bench_span_overhead(),
        "histogram": bench_histogram_observe(),
        "prometheus_render": bench_prometheus_render(),
    }
    for name, result in obs.items():
        print(f"  {name}: {json.dumps(result)}")
    out = Path(args.out)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload[args.record] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "obs": obs,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.record!r} record to {out}")
    if args.check:
        failures = run_obs_checks(obs)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("span overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
