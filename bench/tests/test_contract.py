"""BENCHMARK.json is well formed and matches what the benchmark reports,
and every workload's correctness check catches a wrong output."""

import re

import pytest

import run
from conftest import SMALL
from layers import ALL_LAYERS, ROOT, TARGETS, LayerTracer
from workloads import WORKLOADS, run_repetition

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SUFFIXES = (".self_s", ".share", ".calls")


def test_top_level_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_names_and_units_are_valid_and_used_once():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric


def test_every_workload_has_a_why_and_an_implementation():
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
        assert workload["name"] in WORKLOADS
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_bounds():
    """Every bound is a share of the parent's median in (0, 0.25]; set-up
    time carries the largest, so work moved into set-up still shows."""
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
        bounds[metric["name"]] = metric["bound"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_every_layer_names_the_metric_it_should_move():
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(TARGETS) == set(ALL_LAYERS) - {ROOT}
    for layer, (metric, workload) in TARGETS.items():
        assert metric in metrics and workload in workloads, layer
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        for suffix in SUFFIXES:
            if name.endswith(suffix):
                assert name[:-len(suffix)] in ALL_LAYERS, name


def test_the_declared_metrics_are_the_ones_a_run_reports():
    tracer = LayerTracer()
    tracer.start()
    tracer.stop()
    plain = [{"runs": 1, "run_s": [1.0], "work_s": 1.0, "setup_s": 0.5,
              "peak_rss_mb": 60.0}]
    traced = [dict(plain[0], work_s=1.1, layers=tracer.report())]
    assert set(run.end_to_end(plain)) == \
        {m["name"] for m in SPEC["end_to_end"]}
    assert set(run.per_layer(plain, traced)) == \
        {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_an_injected_digest_mismatch_is_a_failed_operation(name, tmp_path):
    workload = SMALL[name]
    first = run_repetition(workload, 3, 0, tmp_path / "first")
    again = run_repetition(workload, 3, 0, tmp_path / "again")
    assert first["failed"] == again["failed"] == 0
    compared, mismatched = run.check_digests([first, again])
    assert compared >= 1 and mismatched == 0
    wrong = dict(again, digests=["0" * 64] + again["digests"][1:])
    assert run.check_digests([first, wrong]) == (compared, 1)
