"""Evaluator and shrinker: oracle verdicts, failure identifiers, reduction.

The production system is invariant-clean, so failing evaluations are
produced the same way the self-test tier does it: a stream-level mutator
(from :mod:`repro.invariants.selftest`, via the adapter in
:mod:`repro.fuzz.selftest`) injects a known violation into an otherwise
healthy run.  These tests use the cheap ``nonce_regression`` mutation —
its mutation site (a protected seal) exists in every defended run, so
short horizons keep the suite fast.
"""

import pytest

from repro.fuzz.evaluate import evaluate_spec, failure_id, trace_digest
from repro.fuzz.selftest import bloated_spec, mutator_for
from repro.fuzz.shrink import shrink_spec, spec_size
from repro.runner.spec import RunSpec

#: a small defended run: enough traffic for seals, quick to simulate
BASE = RunSpec(seed=9, horizon_s=60.0, profile="defended")


class TestEvaluate:
    def test_clean_spec_evaluates_ok(self):
        result = evaluate_spec(BASE)
        assert result["status"] == "ok"
        assert result["failure"] is None
        assert failure_id(result) is None
        assert result["records"] > 0
        assert result["invariants"]["violations"] == 0

    def test_evaluation_is_deterministic(self):
        first = evaluate_spec(BASE)
        second = evaluate_spec(BASE)
        assert first["digest"] == second["digest"]
        assert first["signatures"] == second["signatures"]

    def test_injected_violation_is_an_invariant_failure(self):
        result = evaluate_spec(BASE, mutator=mutator_for("nonce_regression"))
        assert result["status"] == "ok"  # the run itself completed
        assert result["failure"]["kind"] == "invariant"
        assert "crypto.nonce_sequence" in result["violated"]
        assert failure_id(result) == "invariant:crypto.nonce_sequence"

    def test_raising_mutator_is_an_exception_failure(self):
        def explode(records):
            raise LookupError("mutation site gone")

        result = evaluate_spec(BASE, mutator=explode)
        assert result["status"] == "error"
        assert failure_id(result) == "exception:LookupError"

    def test_ground_station_run_closes_its_audit_chain(self):
        # the evaluated stream ends the way `trace`, `check`'s replay and
        # the sweep worker end it: with the audit chain's close entry
        spec = RunSpec.single(
            "rf_jamming", seed=11, horizon_s=90.0, start=10.0,
            duration=20.0,
            overrides={"groundstation_enabled": True,
                       "gs_attacks": "command_replay"},
        )
        seen = []
        result = evaluate_spec(spec, mutator=seen.extend)
        assert result["failure"] is None
        audits = [r for r in seen if r["type"] == "gs.audit"]
        assert audits[-1]["verdict"] == "close"

    def test_composition_error_is_captured_not_raised(self):
        bad = RunSpec(
            campaign="nope", seed=1, horizon_s=30.0,
            plan=(("nope", 5.0, 10.0),),
        )
        result = evaluate_spec(bad)
        assert result["status"] == "error"
        assert failure_id(result).startswith("exception:")

    def test_trace_digest_is_order_and_content_sensitive(self):
        a = [{"t": 1.0, "type": "x"}, {"t": 2.0, "type": "y"}]
        assert trace_digest(a) == trace_digest(list(a))
        assert trace_digest(a) != trace_digest(list(reversed(a)))
        assert trace_digest(a) != trace_digest(a[:1])


class TestSpecSize:
    def test_structure_dominates_size(self):
        assert spec_size(bloated_spec()) > spec_size(BASE)

    def test_every_reduction_axis_counts(self):
        from dataclasses import replace

        assert spec_size(replace(BASE, ids_family="signature")) > \
            spec_size(BASE)
        assert spec_size(replace(BASE, overrides=(("n_workers", 2),))) > \
            spec_size(BASE)
        assert spec_size(replace(BASE, horizon_s=90.0)) > spec_size(BASE)

    def test_unsnapped_timings_are_penalised(self):
        from repro.fuzz.generator import spec_with_plan

        snapped = spec_with_plan(BASE, (("rf_jamming", 10.0, 20.0),))
        ragged = spec_with_plan(BASE, (("rf_jamming", 10.3, 20.0),))
        assert spec_size(ragged) > spec_size(snapped)


class TestShrink:
    def test_passing_spec_does_not_reproduce(self):
        shrunk = shrink_spec(BASE, max_evals=2)
        assert shrunk["reproduced"] is False
        assert shrunk["failure"] is None
        assert shrunk["spec"] == BASE

    def test_shrink_reduces_and_preserves_the_failure(self):
        mutator = mutator_for("nonce_regression")
        spec = RunSpec(
            seed=9, horizon_s=90.0, profile="defended",
            ids_family="signature", overrides=(("n_workers", 4),),
        )
        original = evaluate_spec(spec, mutator=mutator)
        target = failure_id(original)
        assert target == "invariant:crypto.nonce_sequence"
        shrunk = shrink_spec(spec, original, mutator=mutator, max_evals=30)
        assert shrunk["reproduced"] is True
        assert shrunk["failure"] == target
        assert failure_id(shrunk["result"]) == target
        assert spec_size(shrunk["spec"]) < spec_size(spec)
        # the removable weight is gone: seals exist on the bare baseline
        assert shrunk["spec"].ids_family is None
        assert shrunk["spec"].overrides == ()
        assert shrunk["spec"].horizon_s < spec.horizon_s

    def test_shrink_is_deterministic(self):
        mutator = mutator_for("nonce_regression")
        spec = RunSpec(
            seed=9, horizon_s=90.0, profile="defended",
            ids_family="signature",
        )
        first = shrink_spec(spec, mutator=mutator, max_evals=20)
        second = shrink_spec(spec, mutator=mutator, max_evals=20)
        assert first["spec"] == second["spec"]
        assert first["evals"] == second["evals"]
        assert first["steps"] == second["steps"]


@pytest.mark.nightly
class TestShrinkSelftestNightly:
    """The full three-case shrink self-test (slow: many simulated runs)."""

    def test_every_injected_violation_shrinks_and_survives(self):
        from repro.fuzz.selftest import run_shrink_selftest

        report = run_shrink_selftest()
        assert report["ok"], report
        for case in report["cases"]:
            assert case["preserved"], case["name"]
            assert case["reduced"], case["name"]
            assert case["expected_invariant"] in case["shrunk"]["violated"]
