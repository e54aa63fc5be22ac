"""The mutation self-test keeps the invariant registry honest: every
registered invariant must have a mutation here that only it detects."""

import pytest

from repro.invariants import selftest
from repro.invariants.engine import default_invariants


@pytest.fixture(scope="module")
def base_records():
    return selftest.build_base_records()


@pytest.fixture(scope="module")
def report(base_records):
    return selftest.run_selftest(base_records)


class TestSelftest:
    def test_selftest_passes(self, report):
        failing = [r for r in report["results"]
                   if not (r["detected"] and r["attributed"])]
        assert report["ok"], failing

    def test_base_trace_is_clean(self, report):
        assert report["base_violations"] == 0
        assert report["base_records"] > 0

    def test_every_mutation_is_detected_and_attributed(self, report):
        assert report["detected"] == report["mutations"] == len(
            selftest.MUTATIONS
        )
        for result in report["results"]:
            assert result["detected"], result
            assert result["attributed"], result
            assert result["expected_invariant"] in result["flagged"], result

    def test_at_least_six_distinct_violation_kinds(self, report):
        # the acceptance floor: >= 6 distinct seeded violation kinds
        expected = {r["expected_invariant"] for r in report["results"]}
        assert len(expected) >= 6

    def test_selftest_covers_registry(self):
        # adding an invariant without a mutation here must fail
        registered = {inv.name for inv in default_invariants()}
        mutated = {expected for _, expected, _ in selftest.MUTATIONS}
        # clock.record_index and clock.monotonic are both in the clock
        # module; every registered name needs a mutation targeting it
        assert mutated == registered

    def test_base_trace_is_deterministic(self, base_records):
        assert selftest.build_base_records() == base_records

    def test_mutators_do_not_modify_the_input(self, base_records):
        snapshot = [dict(r) for r in base_records]
        selftest.run_selftest(base_records)
        assert base_records == snapshot
