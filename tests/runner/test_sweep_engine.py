"""Unit tests for the sweep engine: caching, resume, failure isolation,
and jobs=1 vs jobs=N equivalence.

All sweeps here use a deliberately tiny worksite (small world, one worker,
no drone, short horizon) so each cell simulates in well under a second.
"""

import warnings

import pytest

from repro.runner import (
    CampaignStore,
    RunSpec,
    SweepRunner,
    UncheckedResultWarning,
    run_sweep,
)

TINY = {
    "width": 160.0, "height": 160.0, "tree_density": 0.01,
    "n_workers": 1, "drone_enabled": False,
}
HORIZON = 90.0


def tiny_spec(campaign="baseline", seed=1, **kwargs):
    kwargs.setdefault("overrides", TINY)
    return RunSpec.single(
        campaign, seed=seed, horizon_s=HORIZON,
        start=20.0, duration=40.0, **kwargs,
    )


@pytest.fixture
def store(tmp_path):
    """A fresh campaign's binding: the store every sweep writes through."""
    campaigns = CampaignStore(tmp_path / "sweep.db")
    campaigns.ensure_campaign("sweep")
    return campaigns.bind("sweep")


class TestCaching:
    def test_resume_skips_completed_runs(self, store):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        first = SweepRunner(jobs=1, store=store).run(specs)
        assert (first.executed, first.cached) == (2, 0)
        second = SweepRunner(jobs=1, store=store).run(specs, resume=True)
        assert (second.executed, second.cached) == (0, 2)
        assert [r["result"] for r in second.records] == \
               [r["result"] for r in first.records]

    def test_resume_executes_only_the_delta(self, store):
        SweepRunner(jobs=1, store=store).run([tiny_spec(seed=1)])
        grown = [tiny_spec(seed=1), tiny_spec(seed=2)]
        report = SweepRunner(jobs=1, store=store).run(grown, resume=True)
        assert (report.executed, report.cached) == (1, 1)

    def test_changed_spec_misses_the_cache(self, store):
        SweepRunner(jobs=1, store=store).run([tiny_spec(seed=1)])
        changed = tiny_spec(seed=1, profile="undefended")
        report = SweepRunner(jobs=1, store=store).run([changed], resume=True)
        assert (report.executed, report.cached) == (1, 0)

    def test_without_resume_cache_is_ignored(self, store):
        spec = tiny_spec(seed=1)
        SweepRunner(jobs=1, store=store).run([spec])
        report = SweepRunner(jobs=1, store=store).run([spec])
        assert (report.executed, report.cached) == (1, 0)

    def test_failed_runs_are_not_treated_as_completed(self, store):
        bad = tiny_spec(campaign="rf_jamming", seed=1,
                        overrides={**TINY, "weather_initial": "nonsense"})
        first = SweepRunner(jobs=1, store=store).run([bad])
        assert first.failed == 1
        # resume must retry the failed cell, not serve it from the store
        second = SweepRunner(jobs=1, store=store).run([bad], resume=True)
        assert (second.executed, second.cached) == (1, 0)

    def test_duplicate_specs_collapse_to_one_run(self):
        report = run_sweep([tiny_spec(seed=1), tiny_spec(seed=1)], jobs=1)
        assert report.total == 1
        assert report.executed == 1


class TestResumeWarning:
    """``--resume`` under ``REPRO_CHECK=1`` must flag unchecked cache hits.

    A store written without online invariant checking serves records whose
    ``result`` has no ``invariants`` block; silently mixing those into a
    checked sweep would dilute the corpus, so resume warns (but still uses
    the cache).
    """

    def test_unchecked_cache_hits_warn_under_repro_check(
        self, store, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        spec = tiny_spec(seed=1)
        SweepRunner(jobs=1, store=store).run([spec])

        monkeypatch.setenv("REPRO_CHECK", "1")
        with pytest.warns(UncheckedResultWarning, match="no invariants"):
            report = SweepRunner(jobs=1, store=store).run(
                [spec], resume=True
            )
        # the warning flags the mix; the cached record is still served
        assert (report.executed, report.cached) == (0, 1)

    def test_no_warning_without_repro_check(self, store, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        spec = tiny_spec(seed=1)
        SweepRunner(jobs=1, store=store).run([spec])
        with warnings.catch_warnings():
            warnings.simplefilter("error", UncheckedResultWarning)
            SweepRunner(jobs=1, store=store).run([spec], resume=True)

    def test_no_warning_when_the_store_was_checked(
        self, store, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHECK", "1")
        spec = tiny_spec(seed=1)
        first = SweepRunner(jobs=1, store=store).run([spec])
        (record,) = first.records
        assert "invariants" in record["result"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", UncheckedResultWarning)
            report = SweepRunner(jobs=1, store=store).run(
                [spec], resume=True
            )
        assert report.cached == 1


class TestFailureIsolation:
    def test_raising_worker_is_a_failed_record_not_a_crash(self):
        # the bad weather name breaks scenario composition inside the worker
        specs = [
            tiny_spec(seed=1),
            tiny_spec(seed=2, overrides={**TINY, "weather_initial": "nonsense"}),
            tiny_spec(seed=3),
        ]
        report = run_sweep(specs, jobs=1)
        assert report.total == 3
        assert report.failed == 1
        (failure,) = report.failures()
        assert failure["status"] == "failed"
        assert failure["error"]
        assert failure["result"] is None
        # the healthy cells completed
        assert len(report.results()) == 2

    def test_pool_worker_failure_does_not_kill_the_sweep(self):
        specs = [
            tiny_spec(seed=1),
            tiny_spec(seed=2, overrides={**TINY, "weather_initial": "nonsense"}),
            tiny_spec(seed=3),
            tiny_spec(seed=4),
        ]
        report = run_sweep(specs, jobs=3)
        assert report.failed == 1
        assert len(report.results()) == 3

    def test_unknown_campaign_fails_cleanly(self):
        spec = RunSpec(campaign="nope", seed=1, horizon_s=HORIZON,
                       plan=(("nope", 10.0, 20.0),))
        report = run_sweep([spec], jobs=1)
        (failure,) = report.failures()
        assert "unknown campaign" in failure["error"]


class TestReportAttempts:
    def test_clean_run_reports_one_attempt_per_cell(self):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        report = run_sweep(specs, jobs=1)
        assert report.attempts == {s.key: 1 for s in specs}
        assert report.total_attempts == 2
        assert report.retries == 0
        assert report.stalls == 0
        for record in report.records:
            assert record["attempts"] == 1

    def test_cached_cells_report_zero_new_attempts(self, store):
        spec = tiny_spec(seed=1)
        SweepRunner(jobs=1, store=store).run([spec])
        report = SweepRunner(jobs=1, store=store).run([spec], resume=True)
        assert report.attempts == {spec.key: 0}
        assert report.total_attempts == 0

    def test_pool_run_reports_attempts_too(self):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        report = run_sweep(specs, jobs=2)
        assert report.attempts == {s.key: 1 for s in specs}


class TestParallelEquivalence:
    def test_jobs_1_and_jobs_4_produce_identical_results(self):
        specs = [
            tiny_spec(campaign="baseline", seed=1),
            tiny_spec(campaign="rf_jamming", seed=1),
            tiny_spec(campaign="baseline", seed=2),
            tiny_spec(campaign="rf_jamming", seed=2),
        ]
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=4)
        assert serial.failed == 0 and parallel.failed == 0
        # records come back in spec order, so payloads must match pairwise
        assert [r["result"] for r in serial.records] == \
               [r["result"] for r in parallel.records]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
