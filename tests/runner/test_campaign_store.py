"""Unit tests for the SQLite campaign store, the engine binding, the
JSONL export and import, the retry policy, and the dispatcher's guards.

The store is the durable half of the self-healing campaign service: these
tests pin down the schema contract (WAL mode, campaigns/cells/attempts),
what the engine writes through ``CampaignBinding``, the JSONL export
format and its one-way import path, and the determinism of the retry
schedule.
"""

import json
import sqlite3
from contextlib import closing

import pytest

from repro.runner import (
    CampaignSchemaError,
    CampaignStore,
    CellRetryPolicy,
    LocalPoolDispatcher,
    RunSpec,
    SweepRunner,
    execute_run,
    export_jsonl,
    read_jsonl,
)

TINY = {
    "width": 160.0, "height": 160.0, "tree_density": 0.01,
    "n_workers": 1, "drone_enabled": False,
}


def tiny_spec(campaign="baseline", seed=1, **kwargs):
    kwargs.setdefault("overrides", TINY)
    return RunSpec.single(
        campaign, seed=seed, horizon_s=90.0,
        start=20.0, duration=40.0, **kwargs,
    )


class TestSchema:
    def test_database_is_wal_mode(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        with sqlite3.connect(store.path) as conn:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_schema_version_is_stamped(self, tmp_path):
        from repro.runner.campaign import CAMPAIGN_SCHEMA

        store = CampaignStore(tmp_path / "c.db")
        with sqlite3.connect(store.path) as conn:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
        assert version == CAMPAIGN_SCHEMA

    def test_other_schema_version_is_refused_and_left_unchanged(
            self, tmp_path):
        from repro.runner.campaign import CAMPAIGN_SCHEMA

        path = tmp_path / "c.db"
        future = CAMPAIGN_SCHEMA + 1
        with closing(sqlite3.connect(path)) as conn, conn:
            conn.execute("CREATE TABLE cells (key TEXT)")
            conn.execute(f"PRAGMA user_version = {future}")
        with pytest.raises(CampaignSchemaError) as info:
            CampaignStore(path)
        assert isinstance(info.value, ValueError)
        assert info.value.found == future
        assert f"version {future}" in str(info.value)
        assert f"version {CAMPAIGN_SCHEMA}" in str(info.value)
        with closing(sqlite3.connect(path)) as conn:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
            tables = [row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master ORDER BY name")]
        assert version == future
        assert tables == ["cells"]

    def test_parent_directory_is_created(self, tmp_path):
        CampaignStore(tmp_path / "deep" / "nested" / "c.db")
        assert (tmp_path / "deep" / "nested" / "c.db").exists()


class TestCampaignLifecycle:
    def test_ensure_campaign_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        first = store.ensure_campaign("night", specs)
        second = store.ensure_campaign("night", specs)
        assert first == second
        (summary,) = store.list_campaigns()
        assert summary["cells"] == 2

    def test_ensure_campaign_extends_a_grown_grid(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("night", [tiny_spec(seed=1)])
        store.ensure_campaign("night", [tiny_spec(seed=1), tiny_spec(seed=2)])
        (summary,) = store.list_campaigns()
        assert summary["cells"] == 2

    def test_specs_round_trip_in_declaration_order(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        specs = [tiny_spec(seed=3), tiny_spec(seed=1), tiny_spec(seed=2)]
        store.ensure_campaign("ordered", specs)
        assert store.specs("ordered") == specs

    def test_unknown_campaign_raises(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        with pytest.raises(ValueError, match="no campaign named"):
            store.specs("ghost")
        with pytest.raises(ValueError, match="no campaign named"):
            store.bind("ghost")

    def test_meta_round_trips(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("tagged", [], meta={"source": "test"})
        (summary,) = store.list_campaigns()
        assert summary["meta"] == {"source": "test"}


class TestBinding:
    def test_append_and_completed_keys_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        spec = tiny_spec(seed=1)
        store.ensure_campaign("rt", [spec])
        binding = store.bind("rt")
        assert binding.completed_keys() == {}
        record = {"key": spec.key, "spec": spec.to_dict(), "status": "ok",
                  "error": None, "result": {"x": 1}, "wall_s": 0.5,
                  "attempts": 1}
        binding.append(record)
        assert binding.completed_keys() == {spec.key: record}

    def test_failed_records_are_not_completed(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        spec = tiny_spec(seed=1)
        store.ensure_campaign("f", [spec])
        binding = store.bind("f")
        binding.append({"key": spec.key, "spec": spec.to_dict(),
                        "status": "failed", "error": "boom", "result": None})
        assert binding.completed_keys() == {}
        (cell,) = store.show("f")["cells_detail"]
        assert (cell["key"], cell["status"]) == (spec.key, "failed")

    def test_append_adopts_undeclared_cells(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("adhoc", [])
        binding = store.bind("adhoc")
        spec = tiny_spec(seed=9)
        binding.append({"key": spec.key, "spec": spec.to_dict(),
                        "status": "ok", "result": {}})
        assert store.specs("adhoc") == [spec]

    def test_attempts_are_recorded_and_queryable(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        spec = tiny_spec(seed=1)
        store.ensure_campaign("att", [spec])
        binding = store.bind("att")
        binding.mark_running(spec.key, 1)
        binding.record_attempt(spec.key, 1, status="lost",
                               error="worker died")
        binding.record_attempt(spec.key, 2, status="ok", wall_s=0.4,
                               pid=1234)
        rows = store.attempts("att", spec.key)
        assert [(r["attempt"], r["status"]) for r in rows] == \
               [(1, "lost"), (2, "ok")]
        assert rows[0]["error"] == "worker died"
        assert rows[1]["pid"] == 1234
        detail = store.show("att")
        (cell,) = detail["cells_detail"]
        assert cell["attempts"] == 2
        assert cell["status"] == "running"

    def test_mark_running_never_demotes_a_finished_cell(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        spec = tiny_spec(seed=1)
        store.ensure_campaign("done", [spec])
        binding = store.bind("done")
        binding.append({"key": spec.key, "spec": spec.to_dict(),
                        "status": "ok", "result": {}})
        binding.mark_running(spec.key, 2)
        detail = store.show("done")
        assert detail["cells_detail"][0]["status"] == "ok"


class TestEngineIntegration:
    def test_sweep_runner_writes_through_the_binding(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        store.ensure_campaign("run", specs)
        report = SweepRunner(jobs=1, store=store.bind("run")).run(specs)
        assert report.executed == 2
        (summary,) = store.list_campaigns()
        assert (summary["ok"], summary["pending"]) == (2, 0)
        # every execution left an attempt row
        assert len(store.attempts("run")) == 2

    def test_resume_executes_only_the_delta(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        store.ensure_campaign("delta", specs)
        binding = store.bind("delta")
        SweepRunner(jobs=1, store=binding).run([specs[0]])
        report = SweepRunner(jobs=1, store=binding).run(specs, resume=True)
        assert (report.executed, report.cached) == (1, 1)

    def test_campaign_results_match_jsonl_results(self, tmp_path):
        """The JSONL export carries exactly the results the store holds,
        and a store-less sweep computes the same ones."""
        specs = [tiny_spec(seed=1), tiny_spec(campaign="rf_jamming", seed=1)]
        plain = SweepRunner(jobs=1).run(specs)
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("parity", specs)
        via_db = SweepRunner(jobs=1, store=store.bind("parity")).run(specs)
        exported = read_jsonl(export_jsonl(via_db.records,
                                           tmp_path / "sweep.jsonl"))
        stored = store.bind("parity").completed_keys()
        assert [json.dumps(r["result"], sort_keys=True)
                for r in plain.records] == \
               [json.dumps(stored[s.key]["result"], sort_keys=True)
                for s in specs] == \
               [json.dumps(exported[s.key]["result"], sort_keys=True)
                for s in specs]


class TestJsonlImport:
    def test_import_promotes_records_and_synthesises_attempts(
        self, tmp_path
    ):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        jsonl = tmp_path / "legacy.jsonl"
        jsonl.write_text("".join(
            json.dumps(execute_run(spec.to_dict()), sort_keys=True) + "\n"
            for spec in specs
        ), encoding="utf-8")
        store = CampaignStore(tmp_path / "c.db")
        imported = store.import_jsonl(jsonl, "migrated")
        assert imported == {"campaign": "migrated", "cells": 2,
                            "ok": 2, "failed": 0}
        binding = store.bind("migrated")
        assert binding.completed_keys().keys() == \
               {spec.key for spec in specs}
        # one synthetic attempt per imported record
        assert len(store.attempts("migrated")) == 2
        # a resumed sweep over the imported campaign is all cache hits
        report = SweepRunner(jobs=1, store=binding).run(specs, resume=True)
        assert (report.executed, report.cached) == (0, 2)

    def test_import_tolerates_a_torn_tail(self, tmp_path):
        spec = tiny_spec(seed=1)
        path = tmp_path / "legacy.jsonl"
        record = {"key": spec.key, "spec": spec.to_dict(), "status": "ok",
                  "error": None, "result": {}, "wall_s": 0.1}
        path.write_text(json.dumps(record) + "\n" + '{"key": "tru',
                        encoding="utf-8")
        store = CampaignStore(tmp_path / "c.db")
        imported = store.import_jsonl(path, "torn")
        assert imported["cells"] == 1

    def test_import_refuses_a_line_that_is_not_a_record(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"key": "aa", "status": "ok"}\n[1, 2]\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=":2: not a run record"):
            CampaignStore(tmp_path / "c.db").import_jsonl(path, "bad")


def _record(key, status="ok", payload=0):
    return {"key": key, "status": status, "result": {"n": payload},
            "spec": {"campaign": "baseline"}}


class TestJsonlExport:
    def test_export_writes_sorted_json_lines_in_the_given_order(
        self, tmp_path
    ):
        records = [_record("bb", payload=2), _record("aa", payload=1)]
        path = export_jsonl(records, tmp_path / "deep" / "sweep.jsonl")
        assert path.read_text(encoding="utf-8").splitlines() == \
               [json.dumps(r, sort_keys=True) for r in records]
        assert not path.with_name("sweep.jsonl.tmp").exists()

    def test_export_replaces_the_previous_file(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        export_jsonl([_record("aa"), _record("bb")], path)
        export_jsonl([_record("cc")], path)
        assert set(read_jsonl(path)) == {"cc"}

    def test_reader_keeps_the_last_record_per_key(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        export_jsonl([_record("aa", payload=1), _record("aa", payload=2)],
                     path)
        assert read_jsonl(path)["aa"]["result"]["n"] == 2

    def test_reader_reads_a_missing_file_as_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == {}


class TestCellRetryPolicy:
    def test_should_retry_matrix(self):
        policy = CellRetryPolicy(max_attempts=3)
        assert policy.should_retry("lost", 1)
        assert policy.should_retry("timeout", 2)
        # attempt budget exhausted
        assert not policy.should_retry("lost", 3)
        # deterministic outcomes are always final
        assert not policy.should_retry("failed", 1)
        assert not policy.should_retry("error", 1)
        assert not policy.should_retry("ok", 1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = CellRetryPolicy(base_delay_s=0.1, backoff_factor=2.0,
                                 max_delay_s=0.35, jitter_s=0.0)
        spec = tiny_spec(seed=1)
        delays = [policy.delay_s(spec, a) for a in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.35, 0.35]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = CellRetryPolicy(base_delay_s=0.1, jitter_s=0.05)
        spec = tiny_spec(seed=1)
        first = policy.delay_s(spec, 1)
        assert first == policy.delay_s(spec, 1)
        assert 0.1 <= first <= 0.15
        # different attempts and seeds land on different jitter
        assert policy.delay_s(spec, 2) != policy.delay_s(spec, 1)
        assert policy.delay_s(tiny_spec(seed=2), 1) != first


class TestDispatcherRegistry:
    def test_dispatcher_rejects_zero_workers(self):
        for workers, timeout in ((0, None), (2, 0.0), (2, -1.0)):
            with pytest.raises(ValueError):
                LocalPoolDispatcher(workers, cell_timeout_s=timeout)
