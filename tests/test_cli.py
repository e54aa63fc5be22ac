"""Tests for the command-line interface."""

import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 42
        assert args.minutes == 15.0
        assert not args.undefended

    def test_attack_arguments(self):
        args = build_parser().parse_args(
            ["attack", "rf_jamming", "--seed", "7", "--undefended"]
        )
        assert args.campaign == "rf_jamming"
        assert args.seed == 7
        assert args.undefended

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert not args.resume
        assert args.out == "out/sweep.jsonl"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.sort == "cumulative"
        assert args.limit == 25
        assert not args.perf

    def test_run_metrics_flags(self):
        args = build_parser().parse_args(
            ["run", "--metrics-json", "out/m.json", "--metrics-interval", "2"]
        )
        assert args.metrics_json == "out/m.json"
        assert args.metrics_interval == 2.0
        assert build_parser().parse_args(["run"]).metrics_json is None

    def test_run_metrics_prom_and_interval_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.metrics_prom is None
        # None (not a number) so cmd_run can tell "not passed" apart
        # from an explicit interval and reject the dead-flag combination
        assert args.metrics_interval is None

    def test_trace_span_flags(self):
        args = build_parser().parse_args(["trace"])
        assert not args.spans
        assert args.flamegraph is None
        args = build_parser().parse_args(
            ["trace", "--spans", "--analyze", "t.jsonl",
             "--flamegraph", "t.folded"]
        )
        assert args.spans
        assert args.flamegraph == "t.folded"

    def test_status_parser(self):
        args = build_parser().parse_args(["status", "out/sweep"])
        assert args.path == "out/sweep"

    def test_progress_flags(self):
        assert not build_parser().parse_args(["sweep"]).progress
        assert build_parser().parse_args(["sweep", "--progress"]).progress
        assert not build_parser().parse_args(["fuzz"]).progress
        assert build_parser().parse_args(["fuzz", "--progress"]).progress

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.out == "out/trace.jsonl"
        assert args.campaign is None
        assert args.start == 120.0
        assert not args.check
        assert args.analyze is None
        assert not args.no_report


class TestCommands:
    def test_campaigns_lists_registry(self, capsys):
        assert main(["campaigns"]) == 0
        out = capsys.readouterr().out
        assert "rf_jamming" in out
        assert "gnss_spoofing" in out
        assert "eavesdropping" in out

    def test_run_short(self, capsys):
        assert main(["run", "--seed", "3", "--minutes", "3"]) == 0
        out = capsys.readouterr().out
        assert "delivery ratio" in out
        assert "violations" in out

    def test_attack_unknown_campaign(self, capsys):
        assert main(["attack", "zero_day"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_attack_short(self, capsys):
        assert main([
            "attack", "message_injection", "--seed", "3", "--minutes", "4",
            "--start", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "detection:" in out

    def test_attack_combined_accepts_a_duration(self, capsys):
        # "combined" stages its own durations; the flag must not crash it
        assert main([
            "attack", "combined", "--seed", "3", "--minutes", "1",
            "--start", "10", "--duration", "60",
        ]) == 0
        assert "detection:" in capsys.readouterr().out

    def test_assess(self, capsys):
        assert main(["assess"]) == 0
        out = capsys.readouterr().out
        assert "risk profile" in out
        assert "interplay findings" in out

    def test_assess_with_measures(self, capsys):
        assert main(["assess", "--measures", "secure_channel_aead",
                     "pki_mutual_auth"]) == 0
        assert "mean risk" in capsys.readouterr().out

    def test_sac_writes_exports(self, tmp_path, capsys):
        assert main(["sac", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "worksite_sac.md").exists()
        assert (tmp_path / "worksite_sac.dot").exists()
        assert "SAC:" in capsys.readouterr().out

    def test_profile_short(self, capsys):
        from repro.perf import counters

        was_active = counters.ACTIVE
        try:
            assert main(["profile", "--seed", "3", "--minutes", "1",
                         "--sort", "tottime", "--limit", "5", "--perf"]) == 0
        finally:
            counters.enable(was_active)
            counters.reset()
        out = capsys.readouterr().out
        assert "function calls" in out          # cProfile table
        assert "perf counters:" in out
        assert "medium.frames_tx" in out


class TestTraceCommand:
    def test_trace_records_checks_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "2",
            "--campaign", "rf_jamming", "--start", "20", "--duration", "60",
            "--out", out, "--check",
        ]) == 0
        text = capsys.readouterr().out
        assert "records valid" in text
        assert "per-link delivery" in text
        assert "detection latency" in text
        assert "attack-vs-defense timeline" in text

    def test_run_and_trace_print_the_same_availability(self, tmp_path,
                                                       capsys):
        # every outage is still open at the one-minute horizon: both
        # charge it to the horizon, neither reports an MTTR
        faults = ["--seed", "3", "--minutes", "1",
                  "--fault-campaign", "crash_brownout",
                  "--fault-start", "30", "--fault-duration", "60"]
        assert main(["run", *faults]) == 0
        ran = capsys.readouterr().out.splitlines()
        assert main(["trace", *faults,
                     "--out", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out.splitlines()
        run_lines = [line.split()[1:] for line in ran
                     if line.startswith("availability:")]
        block = traced[traced.index("availability:") + 1:]
        trace_lines = [line.split() for line in block[:len(run_lines)]]
        assert len(run_lines) == 3
        assert trace_lines == run_lines
        assert not [line for line in ran + traced if "MTTR" in line]

    def test_trace_leaves_guards_uninstalled(self, tmp_path):
        from repro.telemetry import tracer as trace

        assert main([
            "trace", "--seed", "3", "--minutes", "1",
            "--out", str(tmp_path / "t.jsonl"), "--no-report",
        ]) == 0
        assert trace.ACTIVE is False
        assert trace.TRACER is None

    def test_trace_combined_accepts_a_duration(self, tmp_path):
        assert main([
            "trace", "--seed", "3", "--minutes", "1",
            "--campaign", "combined", "--start", "10", "--duration", "60",
            "--out", str(tmp_path / "t.jsonl"), "--no-report",
        ]) == 0

    def test_trace_zero_duration_replays_clean(self, tmp_path, capsys):
        # a zero duration is armed as written in the header's spec, not
        # as an open-ended attack, so the replay oracle agrees with it
        out = str(tmp_path / "t.jsonl")
        assert main([
            "trace", "--seed", "3", "--minutes", "1",
            "--campaign", "rf_jamming", "--start", "10", "--duration", "0",
            "--out", out, "--no-report",
        ]) == 0
        assert main(["check", "--trace", out]) == 0

    def test_trace_unknown_campaign(self, tmp_path, capsys):
        assert main([
            "trace", "--campaign", "zero_day",
            "--out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_trace_analyze_existing_file(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "3", "--minutes", "1", "--out", out,
            "--no-report",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "--analyze", out, "--check"]) == 0
        text = capsys.readouterr().out
        assert "records valid" in text
        assert "per-link delivery" in text

    def test_trace_check_fails_on_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v":1,"i":0,"t":0.0,"type":"frame.bogus"}\n')
        assert main(["trace", "--analyze", str(bad), "--check"]) == 1
        assert "schema:" in capsys.readouterr().err

    def test_trace_spans_records_and_analyzes(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "2",
            "--campaign", "rf_jamming", "--start", "20", "--duration", "60",
            "--out", out, "--spans", "--check",
        ]) == 0
        text = capsys.readouterr().out
        assert "span records" in text
        assert "records valid" in text       # span records pass the schema
        assert "span analysis" in text
        assert "critical path:" in text
        folded = tmp_path / "trace.folded"
        assert main(["trace", "--analyze", out,
                     "--flamegraph", str(folded)]) == 0
        capsys.readouterr()
        lines = folded.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_flamegraph_requires_analyze(self, tmp_path, capsys):
        assert main(["trace", "--flamegraph",
                     str(tmp_path / "t.folded")]) == 2
        assert "--flamegraph requires --analyze" in capsys.readouterr().err

    def test_flamegraph_rejects_spanless_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "3", "--minutes", "1", "--out", out,
            "--no-report",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "--analyze", out,
                     "--flamegraph", str(tmp_path / "t.folded")]) == 2
        assert "no span records" in capsys.readouterr().err


class TestRunMetricsJson:
    def test_run_writes_metrics_snapshot(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main([
            "run", "--seed", "3", "--minutes", "2",
            "--metrics-json", str(out), "--metrics-interval", "5",
        ]) == 0
        assert "metrics:" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        worksite = snapshot["metrics"]["worksite"]
        assert worksite["counters"]["comms.frames_sent"] > 0
        assert "comms.delivery_ratio" in worksite["gauges"]
        series = worksite["series"]["comms.delivery_ratio"]
        assert series["count"] > 0
        assert {"p50", "p95"} <= set(series)

    def test_run_writes_prometheus_exposition(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main([
            "run", "--seed", "3", "--minutes", "2",
            "--metrics-prom", str(out),
        ]) == 0
        assert "metrics (prom):" in capsys.readouterr().out
        text = out.read_text()
        assert "# TYPE repro_worksite_comms_frames_sent_total counter" in text
        assert 'quantile="0.95"' in text

    def test_metrics_interval_without_output_is_an_error(self, capsys):
        assert main(["run", "--minutes", "1",
                     "--metrics-interval", "2"]) == 2
        err = capsys.readouterr().err
        assert "--metrics-interval has no effect" in err


class TestSweepCommand:
    SMALL = ["--campaigns", "baseline,rf_jamming", "--seeds", "11",
             "--minutes", "1", "--start", "10", "--duration", "30"]

    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", *self.SMALL, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "2 runs" in text
        assert "2 executed, 0 cached" in text
        assert "sweep aggregate" in text
        # re-running with --resume serves everything from the store
        assert main(["sweep", *self.SMALL, "--out", out, "--resume",
                     "--quiet", "--no-table"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_sweep_unknown_campaign_is_a_spec_error(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "zero_day",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown campaigns" in capsys.readouterr().err

    def test_sweep_rejects_nonpositive_jobs(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "1",
                     "--jobs", "0",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "grid.toml"
        spec.write_text(
            'campaigns = ["baseline"]\nseeds = [3]\nhorizon_s = 60.0\n'
        )
        assert main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "s.jsonl"), "--quiet",
                     "--no-table"]) == 0
        assert "1 runs" in capsys.readouterr().out

    def test_sweep_writes_status_json(self, tmp_path, capsys):
        import json

        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        capsys.readouterr()
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["total"] == 2
        assert status["done"] == 2
        assert status["pending"] == 0
        assert status["kind"] == "sweep"

    def test_sweep_progress_prints_summary_lines(self, tmp_path, capsys):
        assert main(["sweep", *self.SMALL, "--no-table", "--progress",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "[sweep] 2/2 done" in out

    def test_sweep_prints_healing_summary(self, tmp_path, capsys):
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "2 over 2 executed cell(s)" in out
        assert "0 stall warning(s)" in out

    def test_sweep_rejects_nonpositive_max_attempts(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "1",
                     "--max-attempts", "0",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "--max-attempts must be >= 1" in capsys.readouterr().err

    def test_sweep_into_campaign_db(self, tmp_path, capsys):
        from repro.runner import CampaignStore

        db = str(tmp_path / "campaigns.db")
        out = str(tmp_path / "export" / "sweep.jsonl")
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--campaign-db", db, "--out", out]) == 0
        assert "2 executed" in capsys.readouterr().out
        # resume against the DB serves everything from the campaign
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--campaign-db", db, "--out", out, "--resume"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out
        (summary,) = CampaignStore(db).list_campaigns()
        assert summary["name"] == "sweep"
        assert summary["ok"] == 2
        # status.json lands next to the DB, not next to --out
        assert (tmp_path / "status.json").exists()
        assert not (tmp_path / "export" / "status.json").exists()

    def test_sweep_defaults_its_store_beside_out(self, tmp_path, capsys):
        import json

        from repro.runner import CampaignStore

        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--out", str(out)]) == 0
        assert "store=" + str(tmp_path / "sweep.db") in \
               capsys.readouterr().out
        (summary,) = CampaignStore(tmp_path / "sweep.db").list_campaigns()
        assert (summary["name"], summary["ok"]) == ("sweep", 2)
        # --out is the export: one sorted-key JSON line per cell
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.dumps(json.loads(line), sort_keys=True) == line
                   for line in lines)

    def test_sweep_promotes_a_legacy_jsonl_store(self, tmp_path, capsys):
        import json

        from repro.cli import _sweep_spec_from_args
        from repro.runner import CampaignStore, execute_run

        args = build_parser().parse_args(["sweep", *self.SMALL])
        legacy = [
            json.dumps(execute_run(spec.to_dict()), sort_keys=True)
            for spec in _sweep_spec_from_args(args).expand()
        ]
        out = tmp_path / "sweep.jsonl"
        out.write_text("".join(line + "\n" for line in legacy),
                       encoding="utf-8")
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--out", str(out), "--resume"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out
        rewritten = out.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["result"] for line in rewritten] == \
               [json.loads(line)["result"] for line in legacy]
        # the promoted cells carry one synthesised attempt each
        (summary,) = CampaignStore(tmp_path / "sweep.db").list_campaigns()
        assert (summary["ok"], summary["attempts"]) == (2, 2)

    def test_sweep_refuses_to_export_over_its_database(self, tmp_path,
                                                       capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "1",
                     "--out", str(tmp_path / "s.db")]) == 2
        assert "is the campaign database" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_rejects_nonpositive_cell_timeout(self, tmp_path, capsys):
        db = tmp_path / "c.db"
        for command in (
            ["sweep", "--campaigns", "baseline", "--seeds", "1",
             "--out", str(tmp_path / "s.jsonl")],
            ["campaign", "start", "night", "--db", str(db),
             "--campaigns", "baseline", "--seeds", "1"],
            ["campaign", "resume", "night", "--db", str(db)],
        ):
            assert main([*command, "--cell-timeout", "-1"]) == 2
            assert "--cell-timeout must be > 0" in capsys.readouterr().err
        # refused before any store was opened
        assert list(tmp_path.iterdir()) == []


class TestCampaignCommand:
    GRID = ["--campaigns", "baseline", "--seeds", "11,12",
            "--minutes", "1", "--start", "10", "--duration", "30"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "start", "night"])
        assert args.name == "night"
        assert args.db == "out/campaigns.db"
        assert args.jobs == 1
        assert args.max_attempts is None
        assert args.cell_timeout is None
        assert args.from_jsonl is None
        args = build_parser().parse_args(["campaign", "show", "night",
                                          "--attempts"])
        assert args.attempts

    def test_start_run_and_show(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'night': 2 cell(s)" in out
        assert "2 executed" in out
        assert main(["campaign", "show", "night", "--db", db,
                     "--attempts"]) == 0
        out = capsys.readouterr().out
        assert "2 total, 2 ok" in out
        assert "attempt history:" in out
        assert "#1 ok" in out

    def test_start_requires_a_grid_or_import(self, tmp_path, capsys):
        assert main(["campaign", "start", "empty",
                     "--db", str(tmp_path / "c.db")]) == 2
        assert "give a sweep grid" in capsys.readouterr().err

    def test_start_refuses_an_existing_name(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        capsys.readouterr()
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID]) == 2
        assert "use 'campaign resume'" in capsys.readouterr().err

    def test_resume_completes_the_remainder(self, tmp_path, capsys):
        from repro.runner import CampaignStore

        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        capsys.readouterr()
        # a completed campaign resumes to all-cached, not re-execution
        assert main(["campaign", "resume", "night", "--db", db,
                     "--quiet", "--no-table"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out
        (summary,) = CampaignStore(db).list_campaigns()
        assert summary["attempts"] == 2

    def test_resume_unknown_campaign_errors(self, tmp_path, capsys):
        assert main(["campaign", "resume", "ghost",
                     "--db", str(tmp_path / "c.db")]) == 2
        assert "no campaign named" in capsys.readouterr().err

    STORE_COMMANDS = [
        ["campaign", "start", "night", "--db", "{db}",
         "--campaigns", "baseline", "--seeds", "11"],
        ["campaign", "resume", "night", "--db", "{db}"],
        ["campaign", "list", "--db", "{db}"],
        ["campaign", "show", "night", "--db", "{db}"],
        ["sweep", "--campaigns", "baseline", "--seeds", "11",
         "--campaign-db", "{db}", "--out", "{db}.jsonl"],
    ]

    @pytest.mark.parametrize("command", STORE_COMMANDS)
    def test_other_schema_version_exits_2(self, tmp_path, capsys, command):
        db = tmp_path / "c.db"
        with closing(sqlite3.connect(db)) as conn, conn:
            conn.execute("PRAGMA user_version = 2")
        before = db.read_bytes()
        assert main([arg.format(db=db) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command[0]} error: ")
        assert "schema version 2" in err
        assert "Traceback" not in err
        assert db.read_bytes() == before

    @pytest.mark.parametrize("command", STORE_COMMANDS)
    def test_not_an_sqlite_database_exits_2(self, tmp_path, capsys,
                                            command):
        db = tmp_path / "c.db"
        db.write_text("these are notes, not a campaign store\n")
        before = db.read_bytes()
        assert main([arg.format(db=db) for arg in command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{command[0]} error: ")
        assert "cannot be read as an SQLite database" in err[0]
        assert db.read_bytes() == before

    #: a JSON column holding what the store never writes: ``{id:
    #: (command, column, text)}``.  Each was a traceback, except the
    #: array spec and the spec that is not a run spec, refused without
    #: naming the database or the column.
    BAD_COLUMNS = {
        "resume-record-not-json": (
            ["campaign", "resume", "night"], "cells.record", "{not json"),
        "resume-record-nan": (
            ["campaign", "resume", "night"], "cells.record",
            '{"key": NaN}'),
        "resume-record-without-spec": (
            ["campaign", "resume", "night"], "cells.record",
            '{"key": "aa", "status": "ok"}'),
        "resume-spec-not-json": (
            ["campaign", "resume", "night"], "cells.spec", "[1,2"),
        "show-spec-not-json": (
            ["campaign", "show", "night"], "cells.spec", "[1,2"),
        "show-spec-not-an-object": (
            ["campaign", "show", "night"], "cells.spec", "[1, 2]"),
        "list-meta-not-json": (
            ["campaign", "list"], "campaigns.meta", "nope"),
        "show-spec-not-a-run-spec": (
            ["campaign", "show", "night"], "cells.spec",
            '{"seed": "x", "horizon_s": 20.0}'),
        "resume-spec-not-a-run-spec": (
            ["campaign", "resume", "night"], "cells.spec",
            '{"seed": "x", "horizon_s": 20.0}'),
    }

    @pytest.mark.parametrize("command, column, text", BAD_COLUMNS.values(),
                             ids=BAD_COLUMNS.keys())
    def test_json_column_that_is_not_an_object_exits_2(
        self, tmp_path, capsys, command, column, text
    ):
        from repro.runner import CampaignStore, RunSpec

        db = tmp_path / "c.db"
        store = CampaignStore(db)
        spec = RunSpec.single("baseline", seed=11, horizon_s=20.0)
        store.ensure_campaign("night", [spec])
        store.bind("night").append({"key": spec.key, "spec": spec.to_dict(),
                                    "status": "ok", "result": {}})
        table, field = column.split(".")
        with closing(sqlite3.connect(db)) as conn, conn:
            conn.execute(f"UPDATE {table} SET {field} = ?", (text,))
        with closing(sqlite3.connect(db)) as conn:
            before = list(conn.iterdump())
        assert main([*command, "--db", str(db)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("campaign error: ")
        assert "campaign 'night'" in lines[0] and column in lines[0]
        with closing(sqlite3.connect(db)) as conn:
            assert list(conn.iterdump()) == before
        assert not (tmp_path / "status.json").exists()  # no cell ran

    def test_import_of_a_spec_that_does_not_convert_names_the_file(
        self, tmp_path, capsys
    ):
        jsonl = tmp_path / "old.jsonl"
        jsonl.write_text('{"key": "aa", "spec": {"seed": "x"}}\n',
                         encoding="utf-8")
        assert main(["campaign", "start", "night", "--db",
                     str(tmp_path / "c.db"), "--from-jsonl",
                     str(jsonl)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("campaign error: ")
        assert f"{jsonl}: record aa: " in lines[0]

    def test_list_campaigns(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "list", "--db", db]) == 0
        assert "no campaigns" in capsys.readouterr().out
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        capsys.readouterr()
        assert main(["campaign", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "night" in out
        assert "attempts" in out

    def test_start_from_jsonl_import(self, tmp_path, capsys):
        jsonl = str(tmp_path / "legacy.jsonl")
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "11",
                     "--minutes", "1", "--quiet", "--no-table",
                     "--out", jsonl]) == 0
        capsys.readouterr()
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "migrated", "--db", db,
                     "--from-jsonl", jsonl, "--quiet", "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "imported 1 cell(s)" in out
        # the imported cell is already ok: nothing re-executes
        assert "0 executed, 1 cached" in out


class TestStatusCommand:
    def test_status_of_finished_sweep(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "11",
                     "--minutes", "1", "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign: sweep" in out
        assert "1/1 done" in out

    def test_status_accepts_the_file_itself(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "11",
                     "--minutes", "1", "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path / "status.json")]) == 0
        assert "1/1 done" in capsys.readouterr().out

    def test_status_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err


class TestCheckCommand:
    def _record(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "1",
            "--campaign", "rf_jamming", "--start", "15", "--duration", "30",
            "--out", out, "--no-report",
        ]) == 0
        capsys.readouterr()
        return out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["check", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"
        assert args.report is None
        assert not args.no_replay
        assert not args.selftest

    def test_check_requires_a_target(self, capsys):
        assert main(["check"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_clean_trace_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out = self._record(tmp_path, capsys)
        report_path = tmp_path / "report.json"
        assert main(["check", "--trace", out,
                     "--report", str(report_path)]) == 0
        text = capsys.readouterr().out
        assert "verdict" in text
        report = json.loads(report_path.read_text())
        assert report["ok"]
        assert report["invariants"]["violations"] == 0
        assert report["replay"]["performed"] is True
        assert report["replay"]["divergences"] == 0

    def test_tampered_trace_fails(self, tmp_path, capsys):
        import json

        out = self._record(tmp_path, capsys)
        lines = open(out).read().splitlines()
        record = json.loads(lines[10])
        record["t"] = record["t"] - 100.0
        lines[10] = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )
        open(out, "w").write("\n".join(lines) + "\n")
        assert main(["check", "--trace", out]) == 1
        assert "clock.monotonic" in capsys.readouterr().out

    def test_no_replay_skips_the_differential_pass(self, tmp_path, capsys):
        out = self._record(tmp_path, capsys)
        assert main(["check", "--trace", out, "--no-replay"]) == 0
        assert "replay" in capsys.readouterr().out.lower()

    def test_missing_trace_is_a_usage_error(self, tmp_path, capsys):
        assert main(["check", "--trace",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "check error" in capsys.readouterr().err

    def test_selftest_detects_every_seeded_violation(self, capsys):
        from repro.invariants.selftest import MUTATIONS

        assert main(["check", "--selftest"]) == 0
        text = capsys.readouterr().out
        n = len(MUTATIONS)
        assert f"{n}/{n} seeded violations detected" in text
        assert "MISSED" not in text

    def test_jittered_fault_schedule_replays_clean(self, tmp_path, capsys):
        # the storm schedule jitters its starts: the header's spec must
        # carry the realised starts, or the replay injects at the nominal
        # ones and diverges from the recording
        storm = Path(__file__).resolve().parents[1] / "examples" / \
            "faults_storm.toml"
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "12", "--minutes", "1",
            "--faults", str(storm), "--campaign", "wifi_deauth",
            "--start", "30", "--out", out, "--no-report",
        ]) == 0
        capsys.readouterr()
        assert main(["check", "--trace", out]) == 0
        # ...and the run keeps its jitter: the header carries the realised
        # starts, and the first fault fires at the first of them
        from repro.faults.spec import load_fault_schedule
        from repro.sim.rng import RngStreams
        from repro.telemetry.writer import read_trace

        realised = load_fault_schedule(str(storm)).resolve(RngStreams(12))
        records = read_trace(out)
        starts = [fault[2] for fault in records[0]["spec"]["faults"]]
        assert starts == [fault.start_s for fault in realised]
        first = next(r for r in records if r["type"] == "fault.inject")
        assert first["t"] == round(realised[0].start_s, 6) != 30.0

    def test_check_leaves_guards_uninstalled(self, tmp_path, capsys):
        from repro.telemetry import tracer as trace

        out = self._record(tmp_path, capsys)
        assert main(["check", "--trace", out]) == 0
        assert trace.ACTIVE is False and trace.TRACER is None


class TestRunWithChecking:
    def test_run_under_repro_check_reports_clean(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert main(["run", "--seed", "11", "--minutes", "1"]) == 0
        assert "invariants:" in capsys.readouterr().out

    def test_trace_under_repro_check_embeds_spec(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        monkeypatch.setenv("REPRO_CHECK", "1")
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "1",
            "--campaign", "rf_jamming", "--start", "15", "--duration", "30",
            "--out", out, "--no-report",
        ]) == 0
        assert "invariants:" in capsys.readouterr().out
        meta = json.loads(open(out).readline())
        assert meta["type"] == "trace.meta"
        assert meta["spec"]["seed"] == 11
        assert meta["spec"]["campaign"] == "rf_jamming"

    def test_spanned_trace_under_repro_check_is_clean(
        self, monkeypatch, tmp_path, capsys
    ):
        # the online engine must observe the header (run span) and the
        # close (end-of-trace span ends), or span discipline false-fires
        monkeypatch.setenv("REPRO_CHECK", "1")
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "1", "--spans",
            "--out", out, "--no-report",
        ]) == 0
        assert "12 checked, 0 violation(s)" in capsys.readouterr().out


class TestNonFiniteInputs:
    """A non-finite number exits 2 with one stderr line, no traceback."""

    def _refused(self, capsys, argv, reason="run spec has a non-finite number"):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and reason in err[0], err

    def test_run_minutes_nan(self, capsys):
        self._refused(capsys, ["run", "--minutes", "nan"])

    def test_trace_start_nan(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        self._refused(capsys, [
            "trace", "--minutes", "1", "--campaign", "rf_jamming",
            "--start", "nan", "--out", str(out),
        ])
        assert not out.exists()

    def test_sweep_spec_attack_start_nan(self, tmp_path, capsys):
        spec = tmp_path / "grid.toml"
        spec.write_text('campaigns = ["rf_jamming"]\nseeds = [1]\n'
                        'horizon_s = 30.0\nattack_start = nan\n')
        out = tmp_path / "s.jsonl"
        self._refused(capsys, ["sweep", "--spec", str(spec),
                               "--out", str(out)])
        assert not out.exists() and not out.with_suffix(".db").exists()

    def test_run_fault_file_start_nan(self, tmp_path, capsys):
        faults = tmp_path / "faults.toml"
        faults.write_text('[[fault]]\nkind = "node_crash"\n'
                          'target = "drone"\nstart = nan\nduration = 5.0\n')
        self._refused(capsys, ["run", "--minutes", "1",
                               "--faults", str(faults)],
                      reason="fault start must be finite")


_META = '{"i":0,"schema":1,"t":0.0,"type":"trace.meta","v":1}\n'
_STATE = ('{"failures": 0, "heatmap": {}, "iterations_done": 0, '
          '"schema": 1, "seed": 42, "seed_signatures": 0, '
          '"unshrinkable": 0}')
_FUZZ = ["fuzz", "--corpus", "{tmp}/fz", "--iterations", "0", "--quiet"]
#: a sensor fault on a sensor the worksite lacks (a KeyError when it fired)
_UNKNOWN_SENSOR = ('[[fault]]\nkind = "sensor_freeze"\n'
                   'target = "cam-nowhere"\nstart = 10.0\nduration = 5.0\n')
#: a node fault on a node the worksite lacks (a silent no-op when it fired)
_UNKNOWN_NODE = ('[[fault]]\nkind = "node_crash"\n'
                 'target = "nowhere"\nstart = 5.0\nduration = 5.0\n')
_NEGATIVE_JITTER = ('jitter_s = -5.0\n\n[[fault]]\nkind = "node_crash"\n'
                    'target = "drone"\nstart = 10.0\n')
#: the head of a crash_brownout trace whose header horizon is a string
_STRING_HORIZON = (
    '{"horizon_s":"60","i":0,"schema":1,"t":0.0,"type":"trace.meta","v":1}\n'
    '{"fault":"node_crash","i":1,"t":30.0,"target":"drone",'
    '"type":"fault.inject","v":1}\n'
    '{"cause":"node_crash","i":2,"machine":"drone","service":"compute",'
    '"t":30.0,"type":"service.down","v":1}\n')


def _campaign_night(path):
    from repro.runner import CampaignStore

    CampaignStore(path).ensure_campaign("night", [])


#: one case per refusal a command makes of its flags or files: ``{id:
#: (argv, files)}``.  ``{tmp}`` is the test directory; a file is its text,
#: or a function that builds it.
REFUSALS = {
    "run-metrics-interval": (["run", "--metrics-interval", "2"], {}),
    "run-faults-missing": (["run", "--faults", "{tmp}/none.toml"], {}),
    "run-faults-malformed": (["run", "--faults", "{tmp}/f.toml"],
                             {"f.toml": "[[fault]\n"}),
    "run-fault-campaign-unknown": (["run", "--fault-campaign", "nope"], {}),
    "run-faults-and-campaign": (["run", "--faults", "{tmp}/f.toml",
                                 "--fault-campaign", "crash_brownout"],
                                {"f.toml": ""}),
    "attack-unknown": (["attack", "zero_day"], {}),
    "attack-minutes-nan": (["attack", "rf_jamming", "--minutes", "nan"], {}),
    "profile-minutes-nan": (["profile", "--minutes", "nan"], {}),
    "trace-flamegraph-without-analyze": (
        ["trace", "--flamegraph", "{tmp}/t.folded"], {}),
    "trace-unknown-campaign": (
        ["trace", "--campaign", "zero_day", "--out", "{tmp}/t.jsonl"], {}),
    "trace-gs-attacks-without-gs": (
        ["trace", "--gs-attacks", "command_forgery",
         "--out", "{tmp}/t.jsonl"], {}),
    "trace-faults-and-campaign": (
        ["trace", "--faults", "{tmp}/f.toml", "--fault-campaign",
         "crash_brownout", "--out", "{tmp}/t.jsonl"], {"f.toml": ""}),
    "trace-flamegraph-without-spans": (
        ["trace", "--analyze", "{tmp}/t.jsonl",
         "--flamegraph", "{tmp}/t.folded"], {"t.jsonl": _META}),
    "check-without-trace": (["check"], {}),
    "check-missing-trace": (["check", "--trace", "{tmp}/none.jsonl"], {}),
    "check-non-json-line": (["check", "--trace", "{tmp}/t.jsonl"],
                            {"t.jsonl": _META + "nope\n"}),
    "check-spec-horizon-not-a-number": (
        ["check", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"spec":{"horizon_s":"abc"},"t":0.0,'
                    '"type":"trace.meta","v":1}\n'}),
    "audit-without-file": (["audit", "verify"], {}),
    "audit-missing-file": (["audit", "verify", "--audit", "{tmp}/a.jsonl"],
                           {}),
    "audit-not-an-audit-log": (
        ["audit", "verify", "--audit", "{tmp}/a.jsonl"],
        {"a.jsonl": '{"x": 1}\n'}),
    "audit-header-seed-not-an-integer": (
        ["audit", "verify", "--audit", "{tmp}/a.jsonl"],
        {"a.jsonl": '{"audit":1,"genesis":"00","seed":"abc"}\n'}),
    "fuzz-existing-corpus-without-resume": (
        _FUZZ, {"fz/state.json": _STATE}),
    "fuzz-resume-other-seed": (
        [*_FUZZ, "--seed", "5", "--resume"], {"fz/state.json": _STATE}),
    "fuzz-resume-state-other-schema": (
        [*_FUZZ, "--resume"], {"fz/state.json": '{"schema": 99}'}),
    "fuzz-resume-coverage-not-json": (
        [*_FUZZ, "--resume"],
        {"fz/state.json": _STATE, "fz/coverage.json": "nope"}),
    "fuzz-resume-corpus-line-not-json": (
        [*_FUZZ, "--resume"],
        {"fz/state.json": _STATE, "fz/corpus.jsonl": "nope\n"}),
    "sweep-seeds-not-integers": (
        ["sweep", "--seeds", "a", "--out", "{tmp}/s.jsonl"], {}),
    "sweep-unknown-campaign": (
        ["sweep", "--campaigns", "zero_day", "--out", "{tmp}/s.jsonl"], {}),
    "sweep-unknown-fault-campaign": (
        ["sweep", "--fault-campaign", "nope", "--out", "{tmp}/s.jsonl"], {}),
    "sweep-jobs-zero": (
        ["sweep", "--jobs", "0", "--out", "{tmp}/s.jsonl"], {}),
    "sweep-spec-missing": (
        ["sweep", "--spec", "{tmp}/none.toml", "--out", "{tmp}/s.jsonl"],
        {}),
    "sweep-spec-unknown-key": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": "bogus = 1\n"}),
    "sweep-zero-runs": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = [1]\nprofiles = []\n'}),
    "sweep-out-is-the-database": (
        ["sweep", "--seeds", "1", "--out", "{tmp}/s.db"], {}),
    "sweep-legacy-line-not-a-record": (
        ["sweep", "--seeds", "1", "--out", "{tmp}/s.jsonl"],
        {"s.jsonl": "[1, 2]\n"}),
    "campaign-start-max-attempts-zero": (
        ["campaign", "start", "night", "--db", "{tmp}/c.db",
         "--seeds", "1", "--max-attempts", "0"], {}),
    "campaign-start-existing-name": (
        ["campaign", "start", "night", "--db", "{tmp}/c.db", "--seeds", "1"],
        {"c.db": _campaign_night}),
    "campaign-start-without-grid": (
        ["campaign", "start", "night", "--db", "{tmp}/c.db"], {}),
    "campaign-start-seeds-not-integers": (
        ["campaign", "start", "night", "--db", "{tmp}/c.db",
         "--seeds", "a"], {}),
    "campaign-start-import-record-without-spec": (
        ["campaign", "start", "night", "--db", "{tmp}/c.db",
         "--from-jsonl", "{tmp}/old.jsonl"],
        {"old.jsonl": '{"key": "aa", "status": "ok"}\n'}),
    "campaign-start-import-attempts-not-an-integer": (
        ["campaign", "start", "night", "--db", "{tmp}/c.db",
         "--from-jsonl", "{tmp}/old.jsonl"],
        {"old.jsonl": '{"attempts": "x", "key": "aa", "spec": {}}\n'}),
    "campaign-resume-jobs-zero": (
        ["campaign", "resume", "night", "--db", "{tmp}/c.db", "--jobs", "0"],
        {}),
    "campaign-resume-unknown": (
        ["campaign", "resume", "ghost", "--db", "{tmp}/c.db"], {}),
    "campaign-show-unknown": (
        ["campaign", "show", "ghost", "--db", "{tmp}/c.db"], {}),
    "status-missing": (["status", "{tmp}"], {}),
    "status-truncated": (["status", "{tmp}/status.json"],
                         {"status.json": '{"schema": 2, "done"'}),
}

#: artefacts that are malformed, empty or of another version, and one
#: flag value, that must be refused rather than read (a traceback, or a
#: quiet exit 0, before readers failed closed): ``{id: (argv, files)}``
MALFORMED = {
    "check-line-not-an-object": (["check", "--trace", "{tmp}/t.jsonl"],
                                 {"t.jsonl": _META + "[1, 2]\n"}),
    "trace-analyze-line-not-an-object": (
        ["trace", "--analyze", "{tmp}/t.jsonl"],
        {"t.jsonl": _META + "[1, 2]\n"}),
    "trace-analyze-line-not-json": (
        ["trace", "--analyze", "{tmp}/t.jsonl"],
        {"t.jsonl": _META + "nope\n"}),
    "trace-analyze-missing": (["trace", "--analyze", "{tmp}/t.jsonl"], {}),
    "trace-analyze-horizon-a-string": (
        ["trace", "--analyze", "{tmp}/t.jsonl"],
        {"t.jsonl": _STRING_HORIZON}),
    "trace-analyze-record-missing-a-field": (
        ["trace", "--analyze", "{tmp}/t.jsonl"],
        {"t.jsonl": _META + '{"i":1,"t":1.0,"type":"fault.inject","v":1}\n'}),
    "check-future-trace-version": (
        ["check", "--no-replay", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"t":0.0,"type":"trace.meta","v":2}\n'
                    '{"i":1,"t":1.0,"type":"trace.end","v":2}\n'}),
    "check-empty-trace": (["check", "--trace", "{tmp}/t.jsonl"],
                          {"t.jsonl": ""}),
    "check-spec-not-an-object": (
        ["check", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"spec":[1,2],"t":0.0,'
                    '"type":"trace.meta","v":1}\n'}),
    "status-other-schema": (["status", "{tmp}/status.json"],
                            {"status.json": '{"schema": 99}'}),
    "status-not-an-object": (["status", "{tmp}/status.json"],
                             {"status.json": "[1]"}),
    "status-field-of-the-wrong-type": (
        ["status", "{tmp}/status.json"],
        {"status.json": '{"schema": 2, "running": 5}'}),
    "fuzz-resume-state-not-an-object": (
        [*_FUZZ, "--resume"], {"fz/state.json": "[1, 2]"}),
    "fuzz-resume-state-without-counters": (
        [*_FUZZ, "--seed", "42", "--resume"],
        {"fz/state.json": '{"schema": 1, "seed": 42}'}),
    "sweep-spec-campaigns-not-a-list": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": "campaigns = 5\n"}),
    "sweep-spec-seed-not-an-integer": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = [true, 2]\n'
                   "horizon_s = 5.0\n"}),
    "sweep-spec-campaigns-a-string": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = "baseline"\nseeds = [1]\nhorizon_s = 5.0\n'}),
    "sweep-spec-variants-a-string": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = [1]\nhorizon_s = 5.0\n'
                   'variants = "fast"\n'}),
    "sweep-spec-variant-an-array-of-pairs": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = [1]\nhorizon_s = 5.0\n'
                   '[variants]\nfast = [["drone_enabled", false]]\n'}),
    "sweep-spec-seeds-not-an-array": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = 5\nhorizon_s = 5.0\n'}),
    "sweep-spec-profiles-a-string": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = [1]\n'
                   'profiles = "defended"\nhorizon_s = 5.0\n'}),
    "sweep-spec-ids-families-a-string": (
        ["sweep", "--spec", "{tmp}/g.toml", "--out", "{tmp}/s.jsonl"],
        {"g.toml": 'campaigns = ["baseline"]\nseeds = [1]\n'
                   'ids_families = "signature"\nhorizon_s = 5.0\n'}),
    "run-fault-without-kind": (
        ["run", "--faults", "{tmp}/f.toml"],
        {"f.toml": '[[fault]]\ntarget = "drone"\n'}),
    "run-fault-not-a-table": (["run", "--faults", "{tmp}/f.toml"],
                              {"f.toml": "fault = 5\n"}),
    "run-fault-unknown-sensor-target": (
        ["run", "--minutes", "0.5", "--faults", "{tmp}/f.toml"],
        {"f.toml": _UNKNOWN_SENSOR}),
    "run-fault-unknown-node-target": (
        ["run", "--seed", "11", "--minutes", "0.3", "--faults",
         "{tmp}/f.toml"], {"f.toml": _UNKNOWN_NODE}),
    "run-fault-negative-jitter": (
        ["run", "--seed", "11", "--minutes", "0.3", "--faults",
         "{tmp}/f.toml"], {"f.toml": _NEGATIVE_JITTER}),
    "run-fault-start-not-a-number": (
        ["run", "--seed", "11", "--minutes", "0.3", "--faults",
         "{tmp}/f.toml"],
        {"f.toml": '[[fault]]\nkind = "node_crash"\ntarget = "drone"\n'
                   "start = true\nduration = 5.0\n"}),
    "trace-fault-unknown-sensor-target": (
        ["trace", "--minutes", "0.5", "--faults", "{tmp}/f.toml",
         "--out", "{tmp}/t.jsonl"], {"f.toml": _UNKNOWN_SENSOR}),
    "check-spec-fault-unknown-sensor-target": (
        ["check", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"spec":{"faults":[["sensor_freeze",'
                    '"cam-nowhere",10.0,5.0,[]]],"horizon_s":12.0},'
                    '"t":0.0,"type":"trace.meta","v":1}\n'}),
    "check-spec-seed-not-an-integer": (
        ["check", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"spec":{"horizon_s":12.0,"seed":true},'
                    '"t":0.0,"type":"trace.meta","v":1}\n'}),
    "check-spec-plan-step-an-object": (
        ["check", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"spec":{"horizon_s":25.0,"plan":[{"campaign":'
                    '"wifi_deauth","duration":null,"start":5.0}]},'
                    '"t":0.0,"type":"trace.meta","v":1}\n'}),
    "check-spec-plan-repeats-a-campaign": (
        ["check", "--trace", "{tmp}/t.jsonl"],
        {"t.jsonl": '{"i":0,"spec":{"horizon_s":25.0,"plan":['
                    '["wifi_deauth",5.0,null],["wifi_deauth",15.0,null]]},'
                    '"t":0.0,"type":"trace.meta","v":1}\n'}),
    "trace-gs-attack-unknown": (
        ["trace", "--gs", "--gs-attacks", "bogus", "--minutes", "0.1",
         "--out", "{tmp}/t.jsonl"], {}),
}


#: what the one stderr line must name, for the MALFORMED cases that pin
#: it: ``{id: (text, ...)}``, ``{tmp}`` being the test directory
NAMED = {
    "sweep-spec-campaigns-a-string": ("{tmp}/g.toml: campaigns ",),
    "sweep-spec-variants-a-string": ("{tmp}/g.toml: variants ",),
    "sweep-spec-variant-an-array-of-pairs": ("{tmp}/g.toml: variants.fast ",),
    "sweep-spec-seeds-not-an-array": ("{tmp}/g.toml: seeds ",),
    "sweep-spec-profiles-a-string": ("{tmp}/g.toml: profiles ",),
    "sweep-spec-ids-families-a-string": ("{tmp}/g.toml: ids_families ",),
    "check-spec-seed-not-an-integer": ("{tmp}/t.jsonl: trace.meta spec: ",
                                       "seed must be an integer"),
    "check-spec-plan-step-an-object": (
        "{tmp}/t.jsonl: trace.meta spec: ",
        "plan step must be a [campaign, start, duration] array"),
    "trace-analyze-horizon-a-string": ("{tmp}/t.jsonl: trace.meta horizon_s ",
                                       "must be a number"),
    "trace-analyze-record-missing-a-field": (
        "{tmp}/t.jsonl: record 1: fault.inject: missing field 'fault'",),
}


def _assert_refused(capsys, tmp_path, argv, files):
    """Exit 2 with one stderr line ``<command> error: ...``; returns it."""
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(content):
            content(path)
        else:
            path.write_text(content, encoding="utf-8")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"{argv[0]} error: "), lines
    return lines[0]


class TestOneRefusalPath:
    """Every refused input leaves through ``main``: exit 2, one line."""

    @pytest.mark.parametrize("argv, files", REFUSALS.values(),
                             ids=REFUSALS.keys())
    def test_refusal_exits_2_with_one_line(self, tmp_path, capsys, argv,
                                           files):
        _assert_refused(capsys, tmp_path, argv, files)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_artefact_exits_2(self, tmp_path, capsys, case):
        line = _assert_refused(capsys, tmp_path, *MALFORMED[case])
        for text in NAMED.get(case, ()):
            assert text.format(tmp=tmp_path) in line, line

    def test_a_bug_keeps_its_traceback(self, monkeypatch):
        # a ValueError that is not an InputError is a defect, not refused
        # input: main must not report it as exit 2
        from repro import cli

        def broken(args):
            raise ValueError("defect")

        monkeypatch.setattr(cli, "cmd_campaigns", broken)
        with pytest.raises(ValueError, match="defect"):
            main(["campaigns"])
