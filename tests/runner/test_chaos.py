"""Chaos tier: the sweep engine under infrastructure failure.

Every test here breaks the execution layer on purpose — a pool worker
SIGKILLed mid-cell, a cell that hangs past its wall-clock budget, a driver
process killed mid-campaign — and asserts the self-healing contract: the
sweep completes every cell, the retry attempts are bounded and recorded,
and a killed-and-resumed campaign produces results byte-identical to an
uninterrupted one.

Fault injection rides on the Linux ``fork`` start method: the pool workers
inherit this module's ``CHAOS`` globals, so a test arms a failure mode
before the sweep starts and marker files in a per-test directory make each
strike fire exactly once (the resurrected pool must not be re-killed
forever).  The driver-kill test needs no such trick — it runs the real CLI
in a subprocess and SIGKILLs it.
"""

import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.runner import (
    CampaignStore,
    CellRetryPolicy,
    RunSpec,
    SweepMonitor,
    SweepRunner,
    execute_run,
    run_sweep,
)
from repro.runner.dispatch import DEGRADE_AFTER

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


#: fork-inherited fault-injection switchboard; the autouse fixture resets
#: it and points ``dir`` at the test's tmp_path for the strike markers
CHAOS = {"mode": None, "dir": None, "victims": ()}


def _strike(key: str) -> None:
    """Fire this test's armed failure mode for cell ``key`` (at most once
    per key for the ``*_once`` modes, tracked via marker files)."""
    mode = CHAOS.get("mode")
    if not mode:
        return
    victims = CHAOS.get("victims") or ()
    if victims and key not in victims:
        return
    if mode == "die_always":
        os.kill(os.getpid(), signal.SIGKILL)
    marker = Path(CHAOS["dir"]) / f"{mode}-{key}"
    if marker.exists():
        return
    marker.write_text("struck", encoding="utf-8")
    if mode == "die_once":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang_once":
        time.sleep(300.0)


def _fast_task(spec_dict, attempt=1):
    """A synthetic worker: instant, deterministic, chaos-injectable."""
    spec = RunSpec.from_dict(spec_dict)
    _strike(spec.key)
    return {
        "key": spec.key, "spec": spec.to_dict(), "status": "ok",
        "error": None, "result": {"echo": spec.seed}, "wall_s": 0.001,
        "pid": os.getpid(), "attempt": int(attempt),
    }


def _slow_task(spec_dict, attempt=1):
    """A worker that overruns any sub-second cell budget."""
    time.sleep(2.0)
    return _fast_task(spec_dict, attempt)


def _chaos_execute_run(spec_dict, attempt=1):
    """The real worker with a pre-execution strike point."""
    _strike(RunSpec.from_dict(spec_dict).key)
    return execute_run(spec_dict, attempt)


@pytest.fixture(autouse=True)
def _reset_chaos(tmp_path):
    CHAOS.update(mode=None, dir=str(tmp_path), victims=())
    yield
    CHAOS.update(mode=None, dir=None, victims=())


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="chaos injection relies on fork-inherited module state",
)


@fork_only
class TestWorkerLoss:
    def test_sigkilled_worker_is_retried_and_every_cell_completes(self):
        specs = [tiny_spec(seed=s) for s in (1, 2, 3, 4)]
        victim = specs[1]
        CHAOS.update(mode="die_once", victims=(victim.key,))
        runner = SweepRunner(jobs=2, task=_fast_task)
        report = runner.run(specs)
        assert report.failed == 0
        assert report.total == 4 and report.executed == 4
        # the victim (plus any collateral in-flight cell) was requeued
        assert report.retries >= 1
        assert report.attempts[victim.key] >= 2
        # results arrive in spec order despite the mid-sweep resurrection
        assert [r["result"]["echo"] for r in report.records] == [1, 2, 3, 4]

    def test_killed_real_worker_results_match_undisturbed_run(self):
        """Satellite regression: a SIGKILL mid-cell must not change what
        the sweep computes, only how many attempts it takes."""
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        clean = run_sweep(specs, jobs=2)
        assert clean.failed == 0

        CHAOS.update(mode="die_once", victims=(specs[0].key,))
        runner = SweepRunner(jobs=2, task=_chaos_execute_run)
        chaotic = runner.run(specs)
        assert chaotic.failed == 0
        assert chaotic.attempts[specs[0].key] >= 2
        assert [json.dumps(r["result"], sort_keys=True)
                for r in chaotic.records] == \
               [json.dumps(r["result"], sort_keys=True)
                for r in clean.records]

    def test_exhausted_attempts_become_a_failed_record(self, tmp_path):
        spec = tiny_spec(seed=1)
        CHAOS.update(mode="die_always", victims=(spec.key,))
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("doomed", [spec])
        runner = SweepRunner(
            jobs=2, task=_fast_task, store=store.bind("doomed"),
            retry_policy=CellRetryPolicy(max_attempts=2, base_delay_s=0.01),
        )
        report = runner.run([spec])
        assert report.failed == 1
        (record,) = report.records
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert "lost" in record["error"] or "reset" in record["error"]
        # both attempts are queryable from the campaign DB
        rows = store.attempts("doomed", spec.key)
        assert [(r["attempt"], r["status"]) for r in rows] == \
               [(1, "lost"), (2, "lost")]

    def test_healthy_cells_survive_a_neighbours_crash(self):
        specs = [tiny_spec(seed=s) for s in (1, 2, 3)]
        CHAOS.update(mode="die_always", victims=(specs[0].key,))
        runner = SweepRunner(
            jobs=2, task=_fast_task,
            retry_policy=CellRetryPolicy(max_attempts=10,
                                         base_delay_s=0.01,
                                         max_delay_s=0.05),
        )
        report = runner.run(specs)
        # the doomed cell fails; the innocents complete despite being
        # collateral in repeated pool resets
        assert report.failed == 1
        ok = [r for r in report.records if r["status"] == "ok"]
        assert sorted(r["result"]["echo"] for r in ok) == [2, 3]

    def test_repeated_breakage_halves_the_worker_budget(self):
        # two cells, because the pool is sized min(jobs, pending); each
        # breakage costs at most both cells one attempt, so 4 attempts
        # each leave room for DEGRADE_AFTER consecutive breakages
        assert DEGRADE_AFTER == 3
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        CHAOS.update(mode="die_always", victims=())
        monitor = SweepMonitor()
        lines = []
        runner = SweepRunner(
            jobs=2, task=_fast_task, monitor=monitor, progress=lines.append,
            retry_policy=CellRetryPolicy(max_attempts=4, base_delay_s=0.01),
        )
        report = runner.run(specs)
        assert report.failed == 2
        snapshot = monitor.snapshot()
        assert snapshot["degraded_from"] == 2
        assert snapshot["jobs"] == 1
        assert "[degraded] worker budget 2 -> 1 after repeated pool " \
               "breakage" in lines


@fork_only
class TestHangingCell:
    def test_hanging_cell_times_out_and_retries(self, tmp_path):
        spec = tiny_spec(seed=1)
        CHAOS.update(mode="hang_once", victims=(spec.key,))
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("wedged", [spec])
        runner = SweepRunner(
            jobs=2, task=_fast_task, store=store.bind("wedged"),
            cell_timeout_s=0.75,
            retry_policy=CellRetryPolicy(base_delay_s=0.01),
        )
        report = runner.run([spec])
        assert report.failed == 0
        assert report.attempts[spec.key] == 2
        statuses = [r["status"] for r in store.attempts("wedged", spec.key)]
        assert statuses == ["timeout", "ok"]

    def test_timeout_is_enforced_at_one_job(self, tmp_path):
        spec = tiny_spec(seed=1)
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("serial", [spec])
        runner = SweepRunner(
            jobs=1, task=_slow_task, store=store.bind("serial"),
            cell_timeout_s=0.5,
            retry_policy=CellRetryPolicy(max_attempts=1),
        )
        report = runner.run([spec])
        (record,) = report.records
        assert record["status"] == "failed"
        assert "wall-clock budget" in record["error"]
        statuses = [r["status"] for r in store.attempts("serial", spec.key)]
        assert statuses == ["timeout"]


#: TINY with the signed ground-station plane (and two attacks) armed
GS_TINY = dict(
    TINY,
    groundstation_enabled=True,
    gs_attacks="command_forgery+command_replay",
)


class TestAuditChainChaos:
    """The evidence chain under infrastructure failure: a kill must never
    change what the chain says (resume reproduces it byte-identically) nor
    leave an unverifiable file behind (the prefix always verifies)."""

    @fork_only
    def test_sigkilled_worker_reproduces_identical_audit_chain(self, tmp_path):
        spec = tiny_spec(seed=7, overrides=GS_TINY)
        clean = execute_run(spec)
        assert clean["status"] == "ok", clean["error"]

        CHAOS.update(mode="die_once", victims=(spec.key,))
        store = CampaignStore(tmp_path / "c.db")
        store.ensure_campaign("gs", [spec])
        runner = SweepRunner(
            jobs=2, task=_chaos_execute_run, store=store.bind("gs"),
            retry_policy=CellRetryPolicy(base_delay_s=0.01),
        )
        report = runner.run([spec])
        assert report.failed == 0
        assert report.attempts[spec.key] >= 2
        (record,) = report.records
        gs_clean = clean["result"]["summary"]["groundstation"]
        gs_chaotic = record["result"]["summary"]["groundstation"]
        assert json.dumps(gs_chaotic, sort_keys=True) == \
            json.dumps(gs_clean, sort_keys=True)
        assert gs_chaotic["audit"]["closed"]
        assert gs_chaotic["audit"]["entries"] > 0
        # the chain the campaign DB serves on resume is the same bytes
        stored = store.bind("gs").completed_keys()[spec.key]
        assert json.dumps(stored["result"], sort_keys=True) == \
            json.dumps(clean["result"], sort_keys=True)

    def test_killed_trace_leaves_verifiable_audit_prefix(self, tmp_path):
        """SIGKILL a real ``trace --gs --audit-out`` run mid-flight: the
        flush-per-entry discipline must leave a file whose surviving prefix
        verifies (at most a torn final line, never a broken chain)."""
        from repro.groundstation.audit import verify_audit_file

        audit = tmp_path / "audit.jsonl"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "trace",
             "--seed", "11", "--minutes", "60", "--gs",
             "--gs-attacks", "command_forgery+command_replay",
             "--out", str(tmp_path / "trace.jsonl"),
             "--audit-out", str(audit), "--no-report"],
            env=env, cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # kill the moment a few entries are on disk, long before the
            # 60-minute horizon can complete and close the chain
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if audit.exists() and \
                        len(audit.read_bytes().splitlines()) >= 4:
                    break
                if proc.poll() is not None:
                    pytest.fail("trace run exited before it could be killed")
                time.sleep(0.05)
            else:
                pytest.fail("audit file never accumulated entries")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)

        report = verify_audit_file(str(audit), require_close=False)
        assert report["ok"], report["violations"]
        assert not report["complete"]  # killed: no terminal close entry
        assert report["entries"] >= 1
        # strict mode still refuses the truncated chain, as it must
        strict = verify_audit_file(str(audit))
        assert not strict["ok"]
        assert strict["violations"][-1]["check"] == "close"


class TestKillAndResume:
    """The acceptance scenario: SIGKILL the *driver* mid-campaign, resume
    from the campaign DB, and get byte-identical aggregate results."""

    SEEDS = [1, 2, 3, 4, 5, 6]

    def _grid_file(self, tmp_path) -> Path:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "campaigns": ["baseline"],
            "seeds": self.SEEDS,
            "horizon_s": 90.0,
            "attack_start": 20.0,
            "variants": {"tiny": TINY},
        }), encoding="utf-8")
        return grid

    @staticmethod
    def _ok_cells(db: Path) -> int:
        try:
            with sqlite3.connect(db, timeout=5.0) as conn:
                (n,) = conn.execute(
                    "SELECT COUNT(*) FROM cells WHERE status = 'ok'"
                ).fetchone()
            return int(n)
        except sqlite3.Error:
            return 0  # DB not created yet / schema mid-flight

    def test_killed_driver_resumes_to_identical_results(self, tmp_path):
        from repro.cli import main

        grid = self._grid_file(tmp_path)
        db = tmp_path / "campaigns.db"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "start",
             "night", "--db", str(db), "--spec", str(grid),
             "--jobs", "1", "--quiet", "--no-table"],
            env=env, cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # WAL lets us poll the DB while the driver writes; kill it the
            # moment the first cell lands so work remains to be resumed
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if self._ok_cells(db) >= 1 or proc.poll() is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never completed its first cell")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)

        store = CampaignStore(db)
        interrupted_ok = self._ok_cells(db)
        assert interrupted_ok >= 1

        # resume from the DB: only the remainder executes
        assert main(["campaign", "resume", "night", "--db", str(db),
                     "--quiet", "--no-table"]) == 0
        (summary,) = store.list_campaigns()
        assert summary["cells"] == len(self.SEEDS)  # no duplicate cells
        assert summary["ok"] == len(self.SEEDS)
        assert summary["pending"] == 0

        # an uninterrupted run of the same grid, fresh DB
        db2 = tmp_path / "fresh.db"
        assert main(["campaign", "start", "night", "--db", str(db2),
                     "--spec", str(grid), "--jobs", "1",
                     "--quiet", "--no-table"]) == 0
        fresh = CampaignStore(db2)

        resumed = store.bind("night").completed_keys()
        undisturbed = fresh.bind("night").completed_keys()
        assert resumed.keys() == undisturbed.keys()
        for key in undisturbed:
            assert json.dumps(resumed[key]["result"], sort_keys=True) == \
                   json.dumps(undisturbed[key]["result"], sort_keys=True)

        # every execution attempt is queryable across both phases
        attempts = store.attempts("night")
        assert len(attempts) >= len(self.SEEDS)
        assert {row["status"] for row in attempts} <= \
               {"ok", "failed", "lost", "timeout", "error"}
