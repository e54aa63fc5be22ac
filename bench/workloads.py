"""The benchmark's workloads: one repetition of each, in one process.

``run.py`` starts ``python3 bench/workloads.py '<json>'`` once per
repetition, so every repetition begins with cold module caches, as a CLI
invocation does.  The child sets up (imports what the workload needs and
composes its first scenario), times the repetition's work and prints one
JSON line: what ran, how long each scenario execution took, the digests
that must agree, and peak memory.  The workload classes are importable so
the tests can run them at reduced size.

Every workload is a closed loop with one client: the next scenario starts
when the previous one has finished.  Inputs come only from the seed and
the repetition number ``run.py`` passes, and every repetition number
draws new scenario seeds, so one benchmark run averages over many
inputs.  A repetition's ``key`` names its inputs, and every digest a
repetition returns must equal every other digest with that key.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional

#: pool size of pooled passes: the machine's cores, at most two
POOL_JOBS = min(2, os.cpu_count() or 1)


def digest(value) -> str:
    """SHA-256 of the canonical JSON encoding of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative path, then bytes."""
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def derived_seeds(seed: int, n: int) -> List[int]:
    """The sweep runner's seed derivation (imported late: set-up pays)."""
    from repro.runner.spec import derive_sweep_seeds

    return derive_sweep_seeds(seed, n)


def rep_seeds(seed: int, rep: int, n: int) -> List[int]:
    """The ``n`` scenario seeds of repetition ``rep``: the next ``n`` in
    the derivation, so no two repetitions share one."""
    return derived_seeds(seed, n * (rep + 1))[n * rep:]


def outcome(key: str, digests: List[str], run_s: List[float], work_s: float,
            attempted: int, failed: int, runs: Optional[int] = None,
            **extra) -> dict:
    """The record one repetition reports (see module docstring).

    ``runs`` counts scenario executions; it defaults to one per timed
    execution in ``run_s``.
    """
    return dict(key=key, digests=digests, run_s=run_s,
                runs=len(run_s) if runs is None else runs, work_s=work_s,
                attempted=attempted, failed=failed, **extra)


class Fig1:
    """A shift-length Figure 1 worksite: ``build_worksite`` then ``run``.

    Nominal and defended, observers off — the run users make.  Each
    repetition builds the worksite of its own derived seed.
    """

    def __init__(self, horizon_s: float = 1800.0) -> None:
        self.horizon_s = horizon_s

    def scenario_seed(self, seed: int, rep: int) -> int:
        return rep_seeds(seed, rep, 1)[0]

    def key(self, seed: int, rep: int) -> str:
        return f"seed={self.scenario_seed(seed, rep)}"

    def setup(self, seed: int, rep: int, workdir: Path):
        from repro.scenarios import worksite

        return worksite.build_worksite(
            worksite.ScenarioConfig(seed=self.scenario_seed(seed, rep))
        )

    def work(self, seed: int, rep: int, workdir: Path, scenario) -> dict:
        started = time.perf_counter()
        scenario.run(self.horizon_s)
        wall = time.perf_counter() - started
        medium = scenario.medium
        out = digest({
            "summary": scenario.summary(),
            "events": scenario.sim.events_processed,
            "frames": [medium.frames_sent, medium.frames_delivered,
                       medium.frames_lost],
        })
        failed = int(scenario.sim.now != self.horizon_s)
        return outcome(self.key(seed, rep), [out], [wall], wall,
                       attempted=1, failed=failed)


class _Grid:
    """Shared machinery of the sweep workloads: cells through SweepRunner
    into a fresh SQLite campaign store, as ``sweep --campaign-db`` does."""

    campaigns: tuple = ()
    profiles: tuple = ("defended",)

    def __init__(self, horizon_s: float, attack_start: float,
                 attack_duration: float) -> None:
        self.horizon_s = horizon_s
        self.attack_start = attack_start
        self.attack_duration = attack_duration

    def seeds(self, seed: int, rep: int) -> List[int]:
        raise NotImplementedError

    def key(self, seed: int, rep: int) -> str:
        return "seeds=" + ",".join(map(str, self.seeds(seed, rep)))

    def specs(self, seed: int, rep: int) -> list:
        from repro.runner import SweepSpec

        return SweepSpec(
            campaigns=list(self.campaigns), seeds=self.seeds(seed, rep),
            horizon_s=self.horizon_s, profiles=list(self.profiles),
            attack_start=self.attack_start,
            attack_duration=self.attack_duration,
        ).expand()

    def setup(self, seed: int, rep: int, workdir: Path) -> None:
        from repro.scenarios import factory

        # composing one cell's scenario pays the cold start (lazy imports,
        # first forest) here rather than in the first timed cell
        first = self.specs(seed, rep)[0]
        factory.compose_run(seed=first.seed, horizon_s=first.horizon_s,
                            profile=first.profile, plan=first.plan)

    def sweep(self, specs: list, jobs: int, db: Path):
        """One pass over ``specs``; returns (report, wall seconds)."""
        from repro.runner import CampaignStore, SweepRunner

        store = CampaignStore(db)
        store.ensure_campaign("bench", specs)
        started = time.perf_counter()
        report = SweepRunner(jobs=jobs, store=store.bind("bench")).run(specs)
        return report, time.perf_counter() - started

    @staticmethod
    def results_digest(report) -> str:
        return digest([[r["key"], r["status"], r["result"]]
                       for r in report.records])


class AttackGrid(_Grid):
    """The attack x defence table: every campaign, defended and not.

    Each campaign runs at its own seed, shared by its two profiles, and
    every repetition draws new seeds, so one benchmark run averages over
    many worksites.  A repetition runs the grid serially and then through
    a process pool, each pass into its own campaign store; the two passes
    must produce byte-identical results.
    """

    campaigns = ("baseline", "rf_jamming", "wifi_deauth", "message_injection",
                 "gnss_spoofing", "camera_blinding")
    profiles = ("defended", "undefended")

    def __init__(self, horizon_s: float = 300.0, attack_start: float = 60.0,
                 attack_duration: float = 180.0) -> None:
        super().__init__(horizon_s, attack_start, attack_duration)

    def seeds(self, seed: int, rep: int) -> List[int]:
        return rep_seeds(seed, rep, len(self.campaigns))

    def specs(self, seed: int, rep: int) -> list:
        from repro.runner.spec import RunSpec

        return [
            RunSpec.single(campaign, seed=cell_seed, horizon_s=self.horizon_s,
                           profile=profile, start=self.attack_start,
                           duration=self.attack_duration)
            for campaign, cell_seed in zip(self.campaigns, self.seeds(seed, rep))
            for profile in self.profiles
        ]

    def work(self, seed: int, rep: int, workdir: Path, prepared=None) -> dict:
        specs = self.specs(seed, rep)
        started = time.perf_counter()
        serial, _ = self.sweep(specs, 1, workdir / "serial.db")
        pooled, pool_wall = self.sweep(specs, POOL_JOBS, workdir / "pool.db")
        wall = time.perf_counter() - started
        records = serial.records + pooled.records
        busy = sum(r["wall_s"] or 0.0 for r in pooled.records)
        return outcome(
            self.key(seed, rep),
            [self.results_digest(serial), self.results_digest(pooled)],
            [r["wall_s"] for r in records if r["wall_s"] is not None], wall,
            attempted=len(records), failed=serial.failed + pooled.failed,
            pool_idle_share=1.0 - busy / (POOL_JOBS * pool_wall),
        )


class ShortCells(_Grid):
    """Many short cells: 20 s horizons over four campaigns and 12 seeds,
    new seeds every repetition.

    Composing a scenario (forest generation, key exchanges) and the store
    dominate; the simulation itself is a small share.
    """

    campaigns = ("baseline", "rf_jamming", "gnss_spoofing", "message_injection")

    def __init__(self, n_seeds: int = 12, horizon_s: float = 20.0,
                 attack_start: float = 5.0, attack_duration: float = 10.0) -> None:
        super().__init__(horizon_s, attack_start, attack_duration)
        self.n_seeds = n_seeds

    def seeds(self, seed: int, rep: int) -> List[int]:
        return rep_seeds(seed, rep, self.n_seeds)

    def work(self, seed: int, rep: int, workdir: Path, prepared=None) -> dict:
        specs = self.specs(seed, rep)
        report, wall = self.sweep(specs, 1, workdir / "cells.db")
        return outcome(
            self.key(seed, rep), [self.results_digest(report)],
            [r["wall_s"] for r in report.records if r["wall_s"] is not None],
            wall, attempted=len(report.records), failed=report.failed,
        )


class _IterationTimes:
    """A progress monitor that keeps each fuzz iteration's wall time."""

    def __init__(self) -> None:
        self.walls: List[float] = []

    def on_event(self, event: dict) -> None:
        if event.get("event") == "cell_finished":
            self.walls.append(event["wall_s"])


class Assurance:
    """The assurance pathway: fuzz, then record and check evidence.

    A fresh-corpus fuzz session at the repetition's derived seed, then
    traced runs (seeds derived from that one) recorded like
    ``trace --spans --gs`` (rf_jamming plus every ground-station attack,
    spec embedded), each followed by ``check`` with replay.  The only
    workload with the observers on.
    """

    campaign = "rf_jamming"

    def __init__(self, fuzz_iterations: int = 8, traced_runs: int = 1,
                 horizon_s: float = 300.0, attack_start: float = 60.0,
                 attack_duration: float = 180.0) -> None:
        self.fuzz_iterations = fuzz_iterations
        self.traced_runs = traced_runs
        self.horizon_s = horizon_s
        self.attack_start = attack_start
        self.attack_duration = attack_duration

    def fuzz_seed(self, seed: int, rep: int) -> int:
        return rep_seeds(seed, rep, 1)[0]

    def trace_seeds(self, seed: int, rep: int) -> List[int]:
        return derived_seeds(self.fuzz_seed(seed, rep), self.traced_runs)

    def key(self, seed: int, rep: int) -> str:
        return f"seed={self.fuzz_seed(seed, rep)}"

    def gs_attacks(self) -> str:
        from repro.attacks.groundstation import GS_ATTACK_KINDS

        return "+".join(GS_ATTACK_KINDS)

    def setup(self, seed: int, rep: int, workdir: Path) -> None:
        # imported here so that set-up, not the first timed step, pays
        import repro.cli  # noqa: F401
        import repro.fuzz.search  # noqa: F401
        from repro.scenarios import factory

        factory.compose_run(
            seed=self.trace_seeds(seed, rep)[0], horizon_s=self.horizon_s,
            plan=[(self.campaign, self.attack_start, self.attack_duration)],
            overrides={"groundstation_enabled": True,
                       "gs_attacks": self.gs_attacks()},
        )

    def _cli(self, argv: List[str]) -> int:
        from repro import cli

        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def work(self, seed: int, rep: int, workdir: Path, prepared=None) -> dict:
        from repro.fuzz.search import FuzzSession

        started = time.perf_counter()
        monitor = _IterationTimes()
        session = FuzzSession(workdir / "corpus", self.fuzz_seed(seed, rep),
                              monitor=monitor)
        session.start()
        totals = session.run(iterations=self.fuzz_iterations)["totals"]
        run_s = list(monitor.walls)
        outputs = [tree_digest(workdir / "corpus")]
        failed = totals["failures"] + totals["unshrinkable"]
        for i, trace_seed in enumerate(self.trace_seeds(seed, rep)):
            path = workdir / f"trace-{i}.jsonl"
            t0 = time.perf_counter()
            failed += self._cli([
                "trace", "--seed", str(trace_seed),
                "--minutes", str(self.horizon_s / 60.0),
                "--campaign", self.campaign, "--start", str(self.attack_start),
                "--duration", str(self.attack_duration), "--spans", "--gs",
                "--gs-attacks", self.gs_attacks(), "--no-report",
                "--out", str(path),
            ]) != 0
            t1 = time.perf_counter()
            failed += self._cli(["check", "--trace", str(path)]) != 0
            run_s += [t1 - t0, time.perf_counter() - t1]
            outputs.append(hashlib.sha256(path.read_bytes()).hexdigest())
        wall = time.perf_counter() - started
        return outcome(
            self.key(seed, rep), [digest(outputs)], run_s, wall,
            attempted=self.fuzz_iterations + 2 * self.traced_runs,
            failed=failed,
            # scenario executions: the two seed-corpus specs, each
            # iteration, and per traced run the recording plus the replay
            # inside check
            runs=2 + self.fuzz_iterations + 2 * self.traced_runs,
        )


#: the workloads at benchmark size, by BENCHMARK.json name
WORKLOADS: Dict[str, object] = {
    "fig1_30min": Fig1(),
    "attack_grid": AttackGrid(),
    "short_cells": ShortCells(),
    "assurance": Assurance(),
}


def run_repetition(workload, seed: int, rep: int, workdir: Path,
                   trace: bool = False, spawned: Optional[float] = None) -> dict:
    """Set up and run one repetition in this process; return its record.

    ``spawned`` is the ``time.monotonic()`` at which the parent started
    this process, so ``setup_s`` includes interpreter start-up; without it
    set-up is timed from the call.  With ``trace`` the layer tracer covers
    set-up and work and its report joins the record.
    """
    setup_from = time.monotonic() if spawned is None else spawned
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        tracer.start()
    try:
        prepared = workload.setup(seed, rep, workdir)
        setup_s = time.monotonic() - setup_from
        record = workload.work(seed, rep, workdir, prepared)
    finally:
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
    record["setup_s"] = setup_s
    if tracer is not None:
        record["layers"] = tracer.report()
    return record


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest pool worker's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    # the simulator's modules print nothing a parent needs; keep stdout
    # for the one result line
    with redirect_stdout(sys.stderr):
        record = run_repetition(
            WORKLOADS[job["workload"]], job["seed"], job["rep"],
            Path(job["workdir"]), trace=job["trace"], spawned=job["spawned"],
        )
    import numpy

    record["peak_rss_mb"] = _peak_rss_mb()
    record["numpy"] = numpy.__version__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
