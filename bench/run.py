"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload fig1_30min --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload attack_grid --seed 7 --trace 1 --out set.jsonl

Repetitions of the workload run one after another, each on new inputs in
a fresh ``python3 bench/workloads.py`` process, for about ``--seconds``;
the last one repeats the inputs of the first.  Every repetition's outputs
are checked: digests with the same inputs must agree, and a failed cell,
fuzz failure or failed check counts as a failed operation.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported; with
``--trace 1`` each repetition is followed by a traced repetition of the
same inputs and the per-layer metrics are reported.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--out``
appends the full record of the run (every sample, the environment stamp)
as one JSON line, the format ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import ALL_LAYERS, LAYERS, TIMED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: every repetition must have ended this many seconds after the run
#: started, or it is killed: a run has 180 s in all
CHILD_TIMEOUT_S = 150.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of ``values``."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"value": median, "p25": median, "p75": median, "n": len(values)}
    p25, _, p75 = statistics.quantiles(values, n=4)
    return {"value": median, "p25": p25, "p75": p75, "n": len(values)}


def environment() -> dict:
    """Where the numbers came from: commit, interpreter, machine."""
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True,
                text=True, check=True,
            ).stdout.strip()

        try:
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def spawn(workload: str, seed: int, rep: int, trace: bool, workdir: Path,
          deadline: float) -> dict:
    """Run one repetition in a fresh process and return its record."""
    workdir.mkdir(parents=True)
    (workdir / "tmp").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # anything the simulator puts in a temporary file stays in the checkout
    env["TMPDIR"] = str(workdir / "tmp")
    job = {"workload": workload, "seed": seed, "rep": rep, "trace": trace,
           "workdir": str(workdir), "spawned": time.monotonic()}
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the repetition's pool workers share its process group
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload} repetition {rep} timed out")
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition {rep} exited {child.returncode}:\n{err}"
        )
    shutil.rmtree(workdir)
    return json.loads(out.strip().splitlines()[-1])


def check_digests(records: Sequence[dict]) -> Tuple[int, int]:
    """(comparisons, mismatches) over all digests that share a key."""
    by_key: Dict[str, List[str]] = defaultdict(list)
    for record in records:
        by_key[record["key"]].extend(record["digests"])
    compared = sum(len(d) - 1 for d in by_key.values())
    mismatched = sum(len(d) - d.count(d[0]) for d in by_key.values())
    return compared, mismatched


def end_to_end(plain: Sequence[dict]) -> Dict[str, dict]:
    """The end-to-end samples of untraced repetitions, summarised.

    Timings are medians over repetitions; memory is the peak over them,
    since repetitions run different inputs and the run's peak is the
    memory a user must have.
    """
    rss = [r["peak_rss_mb"] for r in plain]
    return {
        "runs_per_s": summarize(r["runs"] / r["work_s"] for r in plain),
        "run_ms": summarize(
            1000.0 * statistics.fmean(r["run_s"]) for r in plain
        ),
        "setup_s": summarize(r["setup_s"] for r in plain),
        "peak_rss_mb": dict(summarize(rss), value=max(rss)),
    }


def per_layer(plain: Sequence[dict], traced: Sequence[dict]) -> Dict[str, dict]:
    """The per-layer samples of traced repetitions, summarised."""
    samples: Dict[str, List[float]] = defaultdict(list)
    for record in traced:
        layers = record["layers"]
        wall = layers["wall_s"]
        for layer in ALL_LAYERS:
            self_s = layers["self_s"][layer]
            samples[f"{layer}.share"].append(100.0 * self_s / wall)
            if layer in TIMED:
                samples[f"{layer}.self_s"].append(self_s)
        for layer in LAYERS:
            samples[f"{layer}.calls"].append(layers["calls"][layer])
        samples["sim.engine.events"].append(layers["events"])
        entries = layers["entry_calls"]
        sent = entries.get("repro.comms.medium:WirelessMedium.transmit", 0)
        received = entries.get("repro.comms.link:LinkEndpoint.receive_raw", 0)
        samples["comms.delivery_ratio"].append(received / sent if sent else 1.0)
    for plain_rep, traced_rep in zip(plain, traced):
        samples["trace_overhead"].append(
            traced_rep["work_s"] / plain_rep["work_s"] - 1.0
        )
    samples["runner.pool_idle_share"] = [
        r.get("pool_idle_share", 0.0) for r in plain
    ]
    return {name: summarize(values) for name, values in samples.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions for about ``seconds``; return records and verdicts.

    Repetition ``r`` runs the inputs ``workloads.py`` derives from
    ``(seed, r)``, new ones each time.  A repetition starts only while
    two more of the mean length so far fit in ``seconds``; otherwise the
    run ends with one that repeats the inputs of repetition 0, so every
    run checks that the same inputs give the same outputs in a new
    process, and the run ends close to ``seconds`` however fast the
    machine is.
    """
    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT_S
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    plain: List[dict] = []
    traced: List[dict] = []
    try:
        for index in itertools.count():
            elapsed = time.monotonic() - started
            last = index > 0 and elapsed + 2 * elapsed / index > seconds
            rep = 0 if last else index
            plain.append(spawn(workload, seed, rep, False, work / f"{index}",
                               deadline))
            if trace:
                traced.append(spawn(workload, seed, rep, True,
                                    work / f"{index}-traced", deadline))
            if last:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    records = plain + traced
    compared, mismatched = check_digests(records)
    attempted = sum(r["attempted"] for r in records) + compared
    failed = sum(r["failed"] for r in records) + mismatched
    return {"plain": plain, "traced": traced, "attempted": attempted,
            "failed": failed, "elapsed_s": time.monotonic() - started}


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        declared = spec["per_layer"]
        summary = per_layer(run["plain"], run["traced"])
    else:
        declared = spec["end_to_end"]
        summary = end_to_end(run["plain"])
    metrics = {m["name"]: dict(summary[m["name"]], unit=m["unit"])
               for m in declared}
    env = dict(environment(), numpy=run["plain"][0]["numpy"])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(run['plain'])} repetition(s) in {run['elapsed_s']:.1f} s  "
          f"trace={args.trace}")
    print("env      " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':<28} {'unit':>6} {'value':>12} {'p25':>12} "
          f"{'p75':>12} {'n':>4}")
    for name, m in metrics.items():
        print(f"{name:<28} {m['unit']:>6} {m['value']:>12.6g} "
              f"{m['p25']:>12.6g} {m['p75']:>12.6g} {m['n']:>4}")
    print(f"operations: {run['attempted']} attempted, {run['failed']} failed")

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics, "repetitions": run["plain"] + run["traced"],
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
