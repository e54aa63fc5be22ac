"""Compare two sets of benchmark runs, one row per (metric, workload).

Usage, from the repository root::

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the lines ``run.py --out`` appends, one per run; only
untraced runs are read.  Runs of the same workload are paired in file
order, so record the two sets alternately (parent, change, parent, ...).

For every end-to-end metric of BENCHMARK.json a row shows each side's
median and quartiles, the change of the median, the share of pairs the
change wins (ties count for neither side) and the gap between the medians
in units of the parent's interquartile range.  The verdict follows the
pair rule:

* ``gain``: the change wins at least 0.9 of the pairs and its median is
  better by more than the parent's interquartile range;
* ``unresolved``: a side's spread (IQR / median) is wider than the
  metric's bound, unless every run of the change beats every run of the
  parent;
* ``regression``: the median is worse by more than the bound;
* ``same``: none of the above.

Each workload's failed-operation share is compared too: a change with
more failures than its parent fails the comparison.  The exit status is 1
when any row regresses or fails more, else 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

from run import load_spec, summarize


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs by workload, in file order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def compare_metric(parent: Sequence[float], change: Sequence[float],
                   better: str, bound: float) -> dict:
    """The pair-rule comparison of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = summarize(parent), summarize(change)
    iqr = a["p75"] - a["p25"]
    pairs = list(zip(parent, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    improvement = sign * (b["value"] - a["value"])
    spread = max((s["p75"] - s["p25"]) / abs(s["value"]) for s in (a, b))
    if better == "higher":
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if wins >= 0.9 and improvement > iqr:
        verdict = "gain"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    elif -improvement > bound * abs(a["value"]):
        verdict = "regression"
    else:
        verdict = "same"
    return {
        "parent": a, "change": b, "pairs": len(pairs), "wins": wins,
        "change_share": (b["value"] - a["value"]) / abs(a["value"]),
        "gap_iqr": improvement / iqr if iqr else float("inf"),
        "spread": spread, "verdict": verdict,
    }


def failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 bench/compare.py PARENT.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    spec = load_spec()
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    workloads = [w["name"] for w in spec["workloads"]
                 if parent.get(w["name"]) and change.get(w["name"])]
    if not workloads:
        print("compare: no workload has untraced runs in both sets",
              file=sys.stderr)
        return 2
    bad = False
    print(f"{'workload':<12} {'metric':<12} {'parent [p25, p75]':>30} "
          f"{'change [p25, p75]':>30} {'delta':>7} {'wins':>5} "
          f"{'gap/IQR':>8} {'n':>3}  verdict")
    for name in workloads:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            row = compare_metric(
                [r["metrics"][key]["value"] for r in parent[name]],
                [r["metrics"][key]["value"] for r in change[name]],
                metric["better"], metric["bound"],
            )
            bad |= row["verdict"] == "regression"
            a, b = row["parent"], row["change"]
            print(f"{name:<12} {key:<12} {_cell(a):>30} {_cell(b):>30} "
                  f"{row['change_share']:>+7.1%} {row['wins']:>5.2f} "
                  f"{row['gap_iqr']:>8.2f} {row['pairs']:>3}  {row['verdict']}")
        a_fail, b_fail = failed_share(parent[name]), failed_share(change[name])
        more = b_fail > a_fail
        bad |= more
        print(f"{name:<12} {'failed ops':<12} {a_fail:>30.2%} {b_fail:>30.2%}"
              f"{'':>27}  {'MORE FAILURES' if more else 'ok'}")
    return 1 if bad else 0


def _cell(summary: dict) -> str:
    return (f"{summary['value']:.4g} "
            f"[{summary['p25']:.4g}, {summary['p75']:.4g}]")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
