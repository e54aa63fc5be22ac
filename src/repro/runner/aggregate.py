"""Aggregate sweep records into paper-style tables.

Runs are grouped by ``(campaign, profile, ids_family)`` — the experiment
cell — and the per-seed results inside each cell are reduced to means, so
the table a 12 × 3 grid prints has 12 rows no matter how many seeds backed
each row.  Failed runs are counted per cell but excluded from the means.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import Table

GroupKey = Tuple[str, str, Optional[str]]


def group_records(records: Sequence[dict]) -> "OrderedDict[GroupKey, List[dict]]":
    """Group records by experiment cell, preserving first-seen order."""
    groups: "OrderedDict[GroupKey, List[dict]]" = OrderedDict()
    for record in records:
        spec = record.get("spec", {})
        key: GroupKey = (
            str(spec.get("campaign", "?")),
            str(spec.get("profile", "?")),
            spec.get("ids_family"),
        )
        groups.setdefault(key, []).append(record)
    return groups


def _mean(values: List[float]) -> Optional[float]:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def summarize_group(records: Sequence[dict]) -> dict:
    """Mean headline numbers over the successful runs of one cell."""
    ok = [r["result"] for r in records if r.get("status") == "ok"]
    summaries = [r["summary"] for r in ok]
    detections = [r["detection"] for r in ok if r.get("detection")]
    channels = [r["channel"] for r in ok]
    return {
        "runs": len(records),
        "failed": sum(1 for r in records if r.get("status") != "ok"),
        "delivered_m3": _mean([s["delivered_m3"] for s in summaries]),
        "delivery_ratio": _mean([s["delivery_ratio"] for s in summaries]),
        "safe_stops": _mean([float(s["safe_stops"]) for s in summaries]),
        "violations": _mean(
            [float(s["safety"]["violations"]) for s in summaries]
        ),
        "alerts": _mean([float(s["alerts"]) for s in summaries]),
        "coverage": _mean([d["coverage"] for d in detections]),
        "mean_latency_s": _mean(
            [d["mean_latency_s"] for d in detections]
        ),
        "false_alarms": _mean(
            [float(d["false_alarms"]) for d in detections]
        ),
        "forged_executed": _mean(
            [float(c["forged_executed"]) for c in channels]
        ),
        "deauths_accepted": _mean(
            [float(c["deauths_accepted"]) for c in channels]
        ),
    }


def aggregate_rows(records: Sequence[dict]) -> List[dict]:
    """One summarised row dict per experiment cell."""
    rows = []
    for (campaign, profile, ids_family), group in group_records(records).items():
        row = {"campaign": campaign, "profile": profile,
               "ids_family": ids_family}
        row.update(summarize_group(group))
        rows.append(row)
    return rows


def aggregate_table(records: Sequence[dict], *, title: str = "sweep results") -> Table:
    """Render the grouped means as a fixed-width table."""
    rows = aggregate_rows(records)
    with_ids = any(row["ids_family"] for row in rows)
    columns = ["campaign", "profile"]
    if with_ids:
        columns.append("IDS")
    columns += [
        "runs", "failed", "delivered m3", "delivery", "safe stops",
        "violations", "alerts", "coverage", "latency s", "FA",
    ]
    table = Table(columns, title=title)
    for row in rows:
        cells = [row["campaign"], row["profile"]]
        if with_ids:
            cells.append(row["ids_family"] or "-")
        cells += [
            row["runs"], row["failed"], row["delivered_m3"],
            row["delivery_ratio"], row["safe_stops"], row["violations"],
            row["alerts"], row["coverage"], row["mean_latency_s"],
            row["false_alarms"],
        ]
        table.add_row(*cells)
    return table
