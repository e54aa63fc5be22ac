"""Report generation over recorded traces.

Three reports back the ``repro-worksite trace`` subcommand:

* :func:`link_report` — per-link delivery/drop breakdown with the
  drop-cause taxonomy split out;
* :func:`latency_report` — IDS detection-latency distribution (p50/p95
  via :class:`~repro.sim.metrics.SeriesSummary`) plus false-alarm counts;
* :func:`timeline_report` — the chronological attack-vs-defense story:
  attack windows, detections, de-auth outcomes and safety interventions
  interleaved in simulated-time order.

All functions take the parsed record list from
:func:`repro.telemetry.writer.read_trace`, so the reports run equally on a
trace that was just recorded or one loaded from disk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import Table
from repro.inputs import number
from repro.sim.metrics import SeriesSummary


def of_type(records: Sequence[dict], rtype: str) -> List[dict]:
    """Records of one type, in trace order."""
    return [r for r in records if r.get("type") == rtype]


# -- per-link delivery / drop breakdown -------------------------------------

def link_breakdown(records: Sequence[dict]) -> "OrderedDict[str, dict]":
    """Per-link tx/delivered/dropped counts with per-cause split.

    Keys are ``"src->dst"`` in first-seen order; record-layer drops are
    attributed to the ``node<-peer`` direction they were rejected on.
    """
    links: "OrderedDict[str, dict]" = OrderedDict()

    def entry(key: str) -> dict:
        return links.setdefault(
            key, {"tx": 0, "delivered": 0, "dropped": 0, "causes": {}}
        )

    for record in records:
        rtype = record.get("type")
        if rtype == "frame.tx":
            entry(f"{record['src']}->{record['dst']}")["tx"] += 1
        elif rtype == "frame.delivered":
            entry(f"{record['src']}->{record['dst']}")["delivered"] += 1
        elif rtype in ("frame.drop", "record.drop"):
            if rtype == "frame.drop":
                key = f"{record['src']}->{record['dst']}"
            else:
                key = f"{record['peer']}->{record['node']}"
            link = entry(key)
            link["dropped"] += 1
            cause = record.get("cause", "?")
            link["causes"][cause] = link["causes"].get(cause, 0) + 1
    return links


def link_report(records: Sequence[dict]) -> str:
    """The per-link breakdown as a fixed-width table."""
    table = Table(
        ["link", "tx", "delivered", "dropped", "delivery", "top causes"],
        title="per-link delivery / drop breakdown",
    )
    for name, stats in link_breakdown(records).items():
        tx = stats["tx"]
        ratio = stats["delivered"] / tx if tx else None
        causes = ", ".join(
            f"{cause}:{count}"
            for cause, count in sorted(
                stats["causes"].items(), key=lambda kv: (-kv[1], kv[0])
            )[:3]
        )
        table.add_row(
            name, tx, stats["delivered"], stats["dropped"], ratio, causes or "-"
        )
    return table.render()


# -- detection latency -------------------------------------------------------

def detection_latencies(records: Sequence[dict]) -> List[float]:
    """In-window alert latencies, in trace order."""
    return [
        r["latency_s"]
        for r in of_type(records, "ids.alert")
        if r.get("latency_s") is not None
    ]


def latency_report(records: Sequence[dict]) -> str:
    """Detection-latency percentiles and false-alarm accounting."""
    alerts = of_type(records, "ids.alert")
    in_window = [r for r in alerts if r.get("in_window")]
    latencies = detection_latencies(records)
    summary = SeriesSummary.of(latencies)
    lines = ["detection latency"]
    lines.append("=" * 40)
    lines.append(f"alerts:          {len(alerts)}")
    lines.append(f"in attack window: {len(in_window)}")
    lines.append(f"false alarms:    {len(alerts) - len(in_window)}")
    if summary.count:
        lines.append(f"latency mean:    {summary.mean:.2f} s")
        lines.append(f"latency p50:     {summary.p50:.2f} s")
        lines.append(f"latency p95:     {summary.p95:.2f} s")
        lines.append(f"latency max:     {summary.maximum:.2f} s")
    else:
        lines.append("latency:         no in-window alerts")
    return "\n".join(lines)


# -- resilience metrics (fault campaigns) ------------------------------------

def resilience_metrics(
    records: Sequence[dict], horizon_s: Optional[float] = None
) -> dict:
    """Availability, MTTR and safe-stop latency from a faulted trace.

    Outages are ``service.down``/``service.up`` pairs, keyed by
    ``machine.service`` (falling back to the bare service name when the
    emitting :class:`~repro.defense.recovery.ContinuityManager` carries no
    scope).  An outage still open at end-of-trace is charged up to
    ``horizon_s`` (defaulting to the last record's timestamp).  Safe-stop
    latency is the ``latency_s`` each ``mode.transition`` into
    ``safe_stop`` carries: the mode machine's own measure, from its
    earliest open outage, so the trace reports what ``run`` reports.
    """
    downs = of_type(records, "service.down")
    ups = of_type(records, "service.up")
    faults = of_type(records, "fault.inject")
    transitions = of_type(records, "mode.transition")
    if horizon_s is None:
        horizon_s = records[-1]["t"] if records else 0.0

    def key(record: dict) -> str:
        machine = record.get("machine")
        service = record["service"]
        return f"{machine}.{service}" if machine else service

    # Replay outage episodes in trace order, pairing down with the next up.
    open_at: Dict[str, float] = {}
    downtime: Dict[str, float] = {}
    closed_durations: List[float] = []
    for record in sorted(downs + ups, key=lambda r: r["i"]):
        k = key(record)
        if record["type"] == "service.down":
            open_at.setdefault(k, record["t"])
        else:
            started = open_at.pop(k, None)
            if started is not None:
                duration = record["t"] - started
                downtime[k] = downtime.get(k, 0.0) + duration
                closed_durations.append(duration)
    for k, started in open_at.items():
        downtime[k] = downtime.get(k, 0.0) + max(0.0, horizon_s - started)

    availability = {
        k: round(max(0.0, 1.0 - downtime.get(k, 0.0) / horizon_s), 6)
        if horizon_s > 0 else 0.0
        for k in sorted(set(downtime) | {key(r) for r in downs})
    }
    mttr = (
        sum(closed_durations) / len(closed_durations)
        if closed_durations else None
    )

    latency = SeriesSummary.of([
        r["latency_s"] for r in transitions
        if r.get("mode") == "safe_stop" and r.get("latency_s") is not None
    ])

    return {
        "horizon_s": horizon_s,
        "faults_injected": len(faults),
        "faults_cleared": len(of_type(records, "fault.clear")),
        "mode_transitions": len(transitions),
        "availability": availability,
        "outages": {
            "closed": len(closed_durations),
            "open_at_end": len(open_at),
            "mttr_s": round(mttr, 3) if mttr is not None else None,
        },
        "safe_stop": {
            "count": latency.count,
            "latency_p50_s": round(latency.p50, 3) if latency.count else None,
            "latency_p95_s": round(latency.p95, 3) if latency.count else None,
        },
    }


def resilience_report(records: Sequence[dict]) -> str:
    """The resilience metrics as a readable block (what the CLI prints),
    over the horizon the ``trace.meta`` header declares; a header horizon
    that is not a number raises :class:`~repro.inputs.InputError`."""
    header = records[0] if records else {}
    horizon_s = header.get("horizon_s") if header.get("type") == "trace.meta" else None
    if horizon_s is not None:
        horizon_s = number(horizon_s, "trace.meta horizon_s")
    metrics = resilience_metrics(records, horizon_s)
    lines = ["resilience (fault campaign)", "=" * 40]
    lines.append(f"faults injected: {metrics['faults_injected']}"
                 f" (cleared: {metrics['faults_cleared']})")
    lines.append(f"mode transitions: {metrics['mode_transitions']}")
    outages = metrics["outages"]
    lines.append(f"outages:         {outages['closed']} closed, "
                 f"{outages['open_at_end']} open at end")
    if outages["mttr_s"] is not None:
        lines.append(f"MTTR:            {outages['mttr_s']:.1f} s")
    safe_stop = metrics["safe_stop"]
    if safe_stop["count"]:
        lines.append(f"safe-stop:       {safe_stop['count']} "
                     f"(latency p50 {safe_stop['latency_p50_s']:.1f} s, "
                     f"p95 {safe_stop['latency_p95_s']:.1f} s)")
    if metrics["availability"]:
        lines.append("availability:")
        for service, value in metrics["availability"].items():
            lines.append(f"  {service:<28} {value:.4f}")
    return "\n".join(lines)


# -- attack-vs-defense timeline ----------------------------------------------

#: record types shown on the timeline, with a column tag each
_TIMELINE_TAGS: Dict[str, str] = {
    "attack.start": "ATTACK",
    "attack.stop": "ATTACK",
    "ids.alert": "IDS",
    "link.deauth": "LINK",
    "safety.intervention": "SAFETY",
    "safety.violation": "SAFETY",
    "safety.near_miss": "SAFETY",
    "fault.inject": "FAULT",
    "fault.clear": "FAULT",
    "mode.transition": "MODE",
    "service.down": "SVC",
    "service.up": "SVC",
}


def _timeline_line(record: dict) -> str:
    rtype = record["type"]
    if rtype == "attack.start":
        body = f"{record['attack']} started ({record['attack_type']})"
    elif rtype == "attack.stop":
        body = (f"{record['attack']} stopped "
                f"after {record['duration_s']:.1f} s")
    elif rtype == "ids.alert":
        latency = record.get("latency_s")
        suffix = (
            f"latency {latency:.1f} s" if latency is not None else "false alarm"
        )
        body = (f"{record['detector']} alert {record['alert_type']} "
                f"({suffix})")
    elif rtype == "link.deauth":
        verdict = "accepted" if record["accepted"] else "rejected"
        body = f"{record['node']} de-auth from {record['src']} {verdict}"
    elif rtype == "safety.intervention":
        detail = record.get("reason") or record.get("limit")
        body = f"{record['machine']} {record['action']}"
        if detail is not None:
            body += f" ({detail})"
    elif rtype == "fault.inject":
        body = f"{record['fault']} injected on {record['target']}"
    elif rtype == "fault.clear":
        body = f"{record['fault']} cleared on {record['target']}"
    elif rtype == "mode.transition":
        body = (f"{record['machine']} {record['prev']} -> {record['mode']}"
                + (f" ({record['reason']})" if record.get("reason") else ""))
    elif rtype == "service.down":
        machine = record.get("machine")
        owner = f"{machine}." if machine else ""
        body = f"{owner}{record['service']} down ({record['cause']})"
    elif rtype == "service.up":
        machine = record.get("machine")
        owner = f"{machine}." if machine else ""
        body = (f"{owner}{record['service']} restored "
                f"after {record['outage_s']:.1f} s")
    else:  # safety.violation / safety.near_miss
        kind = "violation" if rtype == "safety.violation" else "near miss"
        body = (f"{record['machine']} {kind} with {record['person']} "
                f"at {record['separation_m']:.1f} m")
    tag = _TIMELINE_TAGS[rtype]
    return f"{record['t']:>9.1f} s  {tag:<7} {body}"


def timeline_report(records: Sequence[dict], *, limit: int = 80) -> str:
    """Attack/defense/safety events interleaved in simulated-time order."""
    rows = [r for r in records if r.get("type") in _TIMELINE_TAGS]
    lines = ["attack-vs-defense timeline", "=" * 40]
    if not rows:
        lines.append("(no attack, detection or safety events)")
        return "\n".join(lines)
    shown = rows[:limit]
    lines.extend(_timeline_line(r) for r in shown)
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more events")
    return "\n".join(lines)


# -- ground-station plane -----------------------------------------------------

def groundstation_metrics(records: Sequence[dict]) -> dict:
    """Command/alert/audit digest of a plane-enabled trace."""
    commands = of_type(records, "gs.command")
    alerts = of_type(records, "gs.alert")
    audits = of_type(records, "gs.audit")
    verdicts: Dict[str, int] = {}
    for record in commands:
        verdict = record.get("verdict", "?")
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    alert_kinds: Dict[str, int] = {}
    for record in alerts:
        kind = record.get("kind", "?")
        alert_kinds[kind] = alert_kinds.get(kind, 0) + 1
    audit_verdicts: Dict[str, int] = {}
    for record in audits:
        verdict = record.get("verdict", "?")
        audit_verdicts[verdict] = audit_verdicts.get(verdict, 0) + 1
    closed = any(r.get("verdict") == "close" for r in audits)
    return {
        "commands": len(commands),
        "command_verdicts": dict(sorted(verdicts.items())),
        "alerts": len(alerts),
        "alert_kinds": dict(sorted(alert_kinds.items())),
        "audit_entries": len(audits),
        "audit_verdicts": dict(sorted(audit_verdicts.items())),
        "audit_closed": closed,
        "audit_head": audits[-1].get("hash") if audits else None,
    }


def groundstation_report(records: Sequence[dict]) -> str:
    """The ground-station metrics as a readable block."""
    metrics = groundstation_metrics(records)
    lines = ["ground-station plane", "=" * 40]
    lines.append(f"commands:        {metrics['commands']}")
    for verdict, count in metrics["command_verdicts"].items():
        lines.append(f"  {verdict:<28} {count}")
    lines.append(f"alerts:          {metrics['alerts']}")
    for kind, count in metrics["alert_kinds"].items():
        lines.append(f"  {kind:<28} {count}")
    closed = "closed" if metrics["audit_closed"] else "NOT CLOSED"
    lines.append(
        f"audit chain:     {metrics['audit_entries']} entries ({closed})"
    )
    for verdict, count in metrics["audit_verdicts"].items():
        lines.append(f"  {verdict:<28} {count}")
    if metrics["audit_head"]:
        lines.append(f"  head {metrics['audit_head']}")
    return "\n".join(lines)


# -- invariant / replay violation report --------------------------------------

#: violations and divergences :func:`check_report` lists before a count
CHECK_REPORT_LIMIT = 10


def check_report(report: dict) -> str:
    """Render an oracle violation report as a readable block.

    Takes the JSON report produced by
    :func:`repro.invariants.oracle.check_trace` (or loaded back from the
    file ``repro-worksite check --report`` wrote).
    """
    lines = ["invariant check", "=" * 40]
    lines.append(f"trace:           {report.get('trace', '?')} "
                 f"({report.get('records', 0)} records)")
    invariants = report.get("invariants", {})
    lines.append(f"invariants:      {invariants.get('checked', 0)} checked, "
                 f"{invariants.get('violations', 0)} violation(s)")
    for name, count in sorted(invariants.get("by_invariant", {}).items()):
        lines.append(f"  {name:<28} {count}")
    for detail in invariants.get("details", [])[:CHECK_REPORT_LIMIT]:
        lines.append(f"  [{detail['invariant']}] t={detail['t']:.1f} s "
                     f"i={detail['i']}: {detail['message']}")
    shown = min(CHECK_REPORT_LIMIT, len(invariants.get("details", [])))
    if invariants.get("violations", 0) > shown:
        lines.append(
            f"  ... {invariants['violations'] - shown} more violation(s)"
        )
    replay = report.get("replay", {})
    if replay.get("performed"):
        lines.append(f"replay:          {replay.get('replayed', 0)} records "
                     f"re-executed, {replay.get('divergences', 0)} "
                     f"divergence(s)")
        for div in replay.get("first_divergences", [])[:CHECK_REPORT_LIMIT]:
            lines.append(f"  diverged at record {div['i']}:")
            lines.append(f"    recorded: {div['recorded']}")
            lines.append(f"    replayed: {div['replayed']}")
    else:
        lines.append("replay:          skipped "
                     f"({replay.get('reason', 'unknown')})")
    lines.append(f"verdict:         {'OK' if report.get('ok') else 'FAIL'}")
    return "\n".join(lines)


# -- fuzzing risk heatmap -----------------------------------------------------

def _risk_score(cell: Dict[str, int]) -> float:
    """Deterministic risk ranking for one heatmap cell.

    Failures dominate (they are oracle hits), invariant violations and
    fresh coverage follow: a cell that keeps surfacing new behaviour is
    under-explored and therefore riskier than a quiet one.
    """
    return round(
        10.0 * cell.get("failures", 0)
        + 2.0 * cell.get("violations", 0)
        + 1.0 * cell.get("new_signatures", 0),
        6,
    )


def fuzz_report(coverage: dict, heatmap: Dict[str, dict],
                totals: dict) -> dict:
    """The JSON risk-heatmap report over a fuzzing session's explored space.

    Takes plain data (the persisted coverage-map dict, the accumulated
    heatmap cells keyed ``<campaign-label>|<fault-kinds>``, and the
    session totals) so it runs equally on a live session or on files
    loaded back from a corpus directory.
    """
    by_family: Dict[str, int] = {}
    for signature in coverage.get("signatures", {}):
        family = signature.split(":", 1)[0]
        by_family[family] = by_family.get(family, 0) + 1
    cells = []
    for key, cell in heatmap.items():
        campaign, _, faults = key.partition("|")
        cells.append({
            "campaign": campaign,
            "faults": faults,
            "runs": cell.get("runs", 0),
            "new_signatures": cell.get("new_signatures", 0),
            "violations": cell.get("violations", 0),
            "failures": cell.get("failures", 0),
            "risk": _risk_score(cell),
        })
    cells.sort(key=lambda c: (-c["risk"], c["campaign"], c["faults"]))
    return {
        "schema": 1,
        "totals": dict(sorted(totals.items())),
        "coverage": {
            "signatures": len(coverage.get("signatures", {})),
            "by_family": dict(sorted(by_family.items())),
        },
        "heatmap": cells,
    }


#: heatmap cells :func:`fuzz_report_text` lists before a count
FUZZ_REPORT_LIMIT = 15


def fuzz_report_text(report: dict) -> str:
    """Render a fuzz report as the summary block the CLI prints."""
    totals = report.get("totals", {})
    coverage = report.get("coverage", {})
    lines = ["fuzzing session", "=" * 40]
    lines.append(f"iterations:      {totals.get('iterations', 0)}")
    lines.append(f"corpus entries:  {totals.get('corpus_entries', 0)}")
    lines.append(
        f"signatures:      {coverage.get('signatures', 0)} "
        f"({totals.get('new_beyond_seed', 0)} beyond seed corpus)"
    )
    for family, count in coverage.get("by_family", {}).items():
        lines.append(f"  {family:<14} {count}")
    lines.append(
        f"failures:        {totals.get('failures', 0)} "
        f"({totals.get('unshrinkable', 0)} unshrinkable)"
    )
    cells = report.get("heatmap", [])
    if cells:
        table = Table(
            ["campaign", "faults", "runs", "new sigs", "violations",
             "failures", "risk"],
            title="risk heatmap (explored space)",
        )
        for cell in cells[:FUZZ_REPORT_LIMIT]:
            table.add_row(
                cell["campaign"], cell["faults"], cell["runs"],
                cell["new_signatures"], cell["violations"],
                cell["failures"], cell["risk"],
            )
        lines.append("")
        lines.append(table.render())
        if len(cells) > FUZZ_REPORT_LIMIT:
            lines.append(f"... {len(cells) - FUZZ_REPORT_LIMIT} more cells")
    return "\n".join(lines)


def full_report(records: Sequence[dict]) -> str:
    """All reports concatenated (what the CLI prints).

    The resilience block only appears when the trace actually contains
    fault-campaign records, and the span block only when the trace was
    recorded with the causal span layer armed — so report output for
    plain traces is unchanged.
    """
    from repro.telemetry.spans import has_spans, span_report

    reports = [
        link_report(records),
        latency_report(records),
    ]
    if any(r.get("type") in ("fault.inject", "mode.transition")
           for r in records):
        reports.append(resilience_report(records))
    if any(r.get("type") in ("gs.command", "gs.alert", "gs.audit")
           for r in records):
        reports.append(groundstation_report(records))
    reports.append(timeline_report(records))
    if has_spans(records):
        reports.append(span_report(records))
    return "\n\n".join(reports)
