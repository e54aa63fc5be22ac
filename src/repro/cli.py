"""Command-line interface: ``repro-worksite``.

Subcommands
-----------
``run``
    Run the Figure 1 worksite for a given horizon and print the summary.
``attack``
    Run the worksite under a named attack campaign and print the outcome,
    including IDS scoring.
``assess``
    Run the combined safety-cybersecurity assessment and print the risk
    profile, interplay findings and zone gaps.
``sac``
    Build the security assurance case and write Markdown/DOT exports.
``campaigns``
    List the available attack campaigns.
``sweep``
    Fan a campaign × seed × profile grid across a process pool, record
    completed runs in the SQLite campaign store (``--campaign-db``, by
    default ``--out`` with a ``.db`` suffix), export them to the JSONL
    file ``--out``, and print the aggregate table.
    Execution is self-healing: killed workers resurrect the pool,
    lost/timed-out cells retry with deterministic backoff
    (``--max-attempts`` / ``--cell-timeout``).  Writes live progress
    into ``status.json`` next to the store; ``--progress`` additionally
    prints a one-line progress summary as cells complete.
``campaign``
    The durable campaign service over the SQLite (WAL) store:
    ``campaign start`` creates a named campaign from a sweep grid (or
    imports a legacy JSONL store with ``--from-jsonl``) and runs it;
    ``campaign resume`` re-opens a partially-run campaign — after a
    crash, a SIGKILLed driver, or a deliberate stop — and completes
    only the missing cells; ``campaign list`` / ``campaign show``
    query campaigns, per-cell lifecycle and the full attempt history
    (every retry, timeout and lost worker is a row in the DB).
``status``
    Read the ``status.json`` a running (or finished) sweep/fuzz campaign
    maintains and print done/running/pending counts, throughput, ETA,
    per-worker liveness, retry/stall totals and stall warnings.
``profile``
    Run the worksite under cProfile, print the hottest functions, and
    optionally (``--perf``) the :mod:`repro.perf` counter report.
``trace``
    Record a structured JSONL trace of a (optionally attacked) run and
    print the analysis reports: per-link delivery/drop breakdown,
    detection-latency percentiles and the attack-vs-defense timeline.
    ``--spans`` additionally records the causal span layer (mission
    phases, frame lifecycles, fault windows) with deterministic span
    ids; the span analysis (per-kind duration percentiles, critical
    path) then joins the reports, and ``--analyze --flamegraph PATH``
    exports a folded-stack flamegraph.  ``--analyze`` re-runs the
    reports on an existing trace file.  The trace header embeds the
    run's :class:`~repro.runner.spec.RunSpec`, so the file is
    self-describing and replayable by ``check``.
``check``
    Run the differential replay oracle over a recorded trace: sweep the
    runtime invariants offline, then re-execute the run from the embedded
    spec and diff the fresh stream record by record.  ``--selftest`` runs
    the mutation harness (seeded violations must all be flagged).
``fuzz``
    Coverage-guided scenario fuzzing: sample and mutate run specs, keep
    the ones whose traces exhibit never-seen behavioural signatures,
    delta-debug any oracle failure to a minimal repro, and write the
    risk-heatmap report.  Fully deterministic per ``--seed``;
    ``--resume`` continues a corpus directory on the identical
    trajectory.  ``--selftest`` proves the shrinker preserves the
    triggering invariant on injected violations.

Setting ``REPRO_CHECK=1`` additionally checks the invariants *online*.
During ``run`` and ``trace`` a violation is printed and the command exits
1.  Inside the cells of ``sweep`` and ``campaign start``/``resume`` each
record gains an ``invariants`` block with the cell's violation count; the
cell keeps ``status: ok``, and the command exits 1 only for failed cells.

Exit status: 0 ok; 1 a run, check or verification failed; 2 input
refused, with one stderr line ``<command> error: <message>``.

Examples::

    repro-worksite run --seed 7 --minutes 30
    repro-worksite run --minutes 10 --metrics-json out/metrics.json
    repro-worksite run --minutes 10 --metrics-prom out/metrics.prom
    repro-worksite run --minutes 5 --faults examples/faults_storm.toml
    repro-worksite run --minutes 5 --fault-campaign crash_brownout
    repro-worksite attack gnss_spoofing --undefended
    repro-worksite assess --characteristics
    repro-worksite sac --out out/
    repro-worksite sweep --campaigns all --n-seeds 3 --jobs 4 --resume
    repro-worksite sweep --spec examples/sweep_grid.toml --jobs 8
    repro-worksite sweep --fault-campaign crash_brownout --n-seeds 3
    repro-worksite sweep --campaigns all --n-seeds 3 --jobs 4 \
        --campaign-db out/campaigns.db --cell-timeout 600
    repro-worksite campaign start nightly --db out/campaigns.db \
        --campaigns all --n-seeds 3 --jobs 4
    repro-worksite campaign resume nightly --db out/campaigns.db --jobs 4
    repro-worksite campaign list --db out/campaigns.db
    repro-worksite campaign show nightly --db out/campaigns.db --attempts
    repro-worksite campaign start legacy --db out/campaigns.db \
        --from-jsonl out/sweep.jsonl
    repro-worksite profile --minutes 5 --sort tottime --perf
    repro-worksite trace --campaign rf_jamming --minutes 5 --check
    repro-worksite trace --fault-campaign crash_brownout --minutes 2
    repro-worksite trace --campaign rf_jamming --minutes 5 --spans
    repro-worksite trace --analyze out/trace.jsonl
    repro-worksite trace --analyze out/trace.jsonl --flamegraph out/trace.folded
    repro-worksite sweep --campaigns all --n-seeds 2 --jobs 4 --progress
    repro-worksite status out
    repro-worksite fuzz --seed 7 --iterations 25 --corpus out/fuzz --progress
    repro-worksite status out/fuzz
    repro-worksite check --trace out/trace.jsonl --report out/check.json
    repro-worksite check --selftest
    repro-worksite fuzz --seed 7 --iterations 50 --corpus out/fuzz
    repro-worksite fuzz --seed 7 --iterations 25 --corpus out/fuzz --resume
    repro-worksite fuzz --time-budget 60 --corpus out/fuzz-tb
    repro-worksite fuzz --selftest
    REPRO_CHECK=1 repro-worksite run --minutes 5
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.inputs import InputError


def _fault_schedule(args) -> Optional["FaultSchedule"]:
    """The fault schedule requested by ``--faults`` / ``--fault-campaign``.

    Returns ``None`` when neither flag was given, so fault-free invocations
    never touch the fault machinery at all.
    """
    path = getattr(args, "faults", None)
    campaign = getattr(args, "fault_campaign", None)
    if path and campaign:
        raise InputError("--faults and --fault-campaign are mutually exclusive")
    if path:
        from repro.faults.spec import load_fault_schedule

        return load_fault_schedule(path)
    if campaign:
        from repro.faults.campaigns import build_fault_campaign

        return build_fault_campaign(
            campaign,
            start=getattr(args, "fault_start", 20.0),
            duration=getattr(args, "fault_duration", 30.0),
        )
    return None


def _spec(args, campaign: str, **extra) -> "RunSpec":
    """The RunSpec of a single-run command's shared flags; a bad fault
    file or a non-finite time raises :class:`InputError`.

    The fault schedule is the one :func:`_fault_schedule` requests.  Its
    jitter is resolved here from the run's seed: these are the starts the
    injector would draw from the run's own ``faults.schedule`` stream, so
    the spec, the run and a replay of the spec agree (a jitter-free
    schedule makes no draw).  ``extra`` passes ``start``, ``duration`` and
    ``overrides`` on to ``RunSpec.single``.
    """
    from repro.runner.spec import RunSpec
    from repro.sim.rng import RngStreams

    overrides = dict(extra.pop("overrides", {}))
    if args.no_drone:
        overrides["drone_enabled"] = False
    faults = _fault_schedule(args)
    resolved = faults.resolve(RngStreams(args.seed)) if faults else ()
    return RunSpec.single(
        campaign,
        seed=args.seed,
        horizon_s=args.minutes * 60.0,
        profile="undefended" if args.undefended else "defended",
        overrides=overrides,
        faults=tuple(fault.to_primitives() for fault in resolved),
        **extra,
    )


def _print_resilience(injector, horizon_s: float) -> None:
    summary = injector.resilience_summary(horizon_s)
    faults = summary["faults"]
    print(f"faults:           {faults['injected']} injected, "
          f"{faults['cleared']} cleared "
          f"({faults['active_at_end']} active at end)")
    modes = ", ".join(
        f"{machine}={info['mode']}" for machine, info in summary["modes"].items()
    )
    print(f"final modes:      {modes}")
    if summary["mttr_s"] is not None:
        print(f"MTTR:             {summary['mttr_s']:.1f} s")
    latency = summary["safe_stop_latency"]
    if latency["count"]:
        print(f"safe-stop:        p50 {latency['p50_s']:.1f} s, "
              f"p95 {latency['p95_s']:.1f} s over {latency['count']}")
    for service, value in summary["availability"].items():
        print(f"availability:     {service:<28} {value:.4f}")
    delivery = summary["delivery"]
    print(f"delivery:         {delivery['retry_exhausted']} retry-exhausted, "
          f"{delivery['rejoins']} channel rejoins")


def _print_invariants(checker) -> None:
    """One line per finished online invariant check (plus any violations)."""
    checker.finish()
    print(f"invariants:       {len(checker.invariants)} checked, "
          f"{len(checker.violations)} violation(s)")
    for violation in checker.violations[:10]:
        print(f"  [{violation.invariant}] t={violation.t:.1f} s: "
              f"{violation.message}", file=sys.stderr)
    if len(checker.violations) > 10:
        print(f"  ... {len(checker.violations) - 10} more", file=sys.stderr)


def _print_summary(scenario) -> None:
    summary = scenario.summary()
    safety = summary["safety"]
    print(f"time:             {summary['time_s']:.0f} s")
    print(f"delivered:        {summary['delivered_m3']:.0f} m3 "
          f"({summary['cycles']} cycles)")
    print(f"delivery ratio:   {summary['delivery_ratio']:.1%}")
    print(f"safe stops:       {summary['safe_stops']}")
    print(f"violations:       {safety['violations']} "
          f"(near misses {safety['near_misses']})")
    print(f"IDS alerts:       {summary['alerts']}")


def cmd_run(args) -> int:
    from repro.invariants import engine as checks
    from repro.scenarios.factory import compose_spec

    metrics_out = args.metrics_json or args.metrics_prom
    if args.metrics_interval is not None and not metrics_out:
        raise InputError("--metrics-interval has no effect without "
                         "--metrics-json or --metrics-prom")
    interval = None
    if metrics_out:
        interval = (
            args.metrics_interval if args.metrics_interval is not None
            else 5.0
        )
    prepared = compose_spec(_spec(args, "baseline"),
                            metrics_interval_s=interval)
    scenario = prepared.scenario
    print(f"running worksite seed={args.seed} for {args.minutes} min ...")
    checker = tracer = None
    if checks.env_enabled():
        # online checking rides on the record stream, so REPRO_CHECK
        # attaches the engine to a writer-less tracer
        from repro.telemetry.tracer import Tracer

        checker = checks.InvariantEngine()
        tracer = Tracer(scenario.sim, checker=checker)
    prepared.run(tracer)
    _print_summary(scenario)
    if checker is not None:
        _print_invariants(checker)
    if prepared.fault_injector is not None:
        _print_resilience(prepared.fault_injector, prepared.horizon_s)
    if metrics_out:
        from repro.telemetry import hub

        scenario.collect_metrics()
        if args.metrics_json:
            written = hub.write_metrics_json(scenario.metrics,
                                             args.metrics_json)
            print(f"metrics:          {written}")
        if args.metrics_prom:
            written = hub.write_prometheus(scenario.metrics,
                                           args.metrics_prom)
            print(f"metrics (prom):   {written}")
    if checker is not None and not checker.ok:
        return 1
    return 0


def cmd_trace(args) -> int:
    from repro.invariants import engine as checks
    from repro.scenarios.campaigns import CAMPAIGN_BUILDERS
    from repro.scenarios.factory import compose_spec
    from repro.telemetry.analysis import full_report
    from repro.telemetry.schema import validate_trace
    from repro.telemetry.tracer import Tracer
    from repro.telemetry.writer import TraceWriter, read_trace

    if args.analyze:
        records = read_trace(args.analyze)
        problems = validate_trace(records)
        if args.check:
            if problems:
                for problem in problems:
                    print(f"schema: {problem}", file=sys.stderr)
                return 1
            print(f"schema: {len(records)} records valid")
        elif problems:
            # the reports read the fields the schema requires
            raise InputError(f"{args.analyze}: {problems[0]}")
        try:
            report = full_report(records)
        except InputError as exc:
            raise InputError(f"{args.analyze}: {exc}") from None
        print(report)
        if args.flamegraph:
            from repro.telemetry.spans import flamegraph_folded, has_spans

            if not has_spans(records):
                raise InputError("trace has no span records "
                                 "(record with trace --spans)")
            target = Path(args.flamegraph)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(flamegraph_folded(records), encoding="utf-8")
            print(f"flamegraph:       {target}")
        return 0

    if args.flamegraph:
        raise InputError("--flamegraph requires --analyze PATH")
    if args.campaign and args.campaign not in CAMPAIGN_BUILDERS:
        raise InputError(f"unknown campaign {args.campaign!r}; "
                         f"available: {', '.join(sorted(CAMPAIGN_BUILDERS))}")
    if (args.gs_attacks or args.audit_out) and not args.gs:
        raise InputError("--gs-attacks/--audit-out require --gs")
    overrides = {}
    if args.gs:
        overrides["groundstation_enabled"] = True
        if args.gs_attacks:
            overrides["gs_attacks"] = args.gs_attacks
    # embedded in the header, so the trace is self-describing and `check`
    # differentially replays exactly the run recorded here
    spec = _spec(
        args, args.campaign or "baseline",
        start=args.start, duration=args.duration, overrides=overrides,
    )
    if args.audit_out:
        Path(args.audit_out).parent.mkdir(parents=True, exist_ok=True)
    prepared = compose_spec(spec, audit_path=args.audit_out)
    scenario = prepared.scenario
    checker = checks.InvariantEngine() if checks.env_enabled() else None
    tracer = Tracer(
        scenario.sim, TraceWriter(args.out), spans=args.spans,
        checker=checker,
    )
    tracer.meta(
        seed=args.seed,
        profile=scenario.config.profile.value,
        horizon_s=spec.horizon_s,
        campaign=args.campaign,
        spec=spec.to_dict(),
    )
    target = spec.campaign
    if prepared.fault_injector is not None:
        target += f" + {len(prepared.fault_injector.schedule)} fault(s)"
    print(f"tracing {target!r} run seed={args.seed} "
          f"for {args.minutes} min -> {args.out}")
    prepared.run(tracer)
    print(f"trace:            {tracer.record_count} records")
    if scenario.groundstation is not None:
        audit = scenario.groundstation.audit.summary()
        where = f" -> {args.audit_out}" if args.audit_out else ""
        print(f"audit:            {audit['entries']} entries, "
              f"head {audit['head'][:16]}...{where}")
    if args.spans:
        print(f"spans:            {tracer.span_count} span records")
    if checker is not None:
        _print_invariants(checker)
    records = read_trace(args.out)
    if args.check:
        problems = validate_trace(records)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=sys.stderr)
            return 1
        print(f"schema: {len(records)} records valid")
    if not args.no_report:
        print()
        print(full_report(records))
    return 1 if checker is not None and not checker.ok else 0


def cmd_check(args) -> int:
    from repro.invariants.oracle import check_trace, write_report
    from repro.telemetry.analysis import check_report

    if args.selftest:
        from repro.invariants.selftest import run_selftest

        report = run_selftest()
        print(f"self-test: {report['detected']}/{report['mutations']} "
              f"seeded violations detected (base trace "
              f"{report['base_records']} records, "
              f"{report['base_violations']} baseline violations)")
        for result in report["results"]:
            caught = result["detected"] and result["attributed"]
            print(f"  {result['mutation']:<20} -> "
                  f"{result['expected_invariant']:<28} "
                  f"{'ok' if caught else 'MISSED'}")
        if args.report:
            print(f"report:           {write_report(report, args.report)}")
        return 0 if report["ok"] else 1

    if not args.trace:
        raise InputError("--trace PATH (or --selftest) required")
    report = check_trace(args.trace, replay=not args.no_replay)
    print(check_report(report))
    if args.report:
        print(f"report:           {write_report(report, args.report)}")
    return 0 if report["ok"] else 1


def cmd_audit_verify(args) -> int:
    import dataclasses
    import json as _json

    from repro.groundstation.audit import (
        evidence_from_report, verify_audit_file,
    )

    if args.selftest:
        from repro.groundstation.selftest import run_audit_selftest

        report = run_audit_selftest()
        print(f"audit self-test: {report['detected']}/{report['mutations']} "
              f"tamper mutations detected and localised")
        for result in report["results"]:
            first = result.get("first_violation") or {}
            print(f"  {result['mutation']:<20} -> "
                  f"{first.get('check', '-'):<10} "
                  f"@ entry {first.get('index', '-'):<4} "
                  f"{'ok' if result['ok'] else 'MISSED'}")
        if args.report:
            path = Path(args.report)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_json.dumps(report, indent=2, sort_keys=True))
            print(f"report:           {path}")
        return 0 if report["ok"] else 1

    if not args.audit:
        raise InputError("--audit PATH (or --selftest) required")
    report = verify_audit_file(
        args.audit, require_close=not args.allow_partial
    )
    print(f"audit chain:      {report['entries']} entries, "
          f"seed {report['seed']}")
    print(f"head:             {report['head']}")
    complete = "yes" if report["complete"] else "no"
    if report.get("torn_tail"):
        complete += " (torn tail dropped)"
    print(f"complete:         {complete}")
    for violation in report["violations"]:
        print(f"  entry {violation['index']:>4} "
              f"[{violation['check']}] {violation['message']}")
    print(f"verdict:          {'ok' if report['ok'] else 'TAMPERED'}")
    if args.report:
        evidence = dataclasses.asdict(evidence_from_report(report))
        payload = dict(report)
        payload["evidence"] = evidence
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(payload, indent=2, sort_keys=True))
        print(f"report:           {path}")
    return 0 if report["ok"] else 1


def cmd_fuzz(args) -> int:
    from repro.fuzz.search import run_fuzz
    from repro.telemetry.analysis import fuzz_report_text

    if args.selftest:
        from repro.fuzz.selftest import run_shrink_selftest

        log = (lambda line: None) if args.quiet \
            else lambda line: print(line, flush=True)
        report = run_shrink_selftest(log=log)
        for case in report["cases"]:
            ok = case["preserved"] and case["reduced"]
            print(f"  {case['name']:<20} -> "
                  f"{case['expected_invariant']:<28} "
                  f"size {case['original']['size']} -> "
                  f"{case['shrunk']['size']} "
                  f"{'ok' if ok else 'FAILED'}")
        print(f"shrink self-test: {'OK' if report['ok'] else 'FAIL'} "
              f"({len(report['cases'])} injected violations)")
        return 0 if report["ok"] else 1

    log = (lambda line: None) if args.quiet \
        else lambda line: print(line, flush=True)
    monitor = status_path = None
    if args.progress:
        # opt-in: status.json carries wall-clock content, so it is never
        # written by default (the corpus tree stays byte-reproducible)
        from repro.runner import SweepMonitor

        monitor = SweepMonitor()
        status_path = Path(args.corpus) / "status.json"
    report = run_fuzz(
        args.corpus,
        args.seed,
        iterations=args.iterations,
        time_budget_s=args.time_budget,
        resume=args.resume,
        log=log,
        monitor=monitor,
        status_path=status_path,
    )
    print()
    print(fuzz_report_text(report))
    print(f"corpus:           {args.corpus}")
    totals = report["totals"]
    return 1 if totals["failures"] or totals["unshrinkable"] else 0


def cmd_attack(args) -> int:
    from repro.scenarios.campaigns import CAMPAIGN_BUILDERS
    from repro.scenarios.factory import compose_spec

    if args.campaign not in CAMPAIGN_BUILDERS:
        raise InputError(f"unknown campaign {args.campaign!r}; "
                         f"available: {', '.join(sorted(CAMPAIGN_BUILDERS))}")
    prepared = compose_spec(_spec(
        args, args.campaign, start=args.start, duration=args.duration,
    ))
    print(f"running {args.campaign!r} against "
          f"{'undefended' if args.undefended else 'defended'} worksite ...")
    prepared.run()
    _print_summary(prepared.scenario)
    manager = prepared.score_manager()
    if manager is not None:
        score = manager.score(prepared.windows, horizon_s=prepared.horizon_s)
        latency = (f"{score.mean_latency_s:.1f} s"
                   if score.mean_latency_s is not None else "-")
        print(f"detection:        {score.attacks_detected}/{score.attacks_total} "
              f"(latency {latency}, {score.false_alarms} false alarms)")
    return 0


def cmd_assess(args) -> int:
    from repro.core.characteristics import characteristic_catalog
    from repro.core.methodology import CombinedAssessment
    from repro.safety.hazards import HazardCatalog
    from repro.scenarios.worksite import (
        worksite_item_model, worksite_safety_designs,
    )
    from repro.sos.zones import worksite_zone_model

    characteristics = characteristic_catalog() if args.characteristics else []
    result = CombinedAssessment(
        worksite_item_model(), HazardCatalog(), worksite_safety_designs(),
        worksite_zone_model(),
        characteristics=characteristics,
        deployed_measures=args.measures or [],
    ).run()
    print(f"risk profile (1..5): {result.tara.risk_profile()}")
    print(f"mean risk:           {result.tara.mean_risk():.2f}")
    print(f"safety shortfalls:   {result.safety.shortfalls or 'none'}")
    print(f"interplay findings:  {len(result.interplay_findings)} "
          f"({len(result.interplay_gaps)} assurance gaps)")
    print(f"missed separately:   {len(result.separate_verdict_misses())}")
    print(f"zone SL gap:         {result.zone_total_gap}")
    deployed = result.treatment.measures_deployed()
    print(f"treatment deploys:   {', '.join(deployed) if deployed else 'nothing'}")
    return 0


def cmd_sac(args) -> int:
    from repro.assurance.compliance import ComplianceMapping
    from repro.assurance.evidence import Evidence, EvidenceRegistry
    from repro.assurance.export import render_gsn_dot, render_markdown
    from repro.assurance.sac import SacBuilder
    from repro.core.methodology import CombinedAssessment
    from repro.safety.hazards import HazardCatalog
    from repro.scenarios.worksite import (
        worksite_item_model, worksite_safety_designs,
    )
    from repro.sos.zones import worksite_zone_model

    item = worksite_item_model()
    result = CombinedAssessment(
        item, HazardCatalog(), worksite_safety_designs(),
        worksite_zone_model(),
    ).run()
    registry = EvidenceRegistry()
    registry.add(Evidence("ev-tara", "analysis", "worksite TARA", "cli"))
    compliance = ComplianceMapping()
    compliance.record_work_product("tara", "ev-tara")
    builder = SacBuilder(item, registry, compliance)
    graph = builder.build(
        result,
        evidence_by_threat={a.threat_id: ["ev-tara"]
                            for a in result.tara.assessments},
        interplay_evidence="ev-tara",
    )
    report = builder.report(graph)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "worksite_sac.md").write_text(render_markdown(graph))
    (out / "worksite_sac.dot").write_text(render_gsn_dot(graph))
    print(f"SAC: {report.elements} elements, goal coverage "
          f"{report.goal_coverage:.0%}, evidence coverage "
          f"{report.evidence_coverage:.0%}")
    print(f"wrote {out / 'worksite_sac.md'} and {out / 'worksite_sac.dot'}")
    return 0


def _parse_csv(value: Optional[str]) -> List[str]:
    if not value:
        return []
    return [item.strip() for item in value.split(",") if item.strip()]


def _sweep_spec_from_args(args) -> "SweepSpec":
    from repro.runner import SweepSpec, load_sweep_spec
    from repro.scenarios.campaigns import CAMPAIGN_BUILDERS

    if args.spec:
        spec = load_sweep_spec(args.spec)
    else:
        spec = SweepSpec()
    campaigns = _parse_csv(args.campaigns)
    if campaigns == ["all"]:
        campaigns = sorted(CAMPAIGN_BUILDERS)
    if campaigns:
        spec.campaigns = campaigns
    unknown = [c for c in spec.campaigns
               if c not in CAMPAIGN_BUILDERS and c != "baseline"]
    if unknown:
        raise InputError(
            f"unknown campaigns {unknown}; "
            f"available: baseline, {', '.join(sorted(CAMPAIGN_BUILDERS))}"
        )
    if args.seeds:
        seeds = _parse_csv(args.seeds)
        if not all(re.fullmatch(r"[+-]?\d+", seed) for seed in seeds):
            raise InputError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            )
        spec.seeds = [int(seed) for seed in seeds]
    if args.base_seed is not None:
        spec.base_seed = args.base_seed
        spec.seeds = []
    if args.n_seeds is not None:
        spec.n_seeds = args.n_seeds
        if not args.seeds:
            spec.seeds = []
    if args.minutes is not None:
        spec.horizon_s = args.minutes * 60.0
    profiles = _parse_csv(args.profiles)
    if profiles:
        spec.profiles = profiles
    if args.start is not None:
        spec.attack_start = args.start
    if args.duration is not None:
        spec.attack_duration = args.duration
    if args.fault_campaign:
        from repro.faults.campaigns import FAULT_CAMPAIGNS

        if args.fault_campaign not in FAULT_CAMPAIGNS:
            raise InputError(
                f"unknown fault campaign {args.fault_campaign!r}; "
                f"available: {', '.join(sorted(FAULT_CAMPAIGNS))}"
            )
        spec.fault_campaign = args.fault_campaign
        if args.fault_start is not None:
            spec.fault_start = args.fault_start
        if args.fault_duration is not None:
            spec.fault_duration = args.fault_duration
    return spec


def _retry_policy_from_args(args) -> "Optional[CellRetryPolicy]":
    """Validate the execution flags; returns the cell retry policy
    requested by ``--max-attempts`` (or None for the engine default)."""
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    if args.cell_timeout is not None and not args.cell_timeout > 0:
        raise InputError(
            f"--cell-timeout must be > 0, got {args.cell_timeout}"
        )
    if args.max_attempts is None:
        return None
    from repro.runner import CellRetryPolicy

    if args.max_attempts < 1:
        raise InputError(
            f"--max-attempts must be >= 1, got {args.max_attempts}"
        )
    return CellRetryPolicy(max_attempts=args.max_attempts)


def _print_sweep_outcome(report, status_path) -> None:
    """The shared exit summary: totals plus self-healing activity."""
    print(f"done: {report.executed} executed, {report.cached} cached, "
          f"{report.failed} failed in {report.wall_s:.1f} s")
    retried_cells = sum(1 for n in report.attempts.values() if n > 1)
    print(f"attempts:         {report.total_attempts} over "
          f"{report.executed} executed cell(s); {retried_cells} cell(s) "
          f"retried ({report.retries} requeued attempts), "
          f"{report.stalls} stall warning(s)")
    print(f"status:           {status_path}")
    for record in report.failures():
        attempts = record.get("attempts")
        suffix = f" after {attempts} attempt(s)" if attempts else ""
        print(f"  FAILED {record['spec'].get('campaign')} "
              f"seed={record['spec'].get('seed')}{suffix}: "
              f"{record.get('error')}",
              file=sys.stderr)


def cmd_sweep(args) -> int:
    from repro.runner import (
        CampaignStore,
        SweepMonitor,
        SweepRunner,
        aggregate_table,
        export_jsonl,
        progress_line,
    )

    policy = _retry_policy_from_args(args)
    spec = _sweep_spec_from_args(args)
    specs = spec.expand()
    if not specs:
        raise InputError("sweep spec expands to zero runs")
    out = Path(args.out)
    db = Path(args.campaign_db or out.with_suffix(".db"))
    if db.resolve() == out.resolve():
        raise InputError(f"--out {out} is the campaign database")
    campaign_store = CampaignStore(db)
    name = args.campaign_name
    if campaign_store.campaign_id(name) is None and out.exists():
        # a JSONL store from before SQLite was the only store: promote it
        # so its results are neither lost to the export nor re-executed
        campaign_store.import_jsonl(out, name)
    campaign_store.ensure_campaign(name, specs, meta={"source": "sweep"})
    store = campaign_store.bind(name)
    status_path = db.parent / "status.json"
    monitor = SweepMonitor()
    if args.progress and not args.quiet:
        def progress(line):
            print(line, flush=True)
            print(progress_line(monitor.snapshot()), flush=True)
    else:
        progress = (
            None if args.quiet else lambda line: print(line, flush=True)
        )
    print(f"sweep: {len(specs)} runs "
          f"({len(spec.campaigns)} campaigns x {len(spec.resolved_seeds())} "
          f"seeds x {len(spec.profiles)} profiles), jobs={args.jobs}, "
          f"store={db} (campaign {name!r})")
    runner = SweepRunner(jobs=args.jobs, store=store, progress=progress,
                         retry_policy=policy,
                         cell_timeout_s=args.cell_timeout,
                         monitor=monitor, status_path=status_path)
    report = runner.run(specs, resume=args.resume)
    export_jsonl(report.records, out)
    _print_sweep_outcome(report, status_path)
    if not args.no_table:
        aggregate_table(
            report.records,
            title=f"sweep aggregate over {len(spec.resolved_seeds())} seed(s)",
        ).print()
    return 1 if report.failed else 0


def _run_campaign(store, name, specs, policy, args) -> int:
    """Execute (or complete) a campaign's cells through the engine."""
    from repro.runner import SweepMonitor, SweepRunner, aggregate_table

    monitor = SweepMonitor()
    status_path = Path(args.db).parent / "status.json"
    progress = (
        None if args.quiet else lambda line: print(line, flush=True)
    )
    print(f"campaign {name!r}: {len(specs)} cell(s), jobs={args.jobs}, "
          f"db={args.db}")
    runner = SweepRunner(jobs=args.jobs, store=store.bind(name),
                         retry_policy=policy,
                         cell_timeout_s=args.cell_timeout,
                         progress=progress, monitor=monitor,
                         status_path=status_path)
    # resume semantics always: cells already ok in the store are final
    report = runner.run(specs, resume=True)
    _print_sweep_outcome(report, status_path)
    if not args.no_table:
        aggregate_table(
            report.records, title=f"campaign {name!r} aggregate",
        ).print()
    return 1 if report.failed else 0


def _grid_requested(args) -> bool:
    """Whether any sweep-grid flag was explicitly given."""
    return any(
        getattr(args, flag, None) not in (None, False)
        for flag in ("spec", "campaigns", "seeds", "base_seed", "n_seeds",
                     "minutes", "profiles", "start", "duration",
                     "fault_campaign")
    )


def cmd_campaign_start(args) -> int:
    from repro.runner import CampaignStore

    policy = _retry_policy_from_args(args)
    store = CampaignStore(args.db)
    if store.campaign_id(args.name) is not None:
        raise InputError(f"campaign {args.name!r} already exists in "
                         f"{args.db}; use 'campaign resume' to continue it")
    if not args.from_jsonl and not _grid_requested(args):
        raise InputError("give a sweep grid (--campaigns, --spec, ...) "
                         "or --from-jsonl PATH")
    specs = []
    if _grid_requested(args):
        specs = _sweep_spec_from_args(args).expand()
    store.ensure_campaign(args.name, specs, meta={"source": "campaign-cli"})
    if args.from_jsonl:
        imported = store.import_jsonl(args.from_jsonl, args.name)
        print(f"imported {imported['cells']} cell(s) from "
              f"{args.from_jsonl} ({imported['ok']} ok, "
              f"{imported['failed']} failed)")
    return _run_campaign(store, args.name, store.specs(args.name), policy,
                         args)


def cmd_campaign_resume(args) -> int:
    from repro.runner import CampaignStore

    policy = _retry_policy_from_args(args)
    store = CampaignStore(args.db)
    return _run_campaign(store, args.name, store.specs(args.name), policy,
                         args)


def cmd_campaign_list(args) -> int:
    from repro.runner import CampaignStore

    campaigns = CampaignStore(args.db).list_campaigns()
    if not campaigns:
        print(f"no campaigns in {args.db}")
        return 0
    header = (f"{'name':<24} {'cells':>6} {'ok':>5} {'failed':>7} "
              f"{'pending':>8} {'attempts':>9}")
    print(header)
    print("-" * len(header))
    for campaign in campaigns:
        print(f"{campaign['name']:<24} {campaign['cells']:>6} "
              f"{campaign['ok']:>5} {campaign['failed']:>7} "
              f"{campaign['pending']:>8} {campaign['attempts']:>9}")
    return 0


def cmd_campaign_show(args) -> int:
    from repro.runner import CampaignStore

    store = CampaignStore(args.db)
    detail = store.show(args.name)
    print(f"campaign: {detail['name']}")
    print(f"cells:    {detail['cells']} total, {detail['ok']} ok, "
          f"{detail['failed']} failed, {detail['pending']} pending")
    print(f"attempts: {detail['attempts']} recorded")
    for cell in detail["cells_detail"]:
        line = (f"  {cell['key']}  {cell['status']:<8} "
                f"attempts={cell['attempts']}  {cell['label']}")
        if cell["status"] != "ok" and cell.get("last_error"):
            line += f"  [{cell['last_error']}]"
        print(line)
    if args.attempts:
        print("attempt history:")
        for row in store.attempts(args.name):
            error = f"  [{row['error']}]" if row.get("error") else ""
            wall = (f" wall={row['wall_s']}s"
                    if row.get("wall_s") is not None else "")
            pid = f" pid={row['pid']}" if row.get("pid") else ""
            print(f"  {row['key']} #{row['attempt']} "
                  f"{row['status']}{wall}{pid}{error}")
    return 0


def cmd_profile(args) -> int:
    import cProfile
    import pstats

    from repro.perf import counters as perf_counters
    from repro.scenarios.factory import compose_spec

    prepared = compose_spec(_spec(args, "baseline"))
    if args.perf:
        perf_counters.enable(True)
        perf_counters.reset()
    print(f"profiling worksite seed={args.seed} for {args.minutes} min ...")
    profiler = cProfile.Profile()
    profiler.enable()
    prepared.run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.limit)
    _print_summary(prepared.scenario)
    if args.perf:
        print()
        print("perf counters:")
        print(perf_counters.report())
        summary = perf_counters.batch_summary()
        if summary:
            print()
            print("batch kernels:")
            for name in sorted(summary):
                print(f"{name:<40} {summary[name]}")
    return 0


def cmd_campaigns(args) -> int:
    from repro.scenarios.campaigns import CAMPAIGN_BUILDERS

    for name in sorted(CAMPAIGN_BUILDERS):
        print(name)
    return 0


def cmd_status(args) -> int:
    from repro.runner import read_status, render_status

    target = Path(args.path)
    if target.is_dir():
        target = target / "status.json"
    if not target.exists():
        raise InputError(f"{target} not found (sweeps write it next to the "
                         "result store; fuzz needs --progress)")
    print(render_status(read_status(target)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worksite",
        description="AGRARSENSE worksite reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--minutes", type=float, default=15.0)
        p.add_argument("--undefended", action="store_true",
                       help="plaintext links, no IDS, no access control")
        p.add_argument("--no-drone", action="store_true")

    def fault_flags(p):
        p.add_argument("--faults", default=None, metavar="PATH",
                       help="TOML/JSON fault schedule to inject")
        p.add_argument("--fault-campaign", default=None,
                       help="named fault campaign (see repro.faults)")
        p.add_argument("--fault-start", type=float, default=20.0,
                       help="fault campaign start time (s)")
        p.add_argument("--fault-duration", type=float, default=30.0,
                       help="fault campaign duration (s)")

    run_p = sub.add_parser("run", help="run the nominal worksite")
    common(run_p)
    fault_flags(run_p)
    run_p.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write the run's metrics snapshot (counters, "
                            "gauges, series summaries) as JSON")
    run_p.add_argument("--metrics-prom", default=None, metavar="PATH",
                       help="write the metrics snapshot in the "
                            "Prometheus text exposition format")
    run_p.add_argument("--metrics-interval", type=float, default=None,
                       help="series sampling interval in seconds (default "
                            "5.0; requires --metrics-json or "
                            "--metrics-prom)")
    run_p.set_defaults(func=cmd_run)

    attack_p = sub.add_parser("attack", help="run an attack campaign")
    attack_p.add_argument("campaign")
    attack_p.add_argument("--start", type=float, default=120.0)
    attack_p.add_argument("--duration", type=float, default=None)
    common(attack_p)
    attack_p.set_defaults(func=cmd_attack)

    assess_p = sub.add_parser("assess", help="run the combined assessment")
    assess_p.add_argument("--characteristics", action="store_true",
                          help="apply the Table I forestry characteristics")
    assess_p.add_argument("--measures", nargs="*", default=None,
                          help="deployed countermeasure names")
    assess_p.set_defaults(func=cmd_assess)

    sac_p = sub.add_parser("sac", help="build and export the assurance case")
    sac_p.add_argument("--out", default="out")
    sac_p.set_defaults(func=cmd_sac)

    campaigns_p = sub.add_parser("campaigns", help="list attack campaigns")
    campaigns_p.set_defaults(func=cmd_campaigns)

    profile_p = sub.add_parser(
        "profile", help="run the worksite under cProfile"
    )
    common(profile_p)
    profile_p.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "calls", "ncalls"],
        help="pstats sort key for the hot-function table",
    )
    profile_p.add_argument("--limit", type=int, default=25,
                           help="number of rows to print")
    profile_p.add_argument(
        "--perf", action="store_true",
        help="enable the repro.perf counters and print their report",
    )
    profile_p.set_defaults(func=cmd_profile)

    def grid_flags(p):
        """The sweep-grid declaration flags, shared by sweep/campaign start."""
        p.add_argument("--spec", default=None,
                       help="TOML/JSON sweep spec file (flags override it)")
        p.add_argument("--campaigns", default=None,
                       help="comma-separated campaign names, or 'all' "
                            "(use 'baseline' for the no-attack run)")
        p.add_argument("--seeds", default=None,
                       help="comma-separated explicit seeds")
        p.add_argument("--base-seed", type=int, default=None,
                       help="base seed for deterministic seed derivation")
        p.add_argument("--n-seeds", type=int, default=None,
                       help="number of derived seeds per cell")
        p.add_argument("--minutes", type=float, default=None,
                       help="simulated horizon per run")
        p.add_argument("--profiles", default=None,
                       help="comma-separated: defended,undefended")
        p.add_argument("--start", type=float, default=None,
                       help="attack start time (s)")
        p.add_argument("--duration", type=float, default=None,
                       help="attack duration (s)")
        p.add_argument("--fault-campaign", default=None,
                       help="named fault campaign injected into every run")
        p.add_argument("--fault-start", type=float, default=None,
                       help="fault campaign start time (s)")
        p.add_argument("--fault-duration", type=float, default=None,
                       help="fault campaign duration (s)")

    def exec_flags(p):
        """Execution/healing flags shared by sweep and campaign runs."""
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
        p.add_argument("--max-attempts", type=int, default=None,
                       help="executions per cell before it is declared "
                            "failed (default: engine policy, 3)")
        p.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per cell attempt (> 0); "
                            "overdue cells are killed and retried.  Cells "
                            "then run in worker processes, also at "
                            "--jobs 1")
        p.add_argument("--no-table", action="store_true",
                       help="skip the aggregate table")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")

    sweep_p = sub.add_parser(
        "sweep", help="run a campaign x seed x profile grid in parallel"
    )
    grid_flags(sweep_p)
    exec_flags(sweep_p)
    sweep_p.add_argument("--out", default="out/sweep.jsonl",
                         help="JSONL export of the sweep's records, "
                              "rewritten at the end (default store: this "
                              "path with a .db suffix)")
    sweep_p.add_argument("--campaign-db", default=None, metavar="PATH",
                         help="SQLite campaign store to record results in "
                              "(default: --out with a .db suffix)")
    sweep_p.add_argument("--campaign-name", default="sweep",
                         help="campaign name inside the store "
                              "(default: sweep)")
    sweep_p.add_argument("--resume", action="store_true",
                         help="skip runs already completed in the store "
                              "(a JSONL store at --out is imported first)")
    sweep_p.add_argument("--progress", action="store_true",
                         help="print a live one-line progress summary "
                              "(done/running/pending, rate, ETA) as cells "
                              "complete")
    sweep_p.set_defaults(func=cmd_sweep)

    campaign_p = sub.add_parser(
        "campaign",
        help="manage durable sweep campaigns in a SQLite store",
    )
    campaign_sub = campaign_p.add_subparsers(
        dest="campaign_command", required=True
    )

    cstart_p = campaign_sub.add_parser(
        "start", help="create a named campaign from a sweep grid and run it"
    )
    cstart_p.add_argument("name", help="campaign name (unique per store)")
    cstart_p.add_argument("--db", default="out/campaigns.db",
                          help="SQLite campaign store path")
    cstart_p.add_argument("--from-jsonl", default=None, metavar="PATH",
                          help="import a legacy JSONL result store into "
                               "the campaign before running")
    grid_flags(cstart_p)
    exec_flags(cstart_p)
    cstart_p.set_defaults(func=cmd_campaign_start)

    cresume_p = campaign_sub.add_parser(
        "resume", help="re-open a campaign and execute its remaining cells"
    )
    cresume_p.add_argument("name", help="campaign name")
    cresume_p.add_argument("--db", default="out/campaigns.db",
                           help="SQLite campaign store path")
    exec_flags(cresume_p)
    cresume_p.set_defaults(func=cmd_campaign_resume)

    clist_p = campaign_sub.add_parser(
        "list", help="list campaigns in a store with cell/attempt counts"
    )
    clist_p.add_argument("--db", default="out/campaigns.db",
                         help="SQLite campaign store path")
    clist_p.set_defaults(func=cmd_campaign_list)

    cshow_p = campaign_sub.add_parser(
        "show", help="show one campaign's cells and attempt history"
    )
    cshow_p.add_argument("name", help="campaign name")
    cshow_p.add_argument("--db", default="out/campaigns.db",
                         help="SQLite campaign store path")
    cshow_p.add_argument("--attempts", action="store_true",
                         help="also print the per-attempt history")
    cshow_p.set_defaults(func=cmd_campaign_show)

    status_p = sub.add_parser(
        "status",
        help="show live progress of a sweep or fuzz campaign directory",
    )
    status_p.add_argument(
        "path",
        help="campaign directory containing status.json (or the file "
             "itself)",
    )
    status_p.set_defaults(func=cmd_status)

    trace_p = sub.add_parser(
        "trace", help="record a structured trace and print analysis reports"
    )
    common(trace_p)
    trace_p.add_argument("--campaign", default=None,
                         help="attack campaign to arm (default: baseline run)")
    trace_p.add_argument("--start", type=float, default=120.0,
                         help="attack start time (s)")
    trace_p.add_argument("--duration", type=float, default=None,
                         help="attack duration (s)")
    trace_p.add_argument("--out", default="out/trace.jsonl",
                         help="JSONL trace output path")
    trace_p.add_argument("--check", action="store_true",
                         help="validate every record against the schema "
                              "(exit 1 on violations)")
    trace_p.add_argument("--analyze", default=None, metavar="PATH",
                         help="skip the run; report on an existing trace file")
    trace_p.add_argument("--spans", action="store_true",
                         help="record the causal span layer (mission "
                              "phases, frame lifecycles, fault windows) "
                              "alongside the event records")
    trace_p.add_argument("--flamegraph", default=None, metavar="PATH",
                         help="with --analyze: write a folded-stack "
                              "flamegraph (flamegraph.pl / speedscope "
                              "format) from the trace's spans")
    trace_p.add_argument("--no-report", action="store_true",
                         help="record only, skip the analysis reports")
    trace_p.add_argument("--gs", action="store_true",
                         help="arm the signed ground-station command/alert "
                              "plane (adds gs.* records to the trace)")
    trace_p.add_argument("--gs-attacks", default=None, metavar="KINDS",
                         help="'+'-separated ground-station attacks to run "
                              "(command_forgery, command_replay, "
                              "alert_suppression); requires --gs")
    trace_p.add_argument("--audit-out", default=None, metavar="PATH",
                         help="write the hash-chained audit log here "
                              "(verify with `audit verify`); requires --gs")
    fault_flags(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    check_p = sub.add_parser(
        "check",
        help="invariant-check a recorded trace and differentially replay "
             "it from its embedded spec",
    )
    check_p.add_argument("--trace", default=None, metavar="PATH",
                         help="recorded JSONL trace to check")
    check_p.add_argument("--report", default=None, metavar="PATH",
                         help="write the JSON violation report here")
    check_p.add_argument("--no-replay", action="store_true",
                         help="skip the differential replay; offline "
                              "invariant sweep only")
    check_p.add_argument("--selftest", action="store_true",
                         help="run the mutation self-test: seed known "
                              "violations, assert each is flagged")
    check_p.set_defaults(func=cmd_check)

    audit_p = sub.add_parser(
        "audit",
        help="work with ground-station audit chains",
    )
    audit_sub = audit_p.add_subparsers(dest="audit_command", required=True)
    averify_p = audit_sub.add_parser(
        "verify",
        help="verify a hash-chained audit log offline and emit the "
             "evidence report",
    )
    averify_p.add_argument("--audit", default=None, metavar="PATH",
                           help="audit JSONL file written by "
                                "`trace --gs --audit-out`")
    averify_p.add_argument("--report", default=None, metavar="PATH",
                           help="write the JSON verification report "
                                "(with assurance evidence) here")
    averify_p.add_argument("--allow-partial", action="store_true",
                           help="accept a chain without a close entry "
                                "(crash-recovered logs)")
    averify_p.add_argument("--selftest", action="store_true",
                           help="run the tamper self-test: mutate a known "
                                "chain 9 ways, assert each is localised")
    averify_p.set_defaults(func=cmd_audit_verify)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing with the invariant oracle",
    )
    fuzz_p.add_argument("--seed", type=int, default=42,
                        help="master seed; the whole session is a pure "
                             "function of it")
    fuzz_p.add_argument("--iterations", type=int, default=None,
                        help="iteration budget (default 25 when no "
                             "--time-budget is given)")
    fuzz_p.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-time budget; stops after the current "
                             "iteration once exceeded")
    fuzz_p.add_argument("--corpus", default="out/fuzz", metavar="DIR",
                        help="corpus directory (corpus.jsonl, coverage.json, "
                             "state.json, failures/, report.json)")
    fuzz_p.add_argument("--resume", action="store_true",
                        help="continue an existing corpus directory "
                             "(same seed required)")
    fuzz_p.add_argument("--selftest", action="store_true",
                        help="shrink injected-violation specs and assert "
                             "each minimal repro still fails the same "
                             "invariant")
    fuzz_p.add_argument("--quiet", action="store_true",
                        help="suppress per-iteration progress lines")
    fuzz_p.add_argument("--progress", action="store_true",
                        help="maintain a live status.json in the corpus "
                             "directory (read it with `status`)")
    fuzz_p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; refused input (an :class:`InputError`, or a named
    file that cannot be opened) exits 2 with one stderr line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
