"""Coverage-guided scenario fuzzing: generated worksite scenarios at scale.

The paper's certification argument needs systematic, evidence-producing
exploration of the attack/fault scenario space — not a handful of
hand-written grids.  This package turns the PR 1–5 machinery (run specs,
the scenario factory, structured traces, the invariant engine, fault
campaigns) into an automated scenario-discovery engine:

* :mod:`repro.fuzz.generator` — seed-driven sampling and mutation of
  valid :class:`~repro.runner.spec.RunSpec` values over tunable
  distributions (attack plans, fault schedules, scenario overrides);
* :mod:`repro.fuzz.coverage` — behavioural coverage signatures extracted
  from the trace record stream (drop-cause taxonomy hits, mode-machine
  transition edges, IDS attribution outcomes, service outage/recovery
  paths) folded into a persistent :class:`CoverageMap`;
* :mod:`repro.fuzz.evaluate` — the one-spec evaluator: compose, run,
  trace, invariant-check, signature-extract (the fuzzer's oracle);
* :mod:`repro.fuzz.search` — the mutation-based coverage-guided search
  loop with a persistent, resumable corpus;
* :mod:`repro.fuzz.shrink` — delta-debugging of failing specs down to
  minimal repros that preserve the original failure;
* :mod:`repro.fuzz.selftest` — injected-violation specs proving the
  shrinker preserves the triggering invariant.

Everything is a pure function of the master seed: two invocations of
``repro-worksite fuzz --seed 7 --iterations 50`` write byte-identical
corpora, coverage maps and shrunk repros.
"""
