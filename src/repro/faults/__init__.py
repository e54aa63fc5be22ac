"""Deterministic fault injection and degraded-mode resilience.

The paper's CE-certification argument needs evidence that the worksite
stays safe under *component failures*, not just attacks: Section III's
SOTIF triggering conditions and the Table I continuity requirements both
describe non-malicious outages.  This package supplies the failure
dimension:

* :mod:`repro.faults.spec` — declarative :class:`FaultSpec` /
  :class:`FaultSchedule` with deterministic activation windows;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that arms a
  schedule against a composed scenario through typed hooks (never
  monkey-patching) and builds the resilience stack;
* :mod:`repro.faults.modes` — NOMINAL → DEGRADED → SAFE_STOP → RECOVERING
  vehicle mode machines wired through the existing
  :class:`~repro.defense.recovery.ContinuityManager`;
* :mod:`repro.faults.campaigns` — named, sweep-runnable fault campaigns.

Non-perturbation contract: arming an *empty* schedule changes nothing —
no RNG draws, no scheduled events, no endpoint policies — so a run with
no faults stays byte-identical to one without the injector at all.
"""
