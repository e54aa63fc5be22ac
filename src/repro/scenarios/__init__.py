"""Scenario composition: the paper's figures as runnable set-ups.

* :mod:`repro.scenarios.worksite` — the Figure 1 partially-autonomous
  worksite (forwarder + drone + harvester + workers + network + defences)
  and the worksite item model for the risk assessments;
* :mod:`repro.scenarios.usecase` — the Figure 2 minimal occlusion use case;
* :mod:`repro.scenarios.campaigns` — named attack campaigns for the
  benchmarks;
* :mod:`repro.scenarios.factory` — primitive-valued run specs → composed,
  armed scenarios (the picklable entry point the sweep runner workers use).
"""
