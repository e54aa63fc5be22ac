"""The combined safety–cybersecurity assessment methodology.

This package is the repository's primary contribution — the paper's future
work made concrete: "a forestry-adapted risk assessment methodology, using
ISO/SAE 21434 (in particular the continuous risk assessment part), IEC 62443
... and IEC TS 63074 as guidance.  This methodology will take the interplay
between safety and cybersecurity into consideration."

* :mod:`repro.core.characteristics` — Table I's forestry characteristics as
  machine-readable assessment modifiers;
* :mod:`repro.core.interplay` — security→safety risk propagation
  (IEC TS 63074): which attacks degrade which safety functions and how the
  required/achieved Performance Levels shift under compromise;
* :mod:`repro.core.methodology` — the CombinedAssessment orchestrator:
  TARA + zone SL analysis + hazard re-estimation + treatment in one flow,
  with synchronisation points between the safety and security tracks;
* :mod:`repro.core.continuous` — runtime (continuous) risk assessment fed
  by IDS alerts and monitor events;
* :mod:`repro.core.knowledge_transfer` — the Figure 3 pipeline: threat
  catalogs from mining/automotive mapped into the forestry domain;
* :mod:`repro.core.sos_assessment` — SoS-level assessment combining the
  per-system results with the independence/emergence analyses.
"""
