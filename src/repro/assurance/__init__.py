"""Security assurance cases (Section V).

"One common approach for assurance is to create assurance cases that are
structured bodies of arguments and evidence ... When the concern is
cybersecurity, we create Security Assurance Cases (SACs).  SAC can be
represented in different ways, e.g., using the Goal Structure Notation
(GSN), or Claim Argument Evidence (CAE)."

* :mod:`repro.assurance.gsn` — GSN graphs with well-formedness checking;
* :mod:`repro.assurance.cae` — Claim-Argument-Evidence trees;
* :mod:`repro.assurance.evidence` — the evidence registry (items, freshness,
  coverage);
* :mod:`repro.assurance.sac` — the asset-driven SAC builder (CASCADE-style,
  the paper's own prior approach transferred to forestry);
* :mod:`repro.assurance.patterns` — reusable argument patterns;
* :mod:`repro.assurance.compliance` — regulation/standard requirement models
  and the compliance mapping;
* :mod:`repro.assurance.export` — text/DOT/Markdown rendering.
"""
