"""Cybersecurity risk calculi: ISO/SAE 21434 TARA and IEC 62443 SL.

The paper's future-work core is "developing a forestry-adapted risk
assessment methodology, using ISO/SAE 21434 (in particular the continuous
risk assessment part), IEC 62443 (including the adaptation of the risk
assessment method to various domains) and IEC TS 63074 as guidance".  This
package encodes both calculi executably:

* :mod:`repro.risk.model` — assets, damage scenarios, threat scenarios,
  attack paths (the TARA work products);
* :mod:`repro.risk.stride` — systematic threat enumeration over an item
  model;
* :mod:`repro.risk.feasibility` — attack-potential feasibility rating
  (ISO 21434 Annex G / ISO 18045);
* :mod:`repro.risk.impact` — SFOP impact rating;
* :mod:`repro.risk.matrix` — the risk-value matrix;
* :mod:`repro.risk.tara` — the assembled TARA pipeline;
* :mod:`repro.risk.cal` — cybersecurity assurance level determination;
* :mod:`repro.risk.iec62443` — zones, conduits, SL-T/SL-A and gap analysis;
* :mod:`repro.risk.treatment` — risk treatment and residual risk.
"""
