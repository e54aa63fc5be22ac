"""Defence substrate: IDS variants, sensor defences, IEC 62443 countermeasures.

Maps one-to-one onto the mitigations the paper's survey collects:

* intrusion detection (:mod:`repro.defense.ids`) — signature, anomaly and
  specification-based detectors with alert correlation;
* GNSS plausibility monitoring (:mod:`repro.defense.gnss_monitor`) — "checking
  the signals characters, e.g., strength" (Ren et al.);
* camera redundancy + AI anti-hacking detection
  (:mod:`repro.defense.camera_defense`) — Petit et al. / Kyrkou et al.;
* identification & authentication, use control
  (:mod:`repro.defense.access_control`) — IEC 62443 FR1/FR2 via IEC TS 63074;
* the countermeasure catalog (:mod:`repro.defense.countermeasures`) that the
  risk treatment step draws from; its system-integrity measures (secure
  boot, remote attestation) are assessed at design time, not simulated;
* disaster recovery / continuity (:mod:`repro.defense.recovery`) — Table I's
  "Natural Disasters" characteristic.
"""
