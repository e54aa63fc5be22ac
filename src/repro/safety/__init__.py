"""Safety substrate: executable encodings of the machinery-safety standards.

* :mod:`repro.safety.hazards` — ISO 12100 hazard identification and risk
  estimation (severity / exposure / avoidance ⇒ required PLr);
* :mod:`repro.safety.iso13849` — ISO 13849-1 Performance Level calculus
  (category, MTTFd, DCavg, CCF ⇒ achieved PL);
* :mod:`repro.safety.sotif` — ISO 21448 triggering conditions and the
  known/unknown × safe/unsafe scenario-area accounting;
* :mod:`repro.safety.functions` — runtime safety functions (protective
  stop, speed limitation) with demand/response bookkeeping;
* :mod:`repro.safety.people_detection` — the collaborative drone+forwarder
  people-detection safety function of Figure 2;
* :mod:`repro.safety.monitor` — the runtime safety monitor scoring a run
  (violations, near misses, minimum separation).
"""
