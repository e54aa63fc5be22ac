"""System-of-systems layer.

Section IV-E summarises Waller & Craddock's five SoS cybersecurity problem
dimensions: operational independence, management independence, evolutionary
development, emergent behavior, geographic distribution.  This package makes
them measurable over a composed worksite:

* :mod:`repro.sos.composition` — constituent systems, interfaces, the SoS;
* :mod:`repro.sos.independence` — independence/heterogeneity indices;
* :mod:`repro.sos.emergence` — emergent cross-system interaction detection
  over the event log;
* :mod:`repro.sos.zones` — mapping the SoS onto an IEC 62443 zone model.
"""
