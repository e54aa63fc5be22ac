"""repro — reproduction of *Cybersecurity Pathways Towards CE-Certified
Autonomous Forestry Machines* (DSN 2024).

The package builds the system the paper describes: a partially-autonomous
forestry worksite (autonomous forwarder, observation drone, manual harvester,
human workers) simulated as a deterministic discrete-event system, with a full
wireless/crypto substrate, the attack and defence classes the paper surveys,
executable encodings of the safety and cybersecurity standards it cites, a
combined safety-cybersecurity risk-assessment methodology (the paper's future
work, made concrete), and security assurance cases.

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel and the forestry worksite world.
``repro.sensors``
    Camera / GNSS / ultrasonic models, occlusion, people detection.
``repro.comms``
    Wireless medium, link/network layers, from-scratch crypto and PKI.
``repro.attacks``
    Jamming, interference, de-auth, GNSS spoofing, camera and network attacks.
``repro.defense``
    IDS variants, GNSS/camera defences, access control, recovery.
``repro.safety``
    ISO 12100 hazards, ISO 13849 performance levels, SOTIF, safety functions.
``repro.risk``
    ISO/SAE 21434 TARA, IEC 62443 security levels, treatment.
``repro.sos``
    System-of-systems composition, independence, emergence, zones.
``repro.core``
    The combined safety-cybersecurity methodology (primary contribution).
``repro.assurance``
    GSN / CAE assurance cases, evidence, compliance mapping.
``repro.scenarios``
    Builders for the paper's Figure 1 worksite and Figure 2 use case.
``repro.analysis``
    Statistics and table rendering for the experiment harness.
"""

__version__ = "1.0.0"
