"""Attack substrate: every attack class the paper's survey enumerates.

Section IV-C (via Gaber et al. for mining AHS and Ren et al. / Petit et al.
for automotive) names: frequency interference, channel-utilisation pressure,
signal jamming, Wi-Fi de-auth, GNSS spoofing/jamming, and camera attacks
(feed theft, remote control, blinding).  Network-level message attacks
(injection, replay, tampering) complete the picture for the secure-channel
evaluation.

Each attack is a scheduled behaviour owned by an :class:`Attacker` and
produces ``ATTACK`` events in the shared log, so detection latency can be
measured as *alert time − attack-start time*.
"""
