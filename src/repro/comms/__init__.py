"""Wireless communication substrate.

The paper (via Gaber et al.) identifies communication as the main
cybersecurity issue for autonomous haulage-like systems: frequency
interference, channel utilisation, signal jamming, de-auth attacks.  This
subpackage provides the full stack those attacks act on:

* :mod:`repro.comms.radio` — SNR-based physical layer (path loss, noise,
  jamming and co-channel interference contributions);
* :mod:`repro.comms.medium` — the shared medium: link budgets,
  delivery probability and scheduling;
* :mod:`repro.comms.link` — frames, association state (de-auth target),
  ACK/retransmission;
* :mod:`repro.comms.network` — nodes, addressing, handler dispatch;
* :mod:`repro.comms.messages` — typed application messages;
* :mod:`repro.comms.protocols` — heartbeats, telemetry, command channel;
* :mod:`repro.comms.crypto` — from-scratch DH/Schnorr/HKDF/HMAC/AEAD, a
  Certificate Authority and a TLS-like secure channel.
"""
