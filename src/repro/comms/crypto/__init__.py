"""From-scratch cryptographic substrate.

The paper's defence discussion (Ren et al.'s "applying cryptography",
Chattopadhyay & Lam's Certificate Authority) presumes a working crypto/PKI
layer; this subpackage implements one with only the standard library:

* :mod:`repro.comms.crypto.primitives` — HMAC-SHA256, HKDF, a SHA-256
  counter-mode stream cipher, encrypt-then-MAC AEAD, constant-time compare;
* :mod:`repro.comms.crypto.numbers` — modular arithmetic and the RFC 3526
  MODP groups for finite-field Diffie-Hellman;
* :mod:`repro.comms.crypto.keys` — Schnorr key pairs and signatures;
* :mod:`repro.comms.crypto.certificates` — certificates, a CA, chain
  validation and revocation;
* :mod:`repro.comms.crypto.replay` — the anti-replay window shared by the
  record layer and the ground-station endpoints;
* :mod:`repro.comms.crypto.secure_channel` — a signed-DH handshake and an
  AEAD record layer with replay protection.

These are *model-faithful* implementations: correct constructions with the
right message flows and failure modes, intended for simulation — not audited
production cryptography.
"""
