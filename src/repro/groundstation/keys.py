"""Seed-derived per-principal keys and roles for the plane.

The keyring models the pre-provisioned secrets of a deployment: every
principal's symmetric key is derived from the run seed the same way the
sim derives its RNG streams (:func:`repro.sim.rng.derive_seed` — SHA-256
over a canonical encoding, stable across platforms), so the whole plane is
a pure function of the seed.  Verifiers look keys up by the *claimed*
sender name; an adversary who derives their own key (``"attacker"``) can
sign wires but never produce a tag that verifies under an operator's key,
which is exactly what the command-forgery attack exercises.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.comms.crypto.primitives import hmac_sha256


class GsKeyring:
    """Per-principal HMAC keys plus the role table verifiers consult."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._master = hashlib.sha256(
            f"repro-gs-master:{self.seed}".encode("utf-8")
        ).digest()
        self._keys: Dict[str, bytes] = {}
        self._roles: Dict[str, str] = {}

    def key_for(self, principal: str) -> bytes:
        """The principal's symmetric key (derived on first use)."""
        key = self._keys.get(principal)
        if key is None:
            key = hmac_sha256(
                self._master, b"gs-key:" + principal.encode("utf-8")
            )
            self._keys[principal] = key
        return key

    def register(self, principal: str, role: str) -> bytes:
        """Provision ``principal`` with ``role`` and return its key."""
        self._roles[principal] = role
        return self.key_for(principal)

    def role(self, principal: str) -> Optional[str]:
        return self._roles.get(principal)

    def is_operator(self, principal: str) -> bool:
        return self._roles.get(principal) == "operator"
