"""Key pairs and Schnorr signatures over a safe-prime group.

Schnorr signatures in the prime-order subgroup of a safe-prime DH group:

* keygen: secret ``x`` in [1, q), public ``y = g^x mod p``;
* sign(m): nonce ``k`` (derived deterministically, RFC 6979-style, from the
  secret key and message), ``r = g^k``, ``e = H(r || m) mod q``,
  ``s = (k + x·e) mod q``; signature is ``(e, s)``;
* verify: ``r' = g^s · y^(-e)``, accept iff ``H(r' || m) mod q == e``.

Every power of ``g`` (``y``, ``r`` and ``g^s``) comes from the group's
fixed-base table (:meth:`DhGroup.pow_g`); ``y^(-e)`` uses builtin ``pow``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.comms.crypto.numbers import DhGroup, MODP_2048


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(e, s)``."""

    e: int
    s: int

    def encode(self, group: DhGroup) -> bytes:
        size = (group.q.bit_length() + 7) // 8
        return self.e.to_bytes(size, "big") + self.s.to_bytes(size, "big")

    @staticmethod
    def decode(raw: bytes, group: DhGroup) -> "SchnorrSignature":
        size = (group.q.bit_length() + 7) // 8
        if len(raw) != 2 * size:
            raise ValueError("malformed signature encoding")
        return SchnorrSignature(
            e=int.from_bytes(raw[:size], "big"), s=int.from_bytes(raw[size:], "big")
        )


@dataclass(frozen=True)
class KeyPair:
    """A Schnorr/DH key pair in ``group``."""

    group: DhGroup
    secret: int
    public: int

    @staticmethod
    def generate(group: DhGroup = MODP_2048, *, seed: Optional[bytes] = None) -> "KeyPair":
        """Generate a key pair.

        ``seed`` makes generation deterministic (hashed to the exponent);
        omit it for os-random keys.
        """
        if seed is not None:
            x = _hash_to_range(seed, group.q)
        else:
            import secrets

            x = secrets.randbelow(group.q - 1) + 1
        return KeyPair(group=group, secret=x, public=group.pow_g(x))


def _hash_to_range(data: bytes, modulus: int) -> int:
    need = (modulus.bit_length() + 7) // 8 + 8
    acc = b""
    counter = 0
    while len(acc) < need:
        acc += hashlib.sha256(data + counter.to_bytes(4, "big")).digest()
        counter += 1
    return int.from_bytes(acc[:need], "big") % (modulus - 1) + 1


def sign(keypair: KeyPair, message: bytes) -> SchnorrSignature:
    """Sign ``message`` with a deterministic nonce."""
    group = keypair.group
    k = _hash_to_range(
        b"schnorr-nonce" + keypair.secret.to_bytes(group.element_bytes, "big") + message,
        group.q,
    )
    r = group.pow_g(k)
    e = group.hash_to_exponent(group.encode(r) + message)
    s = (k + keypair.secret * e) % group.q
    return SchnorrSignature(e=e, s=s)


def verify(group: DhGroup, public: int, message: bytes, signature: SchnorrSignature) -> bool:
    """Verify a Schnorr signature against ``public``."""
    if not group.is_element(public):
        return False
    if not (0 <= signature.e < group.q and 0 <= signature.s < group.q):
        return False
    # r' = g^s * y^(-e) = g^s * y^(q - e)  (y has order q)
    r_prime = (
        group.pow_g(signature.s)
        * group.pow(public, group.q - signature.e % group.q)
    ) % group.p
    e_prime = group.hash_to_exponent(group.encode(r_prime) + message)
    return e_prime == signature.e
