"""Modular arithmetic and Diffie-Hellman groups.

Finite-field Diffie-Hellman over safe-prime MODP groups.  Two groups are
provided:

* :data:`MODP_2048` — the RFC 3526 group 14 prime, for realistic key sizes;
* :data:`TEST_GROUP` — a small (512-bit) safe-prime group that keeps unit
  tests and high-iteration property tests fast.  Never a security claim.

For a safe prime ``p = 2q + 1`` the subgroup of quadratic residues has prime
order ``q``; generators here generate that subgroup, so Schnorr signatures
(:mod:`repro.comms.crypto.keys`) work directly with exponent arithmetic
mod ``q``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Tuple

#: entries each verdict memo keeps: the subgroup test here and the
#: certificate signature check in :mod:`repro.comms.crypto.certificates`.
#: A defended worksite has at most 4 distinct keys per memo (the CA and
#: its nodes derive their keys from names, not seeds), so a sweep stays
#: far below the bound.
VERDICT_MEMO_SIZE = 256

#: groups whose generator table (:func:`_generator_table`) is kept: the two
#: groups below and room for two more.  A table holds 15 residues per hex
#: digit of ``p``: about 0.2 MiB for the 512-bit group, 2.3 MiB for 2048.
GENERATOR_TABLES = 4


@dataclass(frozen=True)
class DhGroup:
    """A safe-prime group ``p = 2q + 1`` with generator ``g`` of order ``q``."""

    name: str
    p: int
    g: int

    @property
    def q(self) -> int:
        """Order of the prime-order subgroup."""
        return (self.p - 1) // 2

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def pow(self, base: int, exponent: int) -> int:
        return pow(base, exponent, self.p)

    def pow_g(self, exponent: int) -> int:
        """``g^exponent mod p``, from the generator's fixed-base table.

        At most one modular multiplication per hex digit of ``exponent``
        instead of builtin ``pow``'s square-and-multiply, and exact, so it
        equals ``self.pow(self.g, exponent)``.  An exponent the table does
        not cover (negative, or wider than ``p``) goes to builtin ``pow``.
        """
        p = self.p
        table = _generator_table(p, self.g)
        if exponent < 0 or exponent >> (4 * len(table)):
            return pow(self.g, exponent, p)
        acc = 1
        for row in table:
            digit = exponent & 15
            if digit:
                acc = acc * row[digit] % p
            exponent >>= 4
        return acc

    def is_element(self, value: int) -> bool:
        """Membership check for the prime-order subgroup (QR test)."""
        if not 1 <= value < self.p:
            return False
        return _subgroup_verdict(self.p, value)

    def encode(self, value: int) -> bytes:
        return value.to_bytes(self.element_bytes, "big")

    def decode(self, raw: bytes) -> int:
        return int.from_bytes(raw, "big")

    def hash_to_exponent(self, data: bytes) -> int:
        """Hash arbitrary bytes to an exponent mod q (for Schnorr's ``e``)."""
        counter = 0
        acc = b""
        need = (self.q.bit_length() + 7) // 8 + 8
        while len(acc) < need:
            acc += hashlib.sha256(data + counter.to_bytes(4, "big")).digest()
            counter += 1
        return int.from_bytes(acc[:need], "big") % self.q


@functools.lru_cache(maxsize=VERDICT_MEMO_SIZE, typed=True)
def _subgroup_verdict(p: int, value: int) -> bool:
    """``value^q == 1 (mod p)`` for the safe prime ``p = 2q + 1``.

    Pure and draws no randomness, so it is memoised process-wide: every
    handshake re-checks the same few long-lived public keys.  ``typed``
    keeps a float or bool twin of an int from sharing its entry.
    """
    return pow(value, (p - 1) // 2, p) == 1


@functools.lru_cache(maxsize=GENERATOR_TABLES, typed=True)
def _generator_table(p: int, g: int) -> Tuple[Tuple[int, ...], ...]:
    """Radix-16 fixed-base table of ``g`` mod ``p``: row ``i`` holds
    ``g^(d·16^i) mod p`` at index ``d`` (1 at index 0), one row per hex
    digit of ``p``, so every exponent below ``16^rows`` is a product of
    one entry per non-zero digit.

    Built on first use (15 multiplications a row) and kept process-wide:
    the generator is fixed, so every key, nonce commitment and ``g^s``
    in a process reads the same rows.  Any other base gets no table.
    """
    rows = []
    base = g % p
    for _ in range((p.bit_length() + 3) // 4):
        row = [1, base]
        for _ in range(14):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)


# RFC 3526, group 14 (2048-bit MODP).  g=2 generates the full group of order
# 2q; squaring it gives a generator of the prime-order subgroup.
_P_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

MODP_2048 = DhGroup(name="modp-2048", p=_P_2048, g=4)  # 4 = 2^2, order q

# A 512-bit safe prime for fast tests: p = 2q+1, generator 4 (= 2^2).
# tests/comms/test_crypto_pki.py proves p and q prime (Miller-Rabin).
_P_TEST = int(
    "f58a12307acb73e0b41bca6f923ba91a31e8d3f38a9fbabdbb0f1e3afe5bc0e3"
    "ab63da8a0a1e21b4afd41b4e4bb9fdcd2ba581ca39bfbd299f8eb02d65a7feaf",
    16,
)

TEST_GROUP = DhGroup(name="modp-test", p=_P_TEST, g=4)
