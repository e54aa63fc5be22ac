"""Symmetric primitives built on the standard library's SHA-256.

Constructions
-------------
* ``hmac_sha256`` — stdlib HMAC.
* ``hkdf`` — RFC 5869 extract-and-expand.
* ``stream_xor`` — a counter-mode keystream from SHA-256 blocks XORed onto
  the plaintext (CTR-mode structure; the PRF is SHA-256(key || nonce || ctr)).
* ``aead_encrypt`` / ``aead_decrypt`` — encrypt-then-MAC composition with
  independent encryption and MAC keys derived from the AEAD key via HKDF,
  MAC over ``nonce || aad || ciphertext``.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from functools import lru_cache
from typing import Tuple


class AeadError(ValueError):
    """Authentication failure during AEAD decryption."""


# The HMAC key schedule (ipad/opad absorption, two SHA-256 compressions) is
# a pure function of the key; record layers MAC thousands of messages under
# a handful of long-lived keys, so the scheduled state is cached and forked
# per message.  ``HMAC.copy()`` is bit-identical to a fresh ``HMAC(key)``.
@lru_cache(maxsize=64)
def _hmac_template(key: bytes):
    return _hmac.new(key, digestmod=hashlib.sha256)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 of ``data`` under ``key`` (32 bytes)."""
    h = _hmac_template(key).copy()
    h.update(data)
    return h.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe byte-string comparison."""
    return _hmac.compare_digest(a, b)


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """RFC 5869 HKDF-Extract."""
    if not salt:
        salt = b"\x00" * 32
    return hmac_sha256(salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 HKDF-Expand."""
    if length > 255 * 32:
        raise ValueError("HKDF output too long")
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        output += block
        counter += 1
    return output[:length]


def hkdf(ikm: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """One-shot HKDF (extract then expand)."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)


#: pre-packed big-endian counters for the first 4 KiB of keystream
_COUNTER_BLOCKS = [struct.pack(">Q", c) for c in range(128)]


def _keystream(key: bytes, nonce: bytes, n_blocks: int) -> bytes:
    """``n_blocks`` CTR-mode keystream blocks from a shared SHA-256 midstate.

    The ``key || nonce`` prefix is absorbed once; each counter block forks a
    copy of that midstate instead of re-hashing the prefix.
    """
    copy = hashlib.sha256(key + nonce).copy
    if n_blocks <= len(_COUNTER_BLOCKS):
        counters = _COUNTER_BLOCKS[:n_blocks]
    else:
        pack_counter = struct.Struct(">Q").pack
        counters = [pack_counter(c) for c in range(n_blocks)]
    blocks = []
    append = blocks.append
    for counter_bytes in counters:
        h = copy()
        h.update(counter_bytes)
        append(h.digest())
    return b"".join(blocks)


# Every sealed record is opened exactly once in the simulator (loopback
# wires), so the opener recomputes the identical keystream the sealer just
# produced.  A small LRU keyed on (key, nonce, blocks) halves the SHA work
# per record roundtrip.  Keystream values are secret material — acceptable
# for this simulation substrate, not for production cryptography.
_cached_keystream = lru_cache(maxsize=256)(_keystream)

#: largest payload (in 32-byte blocks) eligible for the keystream cache
_CACHE_MAX_BLOCKS = 128


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256 counter-mode keystream.

    Encryption and decryption are the same operation.  ``nonce`` must never
    repeat under the same key.

    Bit-identical to the per-byte reference construction, but the keystream
    is block-batched from a shared SHA-256 midstate (and LRU-cached for the
    seal→open roundtrip) and the XOR is applied whole-buffer via big-int
    XOR — ~an order of magnitude faster for KiB-scale records.
    """
    n = len(data)
    if n == 0:
        return b""
    n_blocks = (n + 31) // 32
    if n_blocks <= _CACHE_MAX_BLOCKS:
        keystream = _cached_keystream(key, nonce, n_blocks)
    else:
        keystream = _keystream(key, nonce, n_blocks)
    if len(keystream) != n:
        keystream = keystream[:n]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(n, "big")


def derive_aead_subkeys(key: bytes) -> Tuple[bytes, bytes]:
    """Derive the ``(enc_key, mac_key)`` pair for the AEAD composition.

    Pure and deterministic; long-lived channels should derive once and use
    :func:`aead_encrypt_subkeys` / :func:`aead_decrypt_subkeys` per record
    instead of paying two HKDF expansions per message.
    """
    if len(key) != 32:
        raise ValueError("AEAD key must be 32 bytes")
    enc = hkdf_expand(key, b"aead-enc", 32)
    mac = hkdf_expand(key, b"aead-mac", 32)
    return enc, mac


def aead_encrypt_subkeys(
    enc_key: bytes, mac_key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b""
) -> bytes:
    """Encrypt-then-MAC with pre-derived subkeys.  Returns ``ciphertext || tag``."""
    ciphertext = stream_xor(enc_key, nonce, plaintext)
    tag = hmac_sha256(mac_key, nonce + _length_prefix(aad) + ciphertext)
    return ciphertext + tag


def aead_decrypt_subkeys(
    enc_key: bytes, mac_key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b""
) -> bytes:
    """Verify and decrypt ``ciphertext || tag`` with pre-derived subkeys."""
    if len(sealed) < 32:
        raise AeadError("sealed message shorter than the tag")
    ciphertext, tag = sealed[:-32], sealed[-32:]
    expected = hmac_sha256(mac_key, nonce + _length_prefix(aad) + ciphertext)
    if not constant_time_equal(tag, expected):
        raise AeadError("authentication tag mismatch")
    return stream_xor(enc_key, nonce, ciphertext)


def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt-then-MAC AEAD.  Returns ``ciphertext || tag(32)``."""
    enc_key, mac_key = derive_aead_subkeys(key)
    return aead_encrypt_subkeys(enc_key, mac_key, nonce, plaintext, aad)


def aead_decrypt(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt ``ciphertext || tag``.

    Raises
    ------
    AeadError
        On truncated input or tag mismatch (tampering, wrong key/nonce/AAD).
    """
    enc_key, mac_key = derive_aead_subkeys(key)
    return aead_decrypt_subkeys(enc_key, mac_key, nonce, sealed, aad)


def _length_prefix(data: bytes) -> bytes:
    """Length-prefix AAD so (aad, ct) boundaries are unambiguous in the MAC."""
    return struct.pack(">I", len(data)) + data


def nonce_from_sequence(seq: int, direction: int = 0) -> bytes:
    """Deterministic 16-byte record nonce from a sequence number."""
    return struct.pack(">QQ", direction, seq)
