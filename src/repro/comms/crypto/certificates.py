"""Certificates, the Certificate Authority and chain validation.

Chattopadhyay & Lam (cited in Section IV-C) "emphasize the importance of
having a Certificate Authority in place to issue certificates to components
involved in the communication with cyber-physical systems to avoid untrusted
components from initiating attacks."  This module is that CA.

A certificate binds a subject name, a Schnorr public key and a role set to a
validity window, signed by the issuer.  Chains are validated up to a trusted
root; the CA maintains a revocation list.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.canonical import canonical_json
from repro.comms.crypto.keys import KeyPair, SchnorrSignature, sign, verify
from repro.comms.crypto.numbers import MODP_2048, VERDICT_MEMO_SIZE, DhGroup


class CertificateError(ValueError):
    """Raised when certificate or chain validation fails."""


@dataclass(frozen=True)
class Certificate:
    """A signed binding of subject name, public key, roles and validity."""

    subject: str
    public_key: int
    issuer: str
    serial: int
    not_before: float
    not_after: float
    roles: Tuple[str, ...] = ()
    is_ca: bool = False
    signature: Optional[SchnorrSignature] = None

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical encoding."""
        body = {
            "subject": self.subject,
            "public_key": self.public_key,
            "issuer": self.issuer,
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "roles": list(self.roles),
            "is_ca": self.is_ca,
        }
        return canonical_json(body).encode()

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after

    def has_role(self, role: str) -> bool:
        return role in self.roles


class CertificateAuthority:
    """Issues, verifies and revokes certificates.

    Parameters
    ----------
    name:
        CA subject name (appears as issuer in issued certificates).
    group:
        The signature group.
    """

    #: default certificate lifetime (one year)
    validity_s = 365.0 * 86400.0

    def __init__(
        self,
        name: str,
        group: DhGroup = MODP_2048,
        *,
        keypair: Optional[KeyPair] = None,
    ) -> None:
        self.name = name
        self.group = group
        self.keypair = keypair or KeyPair.generate(group, seed=f"ca:{name}".encode())
        self._serial = 0
        self.issued: Dict[int, Certificate] = {}
        self.revoked: Set[int] = set()
        self.root_certificate = self._self_sign()

    def _self_sign(self) -> Certificate:
        self._serial += 1
        cert = Certificate(
            subject=self.name,
            public_key=self.keypair.public,
            issuer=self.name,
            serial=self._serial,
            not_before=0.0,
            not_after=self.validity_s * 10.0,
            roles=("ca",),
            is_ca=True,
        )
        signature = sign(self.keypair, cert.tbs_bytes())
        signed = Certificate(**{**cert.__dict__, "signature": signature})
        self.issued[signed.serial] = signed
        return signed

    def issue(
        self,
        subject: str,
        public_key: int,
        *,
        roles: Sequence[str] = (),
        now: float = 0.0,
        validity_s: Optional[float] = None,
        is_ca: bool = False,
    ) -> Certificate:
        """Issue a certificate for ``subject``."""
        if not self.group.is_element(public_key):
            raise CertificateError("public key is not a valid group element")
        self._serial += 1
        cert = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=self._serial,
            not_before=now,
            not_after=now + (validity_s if validity_s is not None else self.validity_s),
            roles=tuple(roles),
            is_ca=is_ca,
        )
        signature = sign(self.keypair, cert.tbs_bytes())
        signed = Certificate(**{**cert.__dict__, "signature": signature})
        self.issued[signed.serial] = signed
        return signed

    def revoke(self, serial: int) -> None:
        """Add a certificate to the revocation list."""
        self.revoked.add(serial)

    def is_revoked(self, cert: Certificate) -> bool:
        return cert.serial in self.revoked


def verify_certificate(
    cert: Certificate,
    issuer_public: int,
    group: DhGroup,
    *,
    now: float = 0.0,
) -> None:
    """Verify one certificate's signature and validity window.

    The signature verdict is memoised (:func:`_signature_verdict`); the
    unsigned check and the validity window run on every call.

    Raises
    ------
    CertificateError
        On any failure (unsigned, bad signature, expired, not yet valid).
    """
    if cert.signature is None:
        raise CertificateError(f"certificate {cert.subject!r} is unsigned")
    if not cert.valid_at(now):
        raise CertificateError(f"certificate {cert.subject!r} outside validity window")
    signature = cert.signature
    if not _signature_verdict(
        group, issuer_public, cert.tbs_bytes(), signature.e, signature.s
    ):
        raise CertificateError(f"certificate {cert.subject!r} signature invalid")


@functools.lru_cache(maxsize=VERDICT_MEMO_SIZE, typed=True)
def _signature_verdict(
    group: DhGroup, issuer_public: int, tbs: bytes, e: int, s: int
) -> bool:
    """The Schnorr verdict on a certificate's exact to-be-signed bytes.

    Pure and draws no randomness, so it is memoised process-wide: every
    handshake re-proves the same few certificates.  The key is the encoded
    bytes, never the :class:`Certificate`: twins with ``not_before=-0.0``,
    ``is_ca=0`` or a float ``serial`` compare and hash equal to the genuine
    certificate but encode, and so verify, differently.  ``typed`` does the
    same for the key and the signature's integers.
    """
    return verify(group, issuer_public, tbs, SchnorrSignature(e=e, s=s))


def verify_chain(
    chain: Sequence[Certificate],
    trusted_root: Certificate,
    group: DhGroup,
    *,
    now: float = 0.0,
    revocation_check: Optional[CertificateAuthority] = None,
) -> Certificate:
    """Verify a leaf-first chain up to ``trusted_root``.

    Returns the validated leaf certificate.

    Raises
    ------
    CertificateError
        On an empty chain, a broken link, an untrusted root, a non-CA
        intermediate, or a revoked certificate.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    for i, cert in enumerate(chain):
        issuer_cert = chain[i + 1] if i + 1 < len(chain) else trusted_root
        if i + 1 < len(chain) and not issuer_cert.is_ca:
            raise CertificateError(
                f"intermediate {issuer_cert.subject!r} lacks the CA flag"
            )
        if cert.issuer != issuer_cert.subject:
            raise CertificateError(
                f"chain break: {cert.subject!r} issued by {cert.issuer!r}, "
                f"next is {issuer_cert.subject!r}"
            )
        verify_certificate(cert, issuer_cert.public_key, group, now=now)
        if revocation_check is not None and revocation_check.is_revoked(cert):
            raise CertificateError(f"certificate {cert.subject!r} is revoked")
    # Finally check the root is self-consistent.
    verify_certificate(trusted_root, trusted_root.public_key, group, now=now)
    return chain[0]
