"""Unit tests for DH groups, Schnorr signatures, certificates, secure channel."""

import dataclasses

import pytest

from repro.comms.crypto.certificates import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    verify_certificate,
    verify_chain,
)
from repro.comms.crypto.keys import KeyPair, SchnorrSignature, sign, verify
from repro.comms.crypto.numbers import MODP_2048, TEST_GROUP
from repro.comms.crypto.secure_channel import (
    ChannelError,
    HandshakeError,
    Identity,
    SecureChannel,
    SecurityProfile,
)

G = TEST_GROUP


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve prime bases."""
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class TestGroup:
    def test_p_and_q_are_prime(self):
        # numbers.py states TEST_GROUP as a literal; this is its proof
        assert G.p.bit_length() == 512
        assert _is_probable_prime(G.p)
        assert _is_probable_prime(G.q)

    def test_primality_check_rejects_pseudoprimes(self):
        assert _is_probable_prime(2 ** 61 - 1)
        assert not _is_probable_prime(561)  # Carmichael number
        # strong pseudoprime to bases 2, 3, 5 and 7
        assert not _is_probable_prime(3215031751)

    def test_generator_has_order_q(self):
        assert pow(G.g, G.q, G.p) == 1
        assert G.is_element(G.g)

    def test_dh_agreement(self):
        a = KeyPair.generate(G, seed=b"a")
        b = KeyPair.generate(G, seed=b"b")
        assert G.pow(b.public, a.secret) == G.pow(a.public, b.secret)

    def test_membership_rejects_outsiders(self):
        assert not G.is_element(0)
        assert not G.is_element(G.p)
        assert not G.is_element(G.p - 1)  # order-2 element

    def test_encode_decode_roundtrip(self):
        kp = KeyPair.generate(G, seed=b"x")
        assert G.decode(G.encode(kp.public)) == kp.public

    def test_modp2048_sanity(self):
        assert MODP_2048.p.bit_length() == 2048
        assert MODP_2048.is_element(MODP_2048.g)

    def test_hash_to_exponent_in_range(self):
        for i in range(20):
            e = G.hash_to_exponent(bytes([i]))
            assert 0 <= e < G.q


class TestSchnorr:
    def test_sign_verify(self):
        kp = KeyPair.generate(G, seed=b"signer")
        sig = sign(kp, b"message")
        assert verify(G, kp.public, b"message", sig)

    def test_wrong_message_rejected(self):
        kp = KeyPair.generate(G, seed=b"signer")
        sig = sign(kp, b"message")
        assert not verify(G, kp.public, b"other", sig)

    def test_wrong_key_rejected(self):
        kp1 = KeyPair.generate(G, seed=b"one")
        kp2 = KeyPair.generate(G, seed=b"two")
        sig = sign(kp1, b"message")
        assert not verify(G, kp2.public, b"message", sig)

    def test_deterministic_nonce(self):
        kp = KeyPair.generate(G, seed=b"signer")
        assert sign(kp, b"m") == sign(kp, b"m")
        assert sign(kp, b"m") != sign(kp, b"n")

    def test_signature_encoding_roundtrip(self):
        kp = KeyPair.generate(G, seed=b"signer")
        sig = sign(kp, b"m")
        decoded = SchnorrSignature.decode(sig.encode(G), G)
        assert decoded == sig

    def test_malformed_encoding_raises(self):
        with pytest.raises(ValueError):
            SchnorrSignature.decode(b"short", G)

    def test_invalid_public_key_rejected(self):
        kp = KeyPair.generate(G, seed=b"signer")
        sig = sign(kp, b"m")
        assert not verify(G, G.p - 1, b"m", sig)

    def test_out_of_range_signature_rejected(self):
        kp = KeyPair.generate(G, seed=b"signer")
        bad = SchnorrSignature(e=G.q + 5, s=1)
        assert not verify(G, kp.public, b"m", bad)


@pytest.fixture
def ca():
    return CertificateAuthority("test-ca", G)


class TestCertificates:
    def test_issue_and_verify(self, ca):
        kp = KeyPair.generate(G, seed=b"alice")
        cert = ca.issue("alice", kp.public, roles=("operator",))
        verify_certificate(cert, ca.keypair.public, G, now=1.0)
        assert cert.has_role("operator")

    def test_chain_validation(self, ca):
        kp = KeyPair.generate(G, seed=b"alice")
        cert = ca.issue("alice", kp.public)
        leaf = verify_chain([cert], ca.root_certificate, G, now=1.0)
        assert leaf.subject == "alice"

    def test_intermediate_chain(self, ca):
        sub_kp = KeyPair.generate(G, seed=b"sub-ca")
        sub_cert = ca.issue("sub-ca", sub_kp.public, is_ca=True)
        sub = CertificateAuthority("sub-ca", G, keypair=sub_kp)
        kp = KeyPair.generate(G, seed=b"leaf")
        leaf_cert = sub.issue("leaf", kp.public)
        result = verify_chain([leaf_cert, sub_cert], ca.root_certificate, G, now=1.0)
        assert result.subject == "leaf"

    def test_non_ca_intermediate_rejected(self, ca):
        mid_kp = KeyPair.generate(G, seed=b"mid")
        mid_cert = ca.issue("mid", mid_kp.public, is_ca=False)
        mid = CertificateAuthority("mid", G, keypair=mid_kp)
        leaf = mid.issue("leaf", KeyPair.generate(G, seed=b"l").public)
        with pytest.raises(CertificateError, match="CA flag"):
            verify_chain([leaf, mid_cert], ca.root_certificate, G, now=1.0)

    def test_expired_certificate_rejected(self, ca):
        kp = KeyPair.generate(G, seed=b"alice")
        cert = ca.issue("alice", kp.public, now=0.0, validity_s=10.0)
        with pytest.raises(CertificateError, match="validity"):
            verify_chain([cert], ca.root_certificate, G, now=100.0)

    def test_tampered_certificate_rejected(self, ca):
        kp = KeyPair.generate(G, seed=b"alice")
        cert = ca.issue("alice", kp.public)
        forged = Certificate(**{**cert.__dict__, "subject": "mallory"})
        with pytest.raises(CertificateError, match="signature"):
            verify_chain([forged], ca.root_certificate, G, now=1.0)

    def test_revocation(self, ca):
        kp = KeyPair.generate(G, seed=b"alice")
        cert = ca.issue("alice", kp.public)
        ca.revoke(cert.serial)
        with pytest.raises(CertificateError, match="revoked"):
            verify_chain(
                [cert], ca.root_certificate, G, now=1.0, revocation_check=ca
            )

    def test_chain_break_rejected(self, ca):
        other = CertificateAuthority("other-ca", G)
        kp = KeyPair.generate(G, seed=b"alice")
        cert = other.issue("alice", kp.public)
        with pytest.raises(CertificateError):
            verify_chain([cert], ca.root_certificate, G, now=1.0)

    def test_empty_chain_rejected(self, ca):
        with pytest.raises(CertificateError, match="empty"):
            verify_chain([], ca.root_certificate, G)

    def test_invalid_public_key_rejected_at_issue(self, ca):
        with pytest.raises(CertificateError):
            ca.issue("bad", G.p - 1)


class TestVerdictMemos:
    """The memoised signature and subgroup verdicts change no answer."""

    @pytest.fixture
    def memoised(self, ca):
        kp = KeyPair.generate(G, seed=b"alice")
        cert = ca.issue("alice", kp.public, now=0.0, validity_s=10.0)
        verify_certificate(cert, ca.keypair.public, G, now=1.0)
        return cert

    @pytest.mark.parametrize("field, value", [
        ("not_before", -0.0), ("is_ca", 0), ("serial", 2.0),
    ])
    def test_dataclass_equal_twin_still_fails(self, ca, memoised, field,
                                              value):
        twin = dataclasses.replace(memoised, **{field: value})
        assert twin == memoised and hash(twin) == hash(memoised)
        assert twin.tbs_bytes() != memoised.tbs_bytes()
        with pytest.raises(CertificateError, match="signature invalid"):
            verify_certificate(twin, ca.keypair.public, G, now=1.0)

    def test_validity_window_still_checked(self, ca, memoised):
        with pytest.raises(CertificateError, match="validity"):
            verify_certificate(memoised, ca.keypair.public, G, now=11.0)

    def test_revocation_still_checked(self, ca, memoised):
        verify_chain([memoised], ca.root_certificate, G, now=1.0,
                     revocation_check=ca)
        ca.revoke(memoised.serial)
        with pytest.raises(CertificateError, match="revoked"):
            verify_chain([memoised], ca.root_certificate, G, now=1.0,
                         revocation_check=ca)

    def test_float_twin_of_an_element_is_not_memoised_as_one(self):
        assert G.is_element(G.g)
        with pytest.raises(TypeError):
            G.is_element(float(G.g))

    def test_warm_defended_composition_verifies_no_certificate(
        self, monkeypatch
    ):
        from repro.comms.crypto import certificates
        from repro.runner.spec import RunSpec
        from repro.scenarios.factory import compose_spec

        compose_spec(RunSpec(seed=3, horizon_s=20.0))
        calls = []
        real_verify = certificates.verify

        def counting_verify(*args):
            calls.append(args)
            return real_verify(*args)

        monkeypatch.setattr(certificates, "verify", counting_verify)
        prepared = compose_spec(RunSpec(seed=4, horizon_s=20.0))
        nodes = prepared.scenario.network.nodes
        for name, node in nodes.items():
            assert sorted(node.channel_stats()) == sorted(set(nodes) - {name})
        assert calls == []

    def test_warm_defended_composition_reads_26_powers_from_the_table(
        self, monkeypatch
    ):
        # keys, nonce commitments and g^s come from the generator table;
        # the shared secrets and the y^(q-e) halves of verification keep
        # builtin pow, and no subgroup test misses its memo
        from repro.comms.crypto.numbers import DhGroup, _subgroup_verdict
        from repro.runner.spec import RunSpec
        from repro.scenarios.factory import compose_spec

        compose_spec(RunSpec(seed=3, horizon_s=20.0))
        table, builtin = [], []
        real_pow, real_pow_g = DhGroup.pow, DhGroup.pow_g

        def counting_pow(group, base, exponent):
            builtin.append(base)
            return real_pow(group, base, exponent)

        def counting_pow_g(group, exponent):
            assert 0 <= exponent < group.q  # inside the table
            table.append(exponent)
            return real_pow_g(group, exponent)

        monkeypatch.setattr(DhGroup, "pow", counting_pow)
        monkeypatch.setattr(DhGroup, "pow_g", counting_pow_g)
        misses = _subgroup_verdict.cache_info().misses
        compose_spec(RunSpec(seed=4, horizon_s=20.0))
        assert (len(table), len(builtin)) == (26, 12)
        assert G.g not in builtin
        assert _subgroup_verdict.cache_info().misses == misses


def make_identity(ca, name, roles=()):
    kp = KeyPair.generate(G, seed=name.encode())
    cert = ca.issue(name, kp.public, roles=roles)
    return Identity(name=name, keypair=kp, chain=[cert],
                    trusted_root=ca.root_certificate, ca=ca)


class TestSecureChannel:
    def test_handshake_and_roundtrip(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, stats = SecureChannel.establish_pair(a, b)
        record = chan_a.seal(b"hello")
        assert chan_b.open(record) == b"hello"
        reply = chan_b.seal(b"world")
        assert chan_a.open(reply) == b"world"
        assert stats.exponentiations == 4

    def test_replay_rejected(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, _ = SecureChannel.establish_pair(a, b)
        record = chan_a.seal(b"msg")
        chan_b.open(record)
        with pytest.raises(ChannelError, match="replay"):
            chan_b.open(record)

    def test_record_below_the_window_rejected(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, _ = SecureChannel.establish_pair(a, b)
        records = [chan_a.seal(b"%d" % i) for i in range(65)]
        chan_b.open(records[-1])
        assert chan_b.open(records[1]) == b"1"
        with pytest.raises(ChannelError,
                           match="seq=1 below the replay window"):
            chan_b.open(records[0])

    def test_forged_record_does_not_move_the_window(self, ca):
        from repro.comms.crypto.secure_channel import Record

        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, _ = SecureChannel.establish_pair(a, b)
        record = chan_a.seal(b"msg")
        forged = Record(seq=10 ** 6, body=record.body, profile=record.profile)
        with pytest.raises(ChannelError):
            chan_b.open(forged)
        assert chan_b.open(record) == b"msg"

    def test_reordering_within_window_accepted(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, _ = SecureChannel.establish_pair(a, b)
        r1 = chan_a.seal(b"one")
        r2 = chan_a.seal(b"two")
        assert chan_b.open(r2) == b"two"
        assert chan_b.open(r1) == b"one"

    def test_tampered_record_rejected(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, _ = SecureChannel.establish_pair(a, b)
        record = chan_a.seal(b"msg")
        from repro.comms.crypto.secure_channel import Record

        bad = Record(seq=record.seq, body=record.body[:-1] + b"\x00",
                     profile=record.profile)
        with pytest.raises(ChannelError):
            chan_b.open(bad)

    def test_integrity_profile_authenticates_but_not_encrypts(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, chan_b, _ = SecureChannel.establish_pair(
            a, b, profile=SecurityProfile.INTEGRITY
        )
        record = chan_a.seal(b"visible")
        assert b"visible" in record.body  # plaintext visible on the wire
        assert chan_b.open(record) == b"visible"

    def test_aead_profile_hides_plaintext(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, _, __ = SecureChannel.establish_pair(a, b)
        record = chan_a.seal(b"secret-content")
        assert b"secret-content" not in record.body

    def test_revoked_peer_rejected_at_handshake(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        ca.revoke(b.chain[0].serial)
        with pytest.raises(HandshakeError):
            SecureChannel.establish_pair(a, b)

    def test_name_mismatch_rejected(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        impostor = Identity(
            name="carol", keypair=b.keypair, chain=b.chain,
            trusted_root=ca.root_certificate, ca=ca,
        )
        with pytest.raises(HandshakeError, match="claimed"):
            SecureChannel.establish_pair(a, impostor)

    def test_profile_mismatch_rejected(self, ca):
        a = make_identity(ca, "alice")
        b = make_identity(ca, "bob")
        chan_a, _, __ = SecureChannel.establish_pair(a, b)
        _, chan_b2, __ = SecureChannel.establish_pair(
            a, b, profile=SecurityProfile.INTEGRITY
        )
        record = chan_a.seal(b"msg")
        with pytest.raises(ChannelError, match="profile"):
            chan_b2.open(record)
