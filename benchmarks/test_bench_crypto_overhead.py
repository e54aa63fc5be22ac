"""E-A2 — ablation: the secure channel's overhead is affordable.

Paper context: the countermeasures the survey recommends (Ren et al.:
"applying cryptography") must run on embedded machine controllers over a
constrained radio.  Reproduction: measure (a) record-layer throughput per
security profile, (b) handshake cost per DH group size, (c) end-to-end
message delivery on the live worksite per profile.  Shape expectation:
INTEGRITY and AEAD cost single-digit microseconds per small record and do
not measurably reduce worksite delivery; the 2048-bit handshake costs most
of a second cold but happens once per pair, a repeat on the same
identities skips the memoised certificate checks, and each group builds
its generator table once per process.
"""

import time

from conftest import run_once

from repro.analysis.tables import Table
from repro.comms.crypto.certificates import (
    CertificateAuthority,
    _signature_verdict,
)
from repro.comms.crypto.keys import KeyPair
from repro.comms.crypto.numbers import (
    MODP_2048,
    TEST_GROUP,
    _generator_table,
    _subgroup_verdict,
)
from repro.comms.crypto.secure_channel import (
    Identity,
    SecureChannel,
    SecurityProfile,
)
from repro.scenarios.worksite import ScenarioConfig, build_worksite

PAYLOAD = b"x" * 256
N_RECORDS = 2000


def _channel_pair(profile):
    ca = CertificateAuthority("bench-ca", TEST_GROUP)
    identities = []
    for name in ("a", "b"):
        keypair = KeyPair.generate(TEST_GROUP, seed=name.encode())
        cert = ca.issue(name, keypair.public)
        identities.append(Identity(name, keypair, [cert], ca.root_certificate, ca))
    chan_a, chan_b, _ = SecureChannel.establish_pair(
        identities[0], identities[1], profile=profile,
    )
    return chan_a, chan_b


def _record_throughput():
    rows = []
    for profile in SecurityProfile:
        chan_a, chan_b = _channel_pair(profile)
        start = time.perf_counter()
        for _ in range(N_RECORDS):
            record = chan_a.seal(PAYLOAD)
            chan_b.open(record)
        elapsed = time.perf_counter() - start
        per_record_us = elapsed / N_RECORDS * 1e6
        overhead_bytes = len(chan_a.seal(PAYLOAD).body) - len(PAYLOAD)
        rows.append((profile.value, round(per_record_us, 1),
                     round(N_RECORDS / elapsed), overhead_bytes))
    return rows


def _handshake_cost():
    """Per group: the one-off build of its generator table (cleared, then
    timed), a pair's first handshake, with the certificate and subgroup
    verdict memos cleared, then a repeat on the same identities, which
    finds every certificate verdict memoised."""
    rows = []
    for group in (TEST_GROUP, MODP_2048):
        _generator_table.cache_clear()
        start = time.perf_counter()
        _generator_table(group.p, group.g)
        table_ms = (time.perf_counter() - start) * 1e3
        ca = CertificateAuthority(f"ca-{group.name}", group)
        identities = []
        for name in ("a", "b"):
            keypair = KeyPair.generate(group, seed=name.encode())
            cert = ca.issue(name, keypair.public)
            identities.append(Identity(name, keypair, [cert],
                                       ca.root_certificate, ca))
        _subgroup_verdict.cache_clear()
        _signature_verdict.cache_clear()
        start = time.perf_counter()
        _, __, stats = SecureChannel.establish_pair(identities[0], identities[1])
        elapsed_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        SecureChannel.establish_pair(identities[0], identities[1])
        warm_ms = (time.perf_counter() - start) * 1e3
        rows.append((group.name, group.p.bit_length(), round(table_ms, 1),
                     round(elapsed_ms, 1), round(warm_ms, 1),
                     stats.exponentiations, stats.bytes_exchanged))
    return rows


def _worksite_delivery():
    rows = []
    for profile in SecurityProfile:
        scenario = build_worksite(ScenarioConfig(seed=61, profile=profile))
        scenario.run(900.0)
        rows.append((profile.value,
                     round(scenario.medium.delivery_ratio, 4),
                     scenario.mission.delivered_m3,
                     scenario.network.nodes["forwarder"].messages_received))
    return rows


def _run_all():
    return _record_throughput(), _handshake_cost(), _worksite_delivery()


def test_crypto_overhead(benchmark):
    records, handshakes, worksite = run_once(benchmark, _run_all)

    t1 = Table(["profile", "us / 256B record", "records / s", "wire overhead B"],
               title="E-A2  record-layer cost per security profile")
    for row in records:
        t1.add_row(*row)
    t1.print()

    t2 = Table(["group", "modulus bits", "table build ms", "handshake ms",
                "warm handshake ms", "exponentiations", "bytes exchanged"],
               title="E-A2  handshake cost per DH group")
    for row in handshakes:
        t2.add_row(*row)
    t2.print()

    t3 = Table(["profile", "delivery ratio", "delivered m3", "messages received"],
               title="E-A2  end-to-end worksite effect of the profile (15 min)")
    for row in worksite:
        t3.add_row(*row)
    t3.print()

    by_profile = {row[0]: row for row in records}
    # protection costs more than plaintext but stays in the tens of us
    assert by_profile["plaintext"][1] <= by_profile["aead"][1]
    assert by_profile["aead"][1] < 500.0
    # AEAD wire overhead is exactly the 32-byte tag
    assert by_profile["aead"][3] == 32
    # the secure profile does not tank worksite delivery
    deliveries = {row[0]: row[1] for row in worksite}
    assert deliveries["aead"] > 0.9 * deliveries["plaintext"]
