"""Regression floors for the PR 2 hot-path caches.

The per-frame comms pipeline leans on two caches: the keystream LRU in
:mod:`repro.comms.crypto.primitives` and the per-channel HKDF subkey
derivation in
:class:`~repro.comms.crypto.secure_channel.SecureChannel`.  A refactor
that silently stops hitting either one keeps every test green while
giving the optimisation back — so this module runs one representative
attacked scenario with the perf counters armed and pins floors on the
observed hit rates.

Floors are deliberately generous: they catch "the cache stopped
working", not single-digit drift.
"""

import pytest

from repro.comms.crypto.primitives import _cached_keystream
from repro.perf import counters

#: observed keystream hit rate on the reference run is ~0.44; a broken
#: cache reads 0.0
KEYSTREAM_HIT_RATE_FLOOR = 0.30

#: subkeys are derived once per channel and reused per record; the
#: reference run amortises ~90 records per derivation
SUBKEY_HITS_PER_DERIVATION_FLOOR = 10


@pytest.fixture(scope="module")
def attacked_run_snapshot():
    """Perf snapshot of one attacked worksite run, from a cold cache."""
    from repro.scenarios.factory import compose_run

    was_active = counters.ACTIVE
    counters.enable(True)
    counters.reset()
    _cached_keystream.cache_clear()
    try:
        prepared = compose_run(
            seed=11, horizon_s=120.0, plan=(("rf_jamming", 20.0, 40.0),)
        )
        prepared.scenario.run(120.0)
        yield counters.snapshot()
    finally:
        counters.enable(was_active)
        counters.reset()


class TestKeystreamCacheFloor:
    def test_cache_is_exercised(self, attacked_run_snapshot):
        cache = attacked_run_snapshot["keystream_cache"]
        assert cache["hits"] + cache["misses"] > 100, (
            "the AEAD record layer stopped going through the keystream "
            f"cache entirely: {cache}"
        )

    def test_hit_rate_floor(self, attacked_run_snapshot):
        cache = attacked_run_snapshot["keystream_cache"]
        rate = cache["hits"] / (cache["hits"] + cache["misses"])
        assert rate >= KEYSTREAM_HIT_RATE_FLOOR, (
            f"keystream LRU hit rate regressed to {rate:.3f} "
            f"(floor {KEYSTREAM_HIT_RATE_FLOOR}); cache stats: {cache}"
        )


class TestSubkeyCacheFloor:
    def test_subkeys_derived_once_per_channel(self, attacked_run_snapshot):
        counts = attacked_run_snapshot["counters"]
        derivations = counts.get("crypto.subkey_derivations", 0)
        assert 0 < derivations <= 40, (
            "per-channel HKDF subkey derivation ran away (or never ran): "
            f"{derivations} derivations"
        )

    def test_cached_subkeys_amortise_derivations(self, attacked_run_snapshot):
        counts = attacked_run_snapshot["counters"]
        hits = counts.get("crypto.subkey_cache_hits", 0)
        derivations = counts.get("crypto.subkey_derivations", 0)
        assert hits >= SUBKEY_HITS_PER_DERIVATION_FLOOR * derivations, (
            f"subkey cache effectiveness regressed: {hits} record "
            f"seal/open hits over {derivations} derivations "
            f"(floor {SUBKEY_HITS_PER_DERIVATION_FLOOR}x)"
        )
