"""Golden-equivalence properties for the PR 2 hot-path optimisations.

Each optimised implementation is checked **bit-identical** against a
straightforward reference implementation kept in this module (mirroring the
pre-optimisation code).  Exact ``==`` on floats and bytes is deliberate:
the simulator's determinism contract is byte-identical replay, so an
optimisation that changes even the last ulp of a float is a regression.
"""

from __future__ import annotations

import hashlib
import math
import struct

from hypothesis import example, given, strategies as st

from repro.comms.crypto.primitives import (
    aead_decrypt,
    aead_encrypt,
    aead_encrypt_subkeys,
    derive_aead_subkeys,
    hkdf_expand,
    stream_xor,
)
from repro.comms.crypto.secure_channel import (
    SecureChannel,
    SecurityProfile,
    nonce_from_sequence,
)
from repro.comms.medium import Jammer, WirelessMedium
from repro.comms.radio import (
    RadioConfig,
    combine_noise_dbm,
    received_power_dbm,
)
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Segment, Vec2
from repro.sim.rng import RngStreams
from repro.sim.terrain import Terrain
from repro.sim.world import Tree, World

keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=600)
aads = st.binary(min_size=0, max_size=48)
coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


# --------------------------------------------------------------------------
# reference implementations (pre-optimisation semantics)
# --------------------------------------------------------------------------

def ref_stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Byte-at-a-time CTR keystream XOR."""
    out = bytearray(len(data))
    for block_index in range(0, (len(data) + 31) // 32):
        block = hashlib.sha256(
            key + nonce + struct.pack(">Q", block_index)
        ).digest()
        offset = block_index * 32
        chunk = data[offset : offset + 32]
        for i, byte in enumerate(chunk):
            out[offset + i] = byte ^ block[i]
    return bytes(out)


def ref_canopy_blockage(world: World, observer: Vec2, target: Vec2) -> float:
    """Segment-object canopy intersection sum (no memoisation)."""
    seg = Segment(observer, target)
    total = 0.0
    length = seg.length()
    if length == 0.0:
        return 0.0
    for tree in world.trees_near_segment(seg):
        params = seg.circle_intersection_params(tree.position, tree.canopy_radius)
        if params is not None:
            total += (params[1] - params[0]) * length
    return total


def ref_trunk_blocks(world: World, observer: Vec2, target: Vec2) -> bool:
    """Segment-object trunk test over the bounding-box candidates.

    Exact for trunk radii up to the 1 m pad: a trunk that reaches the line
    lies in a grid cell the padded bounding box overlaps.
    """
    seg = Segment(observer, target)
    for tree in world.trees_near_segment(seg, pad=1.0):
        p = tree.position
        trunk = tree.trunk_radius
        # trunks at the endpoints belong to the observer or the target
        if (p.distance_to(observer) < trunk + 0.1
                or p.distance_to(target) < trunk + 0.1):
            continue
        if seg.distance_to_point(p) <= trunk:
            return True
    return False


def ref_interference(all_tx, jammers, position: Vec2, channel: int,
                     now: float) -> float:
    """List-rebuild interference query over the full transmission history.

    ``all_tx`` is [(end_time, position, power, channel), ...] in
    transmission order.
    """
    components = [j.interference_at(position, channel) for j in jammers]
    recent = [t for t in all_tx if t[0] > now]
    for end, pos, power, ch in recent:
        if ch == channel:
            d = pos.distance_to(position)
            if d > 0.5:
                components.append(
                    received_power_dbm(power, d, antenna_gain_db=0.0) - 6.0
                )
    components = [c for c in components if c != -math.inf]
    if not components:
        return -math.inf
    return combine_noise_dbm(*components)


def make_medium() -> WirelessMedium:
    return WirelessMedium(Simulator(), EventLog(), RngStreams(7))


class _Src:
    def __init__(self, position: Vec2) -> None:
        self.position = position


# --------------------------------------------------------------------------
# 1. stream cipher
# --------------------------------------------------------------------------

class TestStreamXorEquivalence:
    @given(key=keys, nonce=nonces, data=payloads)
    def test_bit_identical_to_byte_loop(self, key, nonce, data):
        assert stream_xor(key, nonce, data) == ref_stream_xor(key, nonce, data)

    def test_large_buffer_beyond_keystream_cache(self):
        # 8 KiB = 256 blocks > _CACHE_MAX_BLOCKS: exercises the uncached path
        key, nonce = b"\x5a" * 32, b"\xa5" * 16
        data = hashlib.sha256(b"large").digest() * 256
        assert stream_xor(key, nonce, data) == ref_stream_xor(key, nonce, data)

    @given(key=keys, nonce=nonces, data=payloads)
    def test_cached_keystream_is_reused_consistently(self, key, nonce, data):
        # same (key, nonce) twice: second call hits the keystream cache and
        # must produce the identical transform
        first = stream_xor(key, nonce, data)
        second = stream_xor(key, nonce, data)
        assert first == second == ref_stream_xor(key, nonce, data)


# --------------------------------------------------------------------------
# 2. HKDF subkey cache (SecureChannel AEAD path)
# --------------------------------------------------------------------------

class TestSubkeyCacheEquivalence:
    @given(key=keys)
    def test_subkeys_match_direct_hkdf(self, key):
        enc, mac = derive_aead_subkeys(key)
        assert enc == hkdf_expand(key, b"aead-enc", 32)
        assert mac == hkdf_expand(key, b"aead-mac", 32)

    @given(key=keys, nonce=nonces, data=payloads, aad=aads)
    def test_sealed_bytes_match_per_call_derivation(self, key, nonce, data, aad):
        enc, mac = derive_aead_subkeys(key)
        assert (aead_encrypt_subkeys(enc, mac, nonce, data, aad)
                == aead_encrypt(key, nonce, data, aad))

    @given(send_key=keys, recv_key=keys,
           records=st.lists(st.tuples(payloads, aads), min_size=1, max_size=8))
    def test_channel_records_match_uncached_aead(self, send_key, recv_key,
                                                 records):
        alice = SecureChannel("b", send_key, recv_key, SecurityProfile.AEAD)
        bob = SecureChannel("a", recv_key, send_key, SecurityProfile.AEAD)
        for plaintext, aad in records:
            record = alice.seal(plaintext, aad)
            expected = aead_encrypt(
                send_key, nonce_from_sequence(record.seq), plaintext, aad
            )
            assert record.body == expected
            assert bob.open(record, aad) == plaintext
            assert aead_decrypt(
                send_key, nonce_from_sequence(record.seq), record.body, aad
            ) == plaintext


# --------------------------------------------------------------------------
# 3. per-channel interference index
# --------------------------------------------------------------------------

tx_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),   # start
        st.floats(min_value=0.001, max_value=2.0, allow_nan=False),  # airtime
        coords, coords,                                              # position
        st.floats(min_value=-10.0, max_value=30.0, allow_nan=False), # power
        st.integers(min_value=1, max_value=3),                       # channel
    ),
    min_size=0, max_size=20,
)

# an optional jammer: position, power and jammed channel (None = broadband)
jammers = st.none() | st.tuples(
    coords, coords,
    st.floats(min_value=-10.0, max_value=40.0, allow_nan=False),
    st.none() | st.integers(min_value=1, max_value=3),
)


class TestInterferenceIndexEquivalence:
    @given(entries=tx_entries, qx=coords, qy=coords,
           channel=st.integers(min_value=1, max_value=3),
           lead=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
           jammer=jammers)
    def test_matches_list_rebuild_reference(self, entries, qx, qy, channel,
                                            lead, jammer):
        medium = make_medium()
        if jammer is not None:
            jx, jy, power, jammed = jammer
            medium.add_jammer(Jammer(
                "j", lambda: Vec2(jx, jy), power_dbm=power, channel=jammed,
            ))
        all_tx = []
        last_start = 0.0
        # feed in start-time order, exactly as the simulator does
        for start, air, x, y, power, ch in sorted(entries, key=lambda e: e[0]):
            pos = Vec2(x, y)
            config = RadioConfig(channel=ch, tx_power_dbm=power)
            medium._record_tx(start, air, _Src(pos), config)
            all_tx.append((start + air, pos, power, ch))
            last_start = start
        # sim time is monotone: queries never precede the latest record
        now = last_start + lead
        query = Vec2(qx, qy)
        assert medium.interference_at(query, channel, now) == ref_interference(
            all_tx, medium.jammers, query, channel, now
        )

    @given(entries=tx_entries, qx=coords, qy=coords)
    def test_monotone_queries_stay_consistent(self, entries, qx, qy):
        # repeated queries at advancing times (the lazy expiry mutates the
        # deque) must keep matching the reference at every step
        medium = make_medium()
        all_tx = []
        last_start = 0.0
        for start, air, x, y, power, ch in sorted(entries, key=lambda e: e[0]):
            pos = Vec2(x, y)
            medium._record_tx(
                start, air, _Src(pos), RadioConfig(channel=ch, tx_power_dbm=power)
            )
            all_tx.append((start + air, pos, power, ch))
            last_start = start
        query = Vec2(qx, qy)
        for lead in (0.0, 0.5, 1.0, 2.5, 30.0):
            now = last_start + lead
            for channel in (1, 2, 3):
                assert medium.interference_at(
                    query, channel, now
                ) == ref_interference(all_tx, [], query, channel, now)


# --------------------------------------------------------------------------
# 4. canopy blockage memoisation
# --------------------------------------------------------------------------

tree_strategy = st.lists(
    st.tuples(coords, coords,
              st.floats(min_value=0.5, max_value=4.0, allow_nan=False)),
    min_size=0, max_size=25,
)

trunk_radii = st.floats(min_value=0.15, max_value=1.0, allow_nan=False)
trunk_strategy = st.lists(st.tuples(coords, coords, trunk_radii),
                          min_size=0, max_size=25)
# trees at parameter t along the line, offset sideways by a fraction of
# its length (|offset| * length metres)
on_line_strategy = st.lists(
    st.tuples(st.floats(min_value=-0.05, max_value=1.05, allow_nan=False),
              st.floats(min_value=-0.02, max_value=0.02, allow_nan=False),
              trunk_radii),
    min_size=0, max_size=4,
)


class TestCanopyMemoEquivalence:
    @given(trees=tree_strategy, ax=coords, ay=coords, bx=coords, by=coords)
    def test_matches_segment_reference(self, trees, ax, ay, bx, by):
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(x, y), canopy_radius=r)
                   for x, y, r in trees],
        )
        a, b = Vec2(ax, ay), Vec2(bx, by)
        expected = ref_canopy_blockage(world, a, b)
        assert world.canopy_blockage(a, b) == expected     # cold
        assert world.canopy_blockage(a, b) == expected     # memoised

    @given(trees=tree_strategy, ax=coords, ay=coords, bx=coords, by=coords)
    def test_cache_invalidated_by_new_tree(self, trees, ax, ay, bx, by):
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(x, y), canopy_radius=r)
                   for x, y, r in trees],
        )
        a, b = Vec2(ax, ay), Vec2(bx, by)
        world.canopy_blockage(a, b)  # populate the cache
        # plant a tree square on the sight line midpoint
        mid = Vec2((ax + bx) / 2.0, (ay + by) / 2.0)
        world.add_tree(Tree(position=mid, canopy_radius=3.0))
        assert world.canopy_blockage(a, b) == ref_canopy_blockage(world, a, b)

    @given(trees=trunk_strategy, on_line=on_line_strategy,
           ax=coords, ay=coords, bx=coords, by=coords)
    @example(trees=[(50.0, 50.0, 0.4)], on_line=[],
             ax=40.0, ay=50.0, bx=60.0, by=50.0)   # through the trunk
    @example(trees=[(50.0, 50.0, 0.4)], on_line=[],
             ax=40.0, ay=60.0, bx=60.0, by=60.0)   # missing it
    @example(trees=[(50.0, 50.0, 0.4)], on_line=[],
             ax=50.2, ay=50.0, bx=60.0, by=50.0)   # observer at the trunk
    def test_trunk_blocks_matches_segment_reference(self, trees, on_line,
                                                    ax, ay, bx, by):
        # lines anywhere in the world cross many 10 m cells; the trees
        # planted near the line make blocking and near-misses common
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(x, y), trunk_radius=r)
                   for x, y, r in trees],
        )
        dx, dy = bx - ax, by - ay
        for t, offset, r in on_line:
            world.add_tree(Tree(
                position=Vec2(ax + dx * t - dy * offset,
                              ay + dy * t + dx * offset),
                trunk_radius=r,
            ))
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert world.trunk_blocks(a, b) == ref_trunk_blocks(world, a, b)
        assert world.trunk_blocks(b, a) == ref_trunk_blocks(world, b, a)
