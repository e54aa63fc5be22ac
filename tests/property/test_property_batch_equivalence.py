"""Golden-equivalence properties for the simulation kernels' fast paths.

A run of interference queries on one medium (warm per-(tx, rx) component
memo) must be **bit-identical** to the same queries on cache-cold media.
The sight-line band memo (one candidate list per endpoint-cell pair,
shared by ``canopy_blockage`` and ``trunk_blocks``) must give the same
floats and verdicts as the bounding-box references in
``test_property_perf_equivalence.py`` and as a cache-cold world, and the
terrain line-of-sight quick reject must never change a verdict of the
plain sampled sweep.  The simulator's determinism contract is
byte-identical replay, so these tests compare with exact ``==`` on
floats, and finish by digesting whole worksite runs.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from repro.comms.medium import Jammer, WirelessMedium
from repro.comms.radio import RadioConfig
from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams
from repro.sim.terrain import Ridge, Terrain
from repro.sim.world import Tree, World
from tests.property.test_property_perf_equivalence import (
    ref_canopy_blockage,
    ref_trunk_blocks,
)

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


# --------------------------------------------------------------------------
# 1. interference queries with a jammer
# --------------------------------------------------------------------------

tx_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),   # start
        st.floats(min_value=0.001, max_value=2.0, allow_nan=False),  # airtime
        coords, coords,                                              # position
        st.floats(min_value=-10.0, max_value=30.0, allow_nan=False), # power
        st.integers(min_value=1, max_value=2),                       # channel
    ),
    min_size=0, max_size=24,
)


def make_medium() -> WirelessMedium:
    return WirelessMedium(Simulator(), EventLog(), RngStreams(7))


class _Src:
    def __init__(self, position: Vec2) -> None:
        self.position = position


def feed_medium(medium: WirelessMedium, entries) -> float:
    """Record ``entries`` in start order; returns the last start time."""
    last_start = 0.0
    for start, air, x, y, power, ch in sorted(entries, key=lambda e: e[0]):
        medium._record_tx(
            start, air, _Src(Vec2(x, y)),
            RadioConfig(channel=ch, tx_power_dbm=power),
        )
        last_start = start
    return last_start


class TestInterferenceBatchEquivalence:
    @given(entries=tx_entries,
           queries=st.lists(st.tuples(coords, coords), min_size=1, max_size=6),
           jx=coords, jy=coords,
           channel=st.integers(min_value=1, max_value=2))
    def test_batch_with_jammer_matches_sequential(self, entries, queries, jx,
                                                  jy, channel):
        # jammer terms are added outside the component memo: a batch of
        # queries on one medium (memo warmed by the earlier positions) must
        # equal each position queried on its own freshly fed medium
        def jammed_medium() -> WirelessMedium:
            medium = make_medium()
            medium.add_jammer(
                Jammer("j", lambda: Vec2(jx, jy), power_dbm=20.0)
            )
            return medium

        batch_medium = jammed_medium()
        now = feed_medium(batch_medium, entries) + 0.5
        positions = [Vec2(x, y) for x, y in queries]
        batch = [batch_medium.interference_at(p, channel, now)
                 for p in positions]
        sequential = []
        for p in positions:
            cold_medium = jammed_medium()
            feed_medium(cold_medium, entries)
            sequential.append(cold_medium.interference_at(p, channel, now))
        assert batch == sequential


# --------------------------------------------------------------------------
# 2. terrain line of sight
# --------------------------------------------------------------------------

ridge_strategy = st.lists(
    st.tuples(coords, coords,
              st.floats(min_value=0.5, max_value=12.0, allow_nan=False),
              st.floats(min_value=2.0, max_value=25.0, allow_nan=False)),
    min_size=0, max_size=6,
)


def ref_height(terrain: Terrain, p: Vec2) -> float:
    """Direct ridge-sum elevation (no memo), mirroring ``height_at``."""
    total = 0.0
    for cx, cy, h, two_sigma_sq in terrain._ridge_params:
        dx = p.x - cx
        dy = p.y - cy
        total += h * math.exp(-(dx * dx + dy * dy) / two_sigma_sq)
    return terrain.base_height + total


def ref_blocks_los(terrain: Terrain, observer: Vec2, observer_height: float,
                   target: Vec2, target_height: float,
                   samples: int = 32) -> bool:
    """Plain sampled sweep — the pre-optimisation scalar loop, no quick
    reject, no caches."""
    z0 = ref_height(terrain, observer) + observer_height
    z1 = ref_height(terrain, target) + target_height
    ox, oy = observer.x, observer.y
    span_x = target.x - ox
    span_y = target.y - oy
    for i in range(1, samples):
        t = i / samples
        px = ox + span_x * t
        py = oy + span_y * t
        line_z = z0 + (z1 - z0) * t
        total = 0.0
        for cx, cy, h, two_sigma_sq in terrain._ridge_params:
            dx = px - cx
            dy = py - cy
            total += h * math.exp(-(dx * dx + dy * dy) / two_sigma_sq)
        if terrain.base_height + total > line_z:
            return True
    return False


class TestTerrainLosEquivalence:
    @given(ridges=ridge_strategy, ox=coords, oy=coords, tx=coords, ty=coords,
           oh=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
           th=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
           samples=st.sampled_from([4, 8, 32]))
    def test_matches_plain_sampled_sweep(self, ridges, ox, oy, tx, ty, oh,
                                         th, samples):
        terrain = Terrain(
            100.0, 100.0,
            ridges=[Ridge(center=Vec2(x, y), height=h, sigma=s)
                    for x, y, h, s in ridges],
        )
        observer, target = Vec2(ox, oy), Vec2(tx, ty)
        expected = ref_blocks_los(terrain, observer, oh, target, th, samples)
        assert terrain.blocks_line_of_sight(
            observer, oh, target, th, samples
        ) == expected
        # precomputed endpoint elevations (the occlusion layer's fast path)
        # must not change the verdict
        assert terrain.blocks_line_of_sight(
            observer, oh, target, th, samples,
            observer_ground=terrain.height_at(observer),
            target_ground=terrain.height_at(target),
        ) == expected


# --------------------------------------------------------------------------
# 3. sight-line band memo
# --------------------------------------------------------------------------

tree_strategy = st.lists(
    st.tuples(coords, coords,
              st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
              st.floats(min_value=0.15, max_value=1.0, allow_nan=False)),
    min_size=0, max_size=30,
)


def make_world(trees) -> World:
    return World(
        Terrain(100.0, 100.0),
        trees=[Tree(position=Vec2(x, y), canopy_radius=r, trunk_radius=tr)
               for x, y, r, tr in trees],
    )


def assert_matches_references(world: World, a: Vec2, b: Vec2) -> None:
    assert world._canopy_blockage_uncached(a, b) == \
        ref_canopy_blockage(world, a, b)
    assert world.trunk_blocks(a, b) == ref_trunk_blocks(world, a, b)


class TestCanopyBatchEquivalence:
    @given(trees=tree_strategy, ax=coords, ay=coords,
           steps=st.lists(st.tuples(
               st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
               st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)),
               min_size=1, max_size=6))
    def test_band_memo_matches_references_along_path(self, trees, ax, ay,
                                                     steps):
        # a moving sight line re-uses (and occasionally rolls over) the
        # band memo; every query must match the bounding-box references and
        # a cache-cold world
        warm = make_world(trees)
        x, y = ax, ay
        observer = Vec2(10.0, 10.0)
        for dx, dy in steps:
            x += dx
            y += dy
            target = Vec2(x, y)
            assert_matches_references(warm, observer, target)
            cold = make_world(trees)
            assert warm._canopy_blockage_uncached(observer, target) == \
                cold._canopy_blockage_uncached(observer, target)
            assert warm.trunk_blocks(observer, target) == \
                cold.trunk_blocks(observer, target)

    def test_dense_stand_crosses_cells_matches_references(self):
        # 200 trees on a 2 m lattice: the line from (2, 2) to (41, 27) runs
        # through many cells, and the reversed line uses another band entry
        trees = [
            (5.0 + (i % 18) * 2.0, 5.0 + (i // 18) * 2.0, 1.5, 0.3)
            for i in range(200)
        ]
        world = make_world(trees)
        a, b = Vec2(2.0, 2.0), Vec2(41.0, 27.0)
        assert_matches_references(world, a, b)
        assert_matches_references(world, b, a)
        assert world.canopy_blockage(a, b) > 0.0
        assert world.trunk_blocks(a, b)

    @given(trees=tree_strategy, ax=coords, ay=coords, bx=coords, by=coords)
    def test_add_tree_invalidates_band_memo(self, trees, ax, ay, bx, by):
        world = make_world(trees)
        a, b = Vec2(ax, ay), Vec2(bx, by)
        world._canopy_blockage_uncached(a, b)   # populate the band memo
        mid = Vec2((ax + bx) / 2.0, (ay + by) / 2.0)
        world.add_tree(Tree(position=mid, canopy_radius=3.0))
        fresh = make_world(trees)
        fresh.add_tree(Tree(position=mid, canopy_radius=3.0))
        assert world._canopy_blockage_uncached(a, b) == \
            fresh._canopy_blockage_uncached(a, b)
        assert world.trunk_blocks(a, b) == fresh.trunk_blocks(a, b)


# --------------------------------------------------------------------------
# 4. whole-run digests
# --------------------------------------------------------------------------

def run_digest(seed: int, *, n_workers: int, horizon_s: float) -> str:
    """SHA-256 over the full event log of one small worksite run."""
    scenario = build_worksite(ScenarioConfig(
        seed=seed, width=200.0, height=200.0, n_workers=n_workers,
    ))
    scenario.run(horizon_s)
    digest = hashlib.sha256()
    for event in scenario.log:
        digest.update(repr(
            (event.time, event.category.value, event.kind, event.source,
             sorted(event.data.items()))
        ).encode())
    digest.update(repr(
        (scenario.sim.events_processed, scenario.medium.frames_sent,
         scenario.medium.frames_delivered, scenario.medium.frames_lost)
    ).encode())
    return digest.hexdigest()


@pytest.mark.slow
class TestWorksiteRunEquivalence:
    """End-to-end: the same inputs produce byte-identical runs."""

    def test_repeat_run_is_deterministic(self):
        first = run_digest(7, n_workers=2, horizon_s=30.0)
        second = run_digest(7, n_workers=2, horizon_s=30.0)
        assert first == second
