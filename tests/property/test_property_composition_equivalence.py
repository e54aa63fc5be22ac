"""Golden-equivalence properties for the two composition kernels.

A defended worksite's composition is mostly two kernels: powers of the
group generator (key generation, signing, half of every verification) and
the forest draw.  Each fast path is checked exactly against the code it
replaced: the generator table against builtin ``pow``, and
``generate_forest`` against the ``rng.uniform`` plus ``Zone.contains``
loop kept in this module.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.comms.crypto.numbers import MODP_2048, TEST_GROUP, _generator_table
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams
from repro.sim.world import Tree, Zone, generate_forest

G = TEST_GROUP


class TestGeneratorTable:
    """``DhGroup.pow_g`` is builtin ``pow(g, e, p)``, exponent for
    exponent, or it raises; it never returns another number."""

    @given(exponent=st.integers(min_value=0, max_value=G.q))
    @example(exponent=0)
    @example(exponent=1)
    @example(exponent=G.q - 1)
    @example(exponent=G.q)
    @example(exponent=G.p - 1)
    def test_matches_builtin_pow(self, exponent):
        assert G.pow_g(exponent) == pow(G.g, exponent, G.p)

    @given(exponent=st.one_of(
        st.integers(max_value=-1),
        st.integers(min_value=16 ** len(_generator_table(G.p, G.g))),
    ))
    @example(exponent=-1)
    @example(exponent=-G.q)
    @example(exponent=16 ** 128)
    @example(exponent=G.p ** 2)
    @settings(max_examples=20)
    def test_exponent_the_table_does_not_cover_matches_builtin_pow(
        self, exponent
    ):
        assert G.pow_g(exponent) == pow(G.g, exponent, G.p)

    @pytest.mark.parametrize("exponent", [2.0, "2", None])
    def test_exponent_that_is_not_an_integer_raises(self, exponent):
        with pytest.raises(TypeError):
            pow(G.g, exponent, G.p)
        with pytest.raises(TypeError):
            G.pow_g(exponent)

    def test_table_rows_cover_every_exponent_below_p(self):
        table = _generator_table(G.p, G.g)
        assert len(table) == 128 and all(len(row) == 16 for row in table)
        assert 16 ** len(table) > G.p

    @pytest.mark.parametrize("exponent", [
        0, 1, 15, 16, MODP_2048.q - 1, MODP_2048.q, MODP_2048.p - 1,
        int.from_bytes(hashlib.sha256(b"modp-2048").digest() * 8, "big"),
    ])
    def test_modp_2048_matches_builtin_pow(self, exponent):
        assert MODP_2048.pow_g(exponent) == pow(MODP_2048.g, exponent,
                                                MODP_2048.p)


# --------------------------------------------------------------------------
# the forest draw
# --------------------------------------------------------------------------

def ref_forest(seed, width, height, tree_density, clearings):
    """The forest loop as it was: ``rng.uniform`` draws and a ``Vec2`` and
    a ``Zone.contains`` test per draw.  Returns the trees and the stream."""
    rng = RngStreams(seed).stream("forest")
    n_trees = int(width * height * tree_density)
    trees = []
    attempts = 0
    while len(trees) < n_trees and attempts < n_trees * 10:
        attempts += 1
        p = Vec2(rng.uniform(0.0, width), rng.uniform(0.0, height))
        if any(zone.contains(p) for zone in clearings):
            continue
        canopy = rng.uniform(1.5, 3.5)
        trunk = rng.uniform(0.15, 0.45)
        tall = rng.uniform(12.0, 26.0)
        trees.append(Tree(position=p, canopy_radius=canopy,
                          trunk_radius=trunk, height=tall))
    return trees, rng


def assert_same_forest(seed, width, height, tree_density, clearings):
    streams = RngStreams(seed)
    world = generate_forest(streams, width=width, height=height,
                            tree_density=tree_density, clearings=clearings,
                            n_ridges=1)
    trees, rng = ref_forest(seed, width, height, tree_density, clearings)
    # repr tells -0.0 from 0.0 and round-trips every float exactly
    assert [repr(t) for t in world.trees] == [repr(t) for t in trees]
    assert streams.stream("forest").getstate() == rng.getstate()
    return world


sizes = st.floats(min_value=1.0, max_value=120.0, allow_nan=False)
densities = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)


@st.composite
def forests(draw):
    width, height = draw(sizes), draw(sizes)
    coords_x = st.floats(min_value=-10.0, max_value=width + 10.0)
    coords_y = st.floats(min_value=-10.0, max_value=height + 10.0)
    clearings = []
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        x0, x1 = sorted((draw(coords_x), draw(coords_x)))
        y0, y1 = sorted((draw(coords_y), draw(coords_y)))
        clearings.append(Zone(f"c{index}", Vec2(x0, y0), Vec2(x1, y1)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    return seed, width, height, draw(densities), clearings


class TestForestDraw:
    """``generate_forest`` draws the reference loop's trees, in its order,
    and leaves the ``forest`` stream where the reference leaves it."""

    @given(case=forests())
    @settings(max_examples=40)
    def test_matches_reference_loop(self, case):
        assert_same_forest(*case)

    def test_clearing_over_the_whole_world_stops_at_the_attempt_cap(self):
        whole = Zone("all", Vec2(0.0, 0.0), Vec2(40.0, 30.0))
        world = assert_same_forest(5, 40.0, 30.0, 0.02, [whole])
        assert world.trees == []

    @pytest.mark.parametrize("corner", [
        (Vec2(0.0, 0.0), Vec2(20.0, 30.0)),   # west edge on the border
        (Vec2(20.0, 0.0), Vec2(40.0, 30.0)),  # east edge on the border
        (Vec2(0.0, 25.0), Vec2(40.0, 30.0)),  # north edge on the border
    ])
    def test_clearing_edge_on_the_world_border(self, corner):
        world = assert_same_forest(9, 40.0, 30.0, 0.05,
                                   [Zone("edge", *corner)])
        assert world.trees

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_draw_on_a_clearing_edge_is_inside_it(self, seed):
        # closed intervals: a clearing whose corner is exactly the first
        # draw rejects it, as Zone.contains does
        rng = RngStreams(seed).stream("forest")
        x, y = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
        for zone in (Zone("min", Vec2(x, y), Vec2(x + 5.0, y + 5.0)),
                     Zone("max", Vec2(x - 5.0, y - 5.0), Vec2(x, y))):
            world = assert_same_forest(seed, 50.0, 50.0, 0.01, [zone])
            assert world.trees[0].position != Vec2(x, y)
