"""Unit tests for terrain and the worksite world."""

import pytest

from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams
from repro.sim.terrain import Ridge, Terrain, generate_terrain
from repro.sim.world import Tree, World, Zone, generate_forest


class TestTerrain:
    def test_flat_terrain_height(self):
        terrain = Terrain(100, 100)
        assert terrain.height_at(Vec2(50, 50)) == 0.0

    def test_ridge_peak_height(self):
        ridge = Ridge(center=Vec2(50, 50), height=8.0, sigma=10.0)
        terrain = Terrain(100, 100, ridges=[ridge])
        assert terrain.height_at(Vec2(50, 50)) == pytest.approx(8.0)
        assert terrain.height_at(Vec2(0, 0)) < 0.1

    def test_invalid_extent_raises(self):
        with pytest.raises(ValueError):
            Terrain(0, 100)

    def test_contains(self):
        terrain = Terrain(100, 100)
        assert terrain.contains(Vec2(50, 50))
        assert not terrain.contains(Vec2(150, 50))

    def test_slope_zero_on_flat(self):
        assert Terrain(100, 100).slope_at(Vec2(50, 50)) == 0.0

    def test_slope_positive_on_ridge_flank(self):
        ridge = Ridge(center=Vec2(50, 50), height=10.0, sigma=8.0)
        terrain = Terrain(100, 100, ridges=[ridge])
        assert terrain.slope_at(Vec2(42, 50)) > 0.2

    def test_ridge_blocks_ground_sight_line(self):
        ridge = Ridge(center=Vec2(50, 50), height=10.0, sigma=6.0)
        terrain = Terrain(100, 100, ridges=[ridge])
        assert terrain.blocks_line_of_sight(Vec2(20, 50), 2.0, Vec2(80, 50), 1.8)

    def test_elevated_observer_clears_ridge(self):
        ridge = Ridge(center=Vec2(50, 50), height=10.0, sigma=6.0)
        terrain = Terrain(100, 100, ridges=[ridge])
        assert not terrain.blocks_line_of_sight(Vec2(20, 50), 45.0, Vec2(80, 50), 1.8)

    def test_generate_terrain_deterministic(self):
        a = generate_terrain(100, 100, RngStreams(5))
        b = generate_terrain(100, 100, RngStreams(5))
        p = Vec2(33, 66)
        assert a.height_at(p) == b.height_at(p)


class TestZone:
    def test_contains(self):
        zone = Zone("z", Vec2(0, 0), Vec2(10, 10))
        assert zone.contains(Vec2(5, 5))
        assert not zone.contains(Vec2(15, 5))

    def test_center_and_area(self):
        zone = Zone("z", Vec2(0, 0), Vec2(10, 20))
        assert zone.center() == Vec2(5, 10)
        assert zone.area() == 200.0


class TestWorld:
    def _world_with_tree(self, position=Vec2(50, 50), **kwargs):
        world = World(Terrain(100, 100))
        world.add_tree(Tree(position=position, **kwargs))
        return world

    def test_duplicate_zone_raises(self):
        world = World(Terrain(100, 100))
        world.add_zone(Zone("z", Vec2(0, 0), Vec2(1, 1)))
        with pytest.raises(ValueError):
            world.add_zone(Zone("z", Vec2(0, 0), Vec2(2, 2)))

    def test_trees_within(self):
        world = self._world_with_tree()
        assert len(world.trees_within(Vec2(50, 50), 5.0)) == 1
        assert world.trees_within(Vec2(10, 10), 5.0) == []

    def test_canopy_blockage_through_tree(self):
        world = self._world_with_tree(canopy_radius=3.0)
        blockage = world.canopy_blockage(Vec2(40, 50), Vec2(60, 50))
        assert blockage == pytest.approx(6.0, abs=0.2)

    def test_canopy_blockage_clear_path(self):
        world = self._world_with_tree(canopy_radius=3.0)
        assert world.canopy_blockage(Vec2(40, 60), Vec2(60, 60)) == 0.0

    def test_canopy_blockage_zero_length(self):
        world = self._world_with_tree()
        assert world.canopy_blockage(Vec2(50, 50), Vec2(50, 50)) == 0.0

    def test_trunk_blocks_direct_line(self):
        world = self._world_with_tree(trunk_radius=0.4)
        assert world.trunk_blocks(Vec2(40, 50), Vec2(60, 50))
        assert not world.trunk_blocks(Vec2(40, 60), Vec2(60, 60))

    def test_trunk_at_endpoint_does_not_block(self):
        world = self._world_with_tree(trunk_radius=0.4)
        assert not world.trunk_blocks(Vec2(50.1, 50), Vec2(60, 50))

    def test_add_tree_refuses_radius_beyond_pad(self):
        # sight lines only look 5 m either side: a 12 m canopy centred 11 m
        # off a line would cover it or not depending on the centre's cell
        world = World(Terrain(100, 100))
        with pytest.raises(ValueError, match="canopy 12.0"):
            world.add_tree(Tree(position=Vec2(50, 66), canopy_radius=12.0))
        with pytest.raises(ValueError, match="trunk 5.5"):
            World(Terrain(100, 100), trees=[Tree(Vec2(50, 50), trunk_radius=5.5)])
        assert world.trees == []
        world.add_tree(Tree(Vec2(50, 50), canopy_radius=5.0, trunk_radius=5.0))
        assert world.canopy_blockage(Vec2(40, 50), Vec2(60, 50)) == 10.0

    def test_traversability_blocked_by_trunk(self):
        world = self._world_with_tree(trunk_radius=0.4)
        assert not world.is_traversable(Vec2(50.5, 50))
        assert world.is_traversable(Vec2(80, 80))

    def test_traversability_outside_world(self):
        world = World(Terrain(100, 100))
        assert not world.is_traversable(Vec2(150, 50))

    def test_traversability_blocked_by_slope(self):
        ridge = Ridge(center=Vec2(50, 50), height=20.0, sigma=5.0)
        world = World(Terrain(100, 100, ridges=[ridge]))
        assert not world.is_traversable(Vec2(45, 50))


class TestGenerateForest:
    def test_respects_clearings(self):
        clearing = Zone("clear", Vec2(40, 40), Vec2(60, 60))
        world = generate_forest(
            RngStreams(3), width=100, height=100, tree_density=0.05,
            clearings=[clearing],
        )
        inside = [t for t in world.trees if clearing.contains(t.position)]
        assert inside == []
        assert len(world.trees) > 100

    def test_density_scales_tree_count(self):
        sparse = generate_forest(RngStreams(3), width=100, height=100, tree_density=0.005)
        dense = generate_forest(RngStreams(3), width=100, height=100, tree_density=0.03)
        assert len(dense.trees) > 3 * len(sparse.trees)

    def test_deterministic(self):
        a = generate_forest(RngStreams(3), width=100, height=100)
        b = generate_forest(RngStreams(3), width=100, height=100)
        assert [t.position for t in a.trees] == [t.position for t in b.trees]
