"""Tests for the composed worksite and use-case scenarios.

These are slower integration-grade tests over short horizons; the long
horizons live in the benchmarks.
"""

import pytest

from repro.comms.crypto.secure_channel import SecurityProfile
from repro.scenarios.campaigns import CAMPAIGN_BUILDERS, build_campaign
from repro.scenarios.usecase import UsecaseConfig, build_usecase
from repro.scenarios.worksite import (
    ScenarioConfig,
    build_worksite,
    worksite_item_model,
)


class TestWorksite:
    def test_composition_complete(self):
        scenario = build_worksite(ScenarioConfig(seed=1))
        assert scenario.forwarder is not None
        assert scenario.drone is not None
        assert len(scenario.workers) == 3
        assert scenario.ids_manager is not None
        assert "forwarder" in scenario.network.nodes
        assert "drone" in scenario.network.nodes

    def test_short_benign_run_is_safe_and_productive(self):
        scenario = build_worksite(ScenarioConfig(seed=2))
        scenario.run(900.0)
        summary = scenario.summary()
        assert summary["safety"]["violations"] == 0
        assert scenario.medium.delivery_ratio > 0.9
        assert scenario.forwarder.distance_travelled > 50.0

    def test_deterministic_given_seed(self):
        def run(seed):
            scenario = build_worksite(ScenarioConfig(seed=seed))
            scenario.run(600.0)
            return (
                scenario.forwarder.position,
                len(scenario.log),
                scenario.medium.frames_sent,
            )

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_drone_disabled_variant(self):
        scenario = build_worksite(ScenarioConfig(seed=1, drone_enabled=False))
        assert scenario.drone is None
        assert scenario.relay is None
        scenario.run(300.0)
        assert "drone" not in scenario.network.nodes

    def test_defenses_disabled_variant(self):
        scenario = build_worksite(ScenarioConfig(seed=1, defenses_enabled=False))
        assert scenario.ids_manager is None
        assert scenario.gnss_monitor is None
        scenario.run(120.0)

    def test_plaintext_profile_runs(self):
        scenario = build_worksite(
            ScenarioConfig(seed=1, profile=SecurityProfile.PLAINTEXT)
        )
        scenario.run(300.0)
        node = scenario.network.nodes["forwarder"]
        assert node.messages_received > 0

    def test_item_model_matches_scenario_systems(self):
        item = worksite_item_model()
        scenario = build_worksite(ScenarioConfig(seed=1))
        for node_name in scenario.network.nodes:
            if node_name == "control":
                continue  # item model calls it control_station
            assert node_name in item.systems


class TestUsecase:
    def test_drone_detects_earlier_than_ground_only(self):
        """The Figure 2 claim at unit-test scale."""
        with_drone = build_usecase(UsecaseConfig(seed=11, drone_enabled=True))
        without = build_usecase(UsecaseConfig(seed=11, drone_enabled=False))
        r_with = with_drone.run_episode()
        r_without = without.run_episode()
        assert r_with.detected
        if r_without.detected:
            assert r_with.detection_time_s < r_without.detection_time_s
            assert r_with.detection_distance_m > r_without.detection_distance_m

    def test_drone_sources_contribute(self):
        usecase = build_usecase(UsecaseConfig(seed=12, drone_enabled=True))
        result = usecase.run_episode()
        assert "cam-drone" in result.sources

    def test_episode_reports_min_separation(self):
        usecase = build_usecase(UsecaseConfig(seed=13))
        result = usecase.run_episode()
        assert result.min_separation_m < 80.0


class TestCampaigns:
    def test_all_builders_construct(self):
        for name in CAMPAIGN_BUILDERS:
            scenario = build_worksite(ScenarioConfig(seed=1))
            campaign = build_campaign(name, scenario)
            assert campaign.steps
            campaign.arm()

    def test_unknown_campaign_rejected(self):
        scenario = build_worksite(ScenarioConfig(seed=1))
        with pytest.raises(KeyError, match="unknown campaign"):
            build_campaign("zero_day", scenario)

    def test_jamming_campaign_degrades_delivery(self):
        benign = build_worksite(ScenarioConfig(seed=3))
        benign.run(900.0)

        attacked = build_worksite(ScenarioConfig(seed=3))
        campaign = build_campaign("rf_jamming", attacked, start=100.0,
                                  duration=600.0)
        campaign.arm()
        attacked.run(900.0)
        assert attacked.medium.delivery_ratio < benign.medium.delivery_ratio

    def test_injection_campaign_detected_by_ids(self):
        scenario = build_worksite(ScenarioConfig(seed=4))
        campaign = build_campaign("message_injection", scenario, start=120.0,
                                  duration=300.0)
        campaign.arm()
        scenario.run(600.0)
        score = scenario.ids_manager.score(
            campaign.ground_truth_windows(), horizon_s=600.0
        )
        assert score.coverage == 1.0
