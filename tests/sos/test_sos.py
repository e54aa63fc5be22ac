"""Unit tests for the SoS layer: composition, independence, emergence, zones."""

import pytest

from repro.sim.events import EventCategory, EventLog
from repro.sos.composition import (
    ConstituentSystem,
    Interface,
    SystemOfSystems,
    worksite_sos,
)
from repro.sos.emergence import EmergenceDetector
from repro.sos.independence import independence_report
from repro.sos.zones import worksite_zone_model


def _system(name, operator="op", autonomy="manual", safety=False, cadence=30.0,
            location="site"):
    return ConstituentSystem(
        name=name, operator=operator, vendor="v", security_policy="p",
        update_cadence_days=cadence, location=location, autonomy=autonomy,
        safety_critical=safety,
    )


class TestComposition:
    def test_worksite_sos_builds(self):
        sos = worksite_sos()
        assert len(sos.systems) == 5
        assert len(sos.interfaces) == 7

    def test_duplicate_system_rejected(self):
        sos = SystemOfSystems("s")
        sos.add_system(_system("a"))
        with pytest.raises(ValueError):
            sos.add_system(_system("a"))

    def test_interface_endpoint_validation(self):
        sos = SystemOfSystems("s")
        sos.add_system(_system("a"))
        with pytest.raises(ValueError):
            sos.add_interface(Interface("i", provider="a", consumer="ghost",
                                        service="x"))

    def test_dependents_transitive(self):
        sos = SystemOfSystems("s")
        for name in ("a", "b", "c"):
            sos.add_system(_system(name))
        sos.add_interface(Interface("i1", "a", "b", "x"))
        sos.add_interface(Interface("i2", "b", "c", "x"))
        assert sos.dependents_of("a") == {"b", "c"}
        assert sos.dependents_of("c") == set()

    def test_spof_requires_critical_chain(self):
        sos = SystemOfSystems("s")
        sos.add_system(_system("provider"))
        sos.add_system(_system("safety-sys", safety=True))
        sos.add_interface(Interface("i", "provider", "safety-sys", "telemetry",
                                    criticality="low"))
        assert "provider" not in sos.single_points_of_failure()
        sos.add_interface(Interface("i2", "provider", "safety-sys", "detections",
                                    criticality="safety"))
        assert "provider" in sos.single_points_of_failure()

    def test_worksite_cycle_excludes_the_start(self):
        # control_station <-> fleet_cloud is a cycle: the walk still leaves
        # the starting system out of its own dependents
        sos = worksite_sos()
        assert sos.dependents_of("control_station") == {"fleet_cloud",
                                                        "forwarder"}
        assert sos.dependents_of("fleet_cloud") == {"control_station",
                                                    "forwarder"}
        assert sos.single_points_of_failure() == ["drone", "control_station"]

    def test_worksite_spofs_are_the_safety_providers(self):
        spofs = set(worksite_sos().single_points_of_failure())
        assert {"drone", "control_station"} <= spofs
        assert "fleet_cloud" not in spofs
        assert "harvester" not in spofs

    def test_cross_operator_interfaces(self):
        sos = worksite_sos()
        crossing = sos.cross_operator_interfaces()
        assert any(i.name == "drone-detections" for i in crossing)

    def test_compromise_reach(self):
        sos = worksite_sos()
        reach = sos.compromise_reach("control_station")
        assert "forwarder" in reach
        assert "control_station" in reach


class TestIndependence:
    def test_homogeneous_sos_scores_zero_management(self):
        sos = SystemOfSystems("s")
        for name in ("a", "b", "c"):
            sos.add_system(_system(name, operator="same"))
        report = independence_report(sos)
        assert report.management_independence == 0.0

    def test_heterogeneous_sos_scores_high(self):
        sos = SystemOfSystems("s")
        for i, name in enumerate(("a", "b", "c")):
            sos.add_system(_system(name, operator=f"op{i}", location=f"loc{i}"))
        report = independence_report(sos)
        assert report.management_independence == 1.0
        assert report.geographic_distribution == 1.0

    def test_operational_independence_counts_autonomy(self):
        sos = SystemOfSystems("s")
        sos.add_system(_system("a", autonomy="autonomous"))
        sos.add_system(_system("b", autonomy="manual"))
        report = independence_report(sos)
        assert report.operational_independence == 0.5

    def test_evolutionary_divergence_from_cadence_spread(self):
        uniform = SystemOfSystems("u")
        for name in ("a", "b"):
            uniform.add_system(_system(name, cadence=30.0))
        diverse = SystemOfSystems("d")
        diverse.add_system(_system("a", cadence=7.0))
        diverse.add_system(_system("b", cadence=365.0))
        assert independence_report(uniform).evolutionary_divergence == 0.0
        assert independence_report(diverse).evolutionary_divergence > 0.5

    def test_complexity_index_bounded(self):
        report = independence_report(worksite_sos())
        assert 0.0 <= report.complexity_index() <= 1.0

    def test_empty_sos_rejected(self):
        with pytest.raises(ValueError):
            independence_report(SystemOfSystems("empty"))


class TestEmergence:
    def _burst(self, log, start, sources, kinds):
        for i, (src, kind) in enumerate(zip(sources, kinds)):
            log.emit(start + i * 0.5, EventCategory.SECURITY, kind, src)

    def test_quiet_log_no_interactions(self):
        log = EventLog()
        for t in range(0, 1000, 100):
            log.emit(float(t), EventCategory.COMMS, "frame_lost", "forwarder.radio")
        detector = EmergenceDetector()
        assert detector.detect(log, 1000.0) == []

    def test_cross_system_cascade_detected(self):
        log = EventLog()
        # sparse background
        for t in range(0, 1000, 200):
            log.emit(float(t), EventCategory.COMMS, "frame_lost", "forwarder.radio")
        # dense cross-system burst at t=500
        sources = ["forwarder.radio", "drone.cam", "control.ids",
                   "forwarder.safety", "drone.link", "control.hb"]
        kinds = ["frame_lost", "ids_alert", "ids_alert", "safe_stop",
                 "deauthenticated", "heartbeat_lost"]
        self._burst(log, 500.0, sources, kinds)
        detector = EmergenceDetector(min_sources=3, density_threshold=2.0)
        interactions = detector.detect(log, 1000.0)
        assert len(interactions) == 1
        assert interactions[0].safety_relevant  # safe_stop in the cascade
        assert len(interactions[0].sources) >= 3

    def test_single_system_burst_not_emergent(self):
        log = EventLog()
        for t in range(0, 1000, 200):
            log.emit(float(t), EventCategory.COMMS, "frame_lost", "a.radio")
        for i in range(8):
            log.emit(500.0 + i * 0.5, EventCategory.COMMS, "frame_lost", "a.radio")
        detector = EmergenceDetector(min_sources=3)
        assert detector.detect(log, 1000.0) == []

    def test_movement_events_ignored(self):
        log = EventLog()
        for i in range(100):
            log.emit(float(i), EventCategory.MOVEMENT, "step", f"sys{i % 5}.x")
        detector = EmergenceDetector()
        assert detector.detect(log, 100.0) == []


class TestZoneMapping:
    def test_worksite_zone_model_builds(self):
        model = worksite_zone_model()
        assert set(model.zones) == {"safety-control", "supervision",
                                    "enterprise-cloud"}
        assert set(model.conduits) == {"site-radio", "uplink"}

    def test_safety_zone_flag(self):
        model = worksite_zone_model()
        assert model.zones["safety-control"].safety_related

    def test_initial_state_has_gaps(self):
        model = worksite_zone_model()
        assert model.total_gap() > 0

    def test_deployment_closes_gaps(self):
        full = [
            "pki_mutual_auth", "rbac_command_authorization", "secure_channel_aead",
            "protected_management_frames", "signature_ids", "spec_ids",
            "gnss_plausibility", "camera_redundancy", "secure_boot",
            "data_encryption", "channel_agility", "offline_recovery_plan",
        ]
        protected = worksite_zone_model(
            deployed_safety_zone=full, deployed_supervision_zone=full,
            deployed_conduits=full,
        )
        bare = worksite_zone_model()
        assert protected.total_gap() < bare.total_gap()
