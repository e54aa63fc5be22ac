"""Unit tests for IEC 62443 zones and conduits."""

import pytest

from repro.defense.countermeasures import CountermeasureCatalog
from repro.risk.iec62443 import (
    Conduit,
    FOUNDATIONAL_REQUIREMENTS,
    SecurityLevel,
    Zone,
    ZoneModel,
    ZoneModelError,
    sl_vector,
)


class TestSlVector:
    def test_defaults_to_sl0(self):
        vector = sl_vector()
        assert all(v is SecurityLevel.SL0 for v in vector.values())
        assert set(vector) == set(FOUNDATIONAL_REQUIREMENTS)

    def test_partial_specification(self):
        vector = sl_vector(FR1=2, FR6=3)
        assert vector["FR1"] is SecurityLevel.SL2
        assert vector["FR6"] is SecurityLevel.SL3
        assert vector["FR4"] is SecurityLevel.SL0

    def test_unknown_fr_rejected(self):
        with pytest.raises(KeyError):
            sl_vector(FR9=1)


class TestZone:
    def test_sl_achieved_from_measures(self):
        catalog = CountermeasureCatalog()
        zone = Zone("z", sl_target=sl_vector(FR1=3),
                    deployed_measures=["pki_mutual_auth"])
        achieved = zone.sl_achieved(catalog)
        assert achieved["FR1"] is SecurityLevel.SL3

    def test_gap_analysis(self):
        catalog = CountermeasureCatalog()
        zone = Zone("z", sl_target=sl_vector(FR1=3, FR6=2))
        gaps = zone.gaps(catalog)
        assert gaps == {"FR1": 3, "FR6": 2}
        assert not zone.compliant(catalog)
        zone.deployed_measures = ["pki_mutual_auth", "signature_ids"]
        assert zone.compliant(catalog)

    def test_safety_zone_requires_fr3_fr6(self):
        model = ZoneModel()
        with pytest.raises(ZoneModelError, match="SL-T >= 2"):
            model.add_zone(Zone("s", safety_related=True,
                                sl_target=sl_vector(FR3=1, FR6=3)))

    def test_duplicate_zone_rejected(self):
        model = ZoneModel()
        model.add_zone(Zone("z"))
        with pytest.raises(ZoneModelError):
            model.add_zone(Zone("z"))

    def test_conduit_endpoints_must_exist(self):
        model = ZoneModel()
        model.add_zone(Zone("a"))
        with pytest.raises(ZoneModelError):
            model.add_conduit(Conduit("c", zone_a="a", zone_b="ghost"))

    def test_assessment_report_shape(self):
        model = ZoneModel()
        model.add_zone(Zone("a", sl_target=sl_vector(FR1=1)))
        model.add_zone(Zone("b"))
        model.add_conduit(Conduit("c", zone_a="a", zone_b="b"))
        report = model.assessment()
        assert set(report) == {"zone:a", "zone:b", "conduit:c"}
        assert "gaps" in report["zone:a"]

    def test_total_gap_sums(self):
        model = ZoneModel()
        model.add_zone(Zone("a", sl_target=sl_vector(FR1=2, FR2=1)))
        assert model.total_gap() == 3

    def test_zone_of_system(self):
        model = ZoneModel()
        model.add_zone(Zone("a", systems=["fwd"]))
        assert model.zone_of_system("fwd").name == "a"
        assert model.zone_of_system("ghost") is None
