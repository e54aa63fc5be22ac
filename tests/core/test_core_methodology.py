"""Unit tests for the combined methodology: characteristics, interplay,
the orchestrator, knowledge transfer and the SoS assessment."""

import pytest

from repro.core.characteristics import (
    characteristic_catalog,
    combined_modifiers,
)
from repro.core.interplay import InterplayAnalysis, worksite_links
from repro.core.knowledge_transfer import (
    KnowledgeTransfer,
    automotive_catalog,
    mining_catalog,
)
from repro.core.methodology import CombinedAssessment
from repro.core.sos_assessment import SosAssessment
from repro.risk.feasibility import FeasibilityRating
from repro.risk.tara import Tara
from repro.safety.hazards import HazardCatalog
from repro.scenarios.worksite import (
    worksite_item_model,
    worksite_safety_designs,
)
from repro.sos.composition import worksite_sos
from repro.sos.zones import worksite_zone_model


@pytest.fixture
def item():
    return worksite_item_model()


@pytest.fixture
def designs():
    return worksite_safety_designs()


class TestCharacteristics:
    def test_catalog_matches_table_one(self):
        catalog = characteristic_catalog()
        assert len(catalog) == 8
        keys = {c.key for c in catalog}
        assert "remote_isolated" in keys
        assert "heavy_machinery" in keys

    def test_each_characteristic_moves_the_assessment(self, item):
        """The executable form of Table I's claim: every characteristic
        changes risk values relative to the context-free baseline."""
        baseline = Tara(item).assess()
        base_risks = {a.threat_id: a.risk_value for a in baseline.assessments}
        for characteristic in characteristic_catalog():
            modifiers = combined_modifiers([characteristic])
            modified = Tara(
                item,
                feasibility_modifier=modifiers.feasibility,
                impact_modifier=modifiers.impact,
            ).assess()
            changed = [
                a for a in modified.assessments
                if a.risk_value != base_risks[a.threat_id]
            ]
            assert changed, f"{characteristic.key} had no effect on any threat"

    def test_characteristics_never_lower_impact_driven_risk(self, item):
        baseline = Tara(item).assess()
        base = {a.threat_id: a.risk_value for a in baseline.assessments}
        heavy = [c for c in characteristic_catalog() if c.key == "heavy_machinery"]
        modifiers = combined_modifiers(heavy)
        modified = Tara(item, impact_modifier=modifiers.impact).assess()
        for a in modified.assessments:
            assert a.risk_value >= base[a.threat_id]

    def test_combined_modifiers_compose(self, item):
        catalog = characteristic_catalog()
        modifiers = combined_modifiers(catalog)
        assert modifiers.feasibility is not None
        assert modifiers.impact is not None
        result = Tara(
            item,
            feasibility_modifier=modifiers.feasibility,
            impact_modifier=modifiers.impact,
        ).assess()
        assert result.max_risk() == 5


class TestInterplay:
    def test_feasible_attacks_produce_findings(self, item, designs):
        tara = Tara(item).assess()
        analysis = InterplayAnalysis(HazardCatalog(), designs)
        findings = analysis.evaluate(tara)
        assert findings
        assert any(f.assurance_gap for f in findings)

    def test_defeat_effect_voids_achieved_pl(self, item, designs):
        tara = Tara(item).assess()
        analysis = InterplayAnalysis(HazardCatalog(), designs)
        findings = analysis.evaluate(tara)
        hijack = [f for f in findings if f.attack_type == "camera_hijack"]
        if hijack:  # feasibility-gated
            assert all(f.achieved_pl_under_attack is None for f in hijack)

    def test_channel_loss_downgrades_category(self, item, designs):
        tara = Tara(item).assess()
        analysis = InterplayAnalysis(HazardCatalog(), designs)
        findings = analysis.evaluate(tara)
        jam = [f for f in findings if f.attack_type == "rf_jamming"]
        assert jam
        for finding in jam:
            if finding.achieved_pl_under_attack is not None:
                assert finding.achieved_pl_under_attack < finding.achieved_pl_nominal

    def test_infeasible_attacks_filtered(self, item, designs):
        tara = Tara(item).assess()
        analysis = InterplayAnalysis(
            HazardCatalog(), designs,
            min_feasibility=FeasibilityRating.HIGH,
        )
        strict = analysis.evaluate(tara)
        loose = InterplayAnalysis(
            HazardCatalog(), designs,
            min_feasibility=FeasibilityRating.VERY_LOW,
        ).evaluate(tara)
        assert len(strict) <= len(loose)

    def test_worksite_links_reference_known_functions(self, designs):
        functions = set(designs)
        for link in worksite_links():
            assert link.safety_function in functions


class TestCombinedAssessment:
    def _run(self, item, designs, **kwargs):
        return CombinedAssessment(
            item, HazardCatalog(), designs, worksite_zone_model(), **kwargs
        ).run()

    def test_full_flow_produces_all_work_products(self, item, designs):
        result = self._run(item, designs)
        assert result.tara.assessments
        assert result.treatment.treatments
        assert result.safety.achieved
        assert result.interplay_findings
        assert result.zone_report
        assert result.zone_total_gap >= 0

    def test_interplay_gaps_force_treatment(self, item, designs):
        # generous acceptance threshold would retain everything; the sync
        # point must override retains on gap-coupled threats
        result = self._run(item, designs, acceptance_threshold=5)
        if result.interplay_gaps:
            assert result.mandatory_interplay_treatments
            forced = {t.threat_id: t for t in result.treatment.treatments}
            for threat_id in result.mandatory_interplay_treatments:
                assert forced[threat_id].decision.value == "reduce"

    def test_zone_targets_escalated_by_safety_risk(self, item, designs):
        result = self._run(item, designs)
        hot = [a for a in result.tara.assessments
               if a.safety_coupled and a.risk_value >= 4]
        if hot:
            report = result.zone_report["zone:safety-control"]
            assert report["sl_target"]["FR3"] >= 3
            assert report["sl_target"]["FR6"] >= 3

    def test_deployed_measures_lower_risk_profile(self, item, designs):
        bare = self._run(item, designs)
        hardened = self._run(
            item, designs,
            deployed_measures=["secure_channel_aead", "pki_mutual_auth",
                               "gnss_plausibility", "camera_redundancy",
                               "protected_management_frames"],
        )
        assert hardened.tara.mean_risk() < bare.tara.mean_risk()

    def test_separate_verdict_misses_exist_on_lenient_baseline(self, item, designs):
        """The paper's core argument: separate assessments miss interplay
        risk.  With a typical acceptance threshold, at least one gap finding
        is invisible to both separate tracks."""
        result = self._run(item, designs, acceptance_threshold=3)
        # every miss is a genuine gap with a standalone-fine safety function
        for miss in result.separate_verdict_misses():
            assert miss.assurance_gap
            assert miss.hazard_id not in result.safety.shortfalls


class TestKnowledgeTransfer:
    def test_coverage_complete_with_all_domains(self, item):
        report = KnowledgeTransfer().transfer(item)
        assert report.coverage() == 1.0
        assert report.uncovered == set()

    def test_single_domain_is_incomplete(self, item):
        mining_only = KnowledgeTransfer([mining_catalog()]).transfer(item)
        assert mining_only.coverage() < 1.0
        assert mining_only.uncovered

    def test_context_filters_inapplicable_entries(self, item):
        report = KnowledgeTransfer().transfer(item)
        # automotive V2I entry needs urban infrastructure: rejected
        assert "AUT-07" in report.rejected["automotive"]
        # mining dense-fleet channel entry: rejected
        assert "MIN-07" in report.rejected["mining"]

    def test_mitigation_suggestions_reference_catalog(self, item):
        from repro.defense.countermeasures import CountermeasureCatalog

        catalog = CountermeasureCatalog()
        report = KnowledgeTransfer().transfer(item)
        for attack_type, measures in report.mitigation_suggestions.items():
            for measure in measures:
                catalog.get(measure)  # raises KeyError if unknown

    def test_domains_overlap_but_differ(self, item):
        report = KnowledgeTransfer().transfer(item)
        mining = set(report.transferred["mining"])
        automotive = set(report.transferred["automotive"])
        assert mining & automotive  # shared (GNSS)
        assert mining - automotive or automotive - mining


class TestSosAssessment:
    def test_reach_amplification(self, item):
        tara = Tara(item).assess()
        result = SosAssessment(worksite_sos(), item).assess(tara)
        assert result.mean_sos_risk() >= result.mean_standalone_risk()
        assert result.sos_uplift() >= 0.0

    def test_hub_threats_amplified(self, item):
        tara = Tara(item).assess()
        result = SosAssessment(worksite_sos(), item).assess(tara)
        amplified = result.amplified_threats()
        # control-station assets reach most of the SoS
        if amplified:
            assert all(v.reach >= 2 for v in amplified)

    def test_threat_views_cover_all_assessments(self, item):
        tara = Tara(item).assess()
        result = SosAssessment(worksite_sos(), item).assess(tara)
        assert len(result.threat_views) == len(tara.assessments)
