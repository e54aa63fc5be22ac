"""Unit tests for evidence registry, compliance mapping, SAC builder, export."""

import pytest

from repro.assurance.compliance import ComplianceMapping
from repro.assurance.evidence import Evidence, EvidenceRegistry, EvidenceStatus
from repro.assurance.export import render_gsn_dot, render_gsn_text, render_markdown
from repro.assurance.sac import SacBuilder
from repro.core.methodology import CombinedAssessment
from repro.safety.hazards import HazardCatalog
from repro.scenarios.worksite import (
    worksite_item_model,
    worksite_safety_designs,
)
from repro.sos.zones import worksite_zone_model


class TestEvidence:
    def test_lifecycle(self):
        item = Evidence("e1", "test_result", "x", "E-F2",
                        produced_at=0.0, valid_for_s=100.0)
        assert item.status(50.0) is EvidenceStatus.CURRENT
        assert item.status(150.0) is EvidenceStatus.STALE
        item.revoked = True
        assert item.status(50.0) is EvidenceStatus.REVOKED

    def test_no_expiry(self):
        item = Evidence("e1", "analysis", "x", "src")
        assert item.status(1e12) is EvidenceStatus.CURRENT

    def test_registry_duplicate_rejected(self):
        registry = EvidenceRegistry()
        registry.add(Evidence("e1", "t", "d", "s"))
        with pytest.raises(KeyError):
            registry.add(Evidence("e1", "t", "d", "s"))

    def test_coverage_of(self):
        registry = EvidenceRegistry()
        registry.add(Evidence("e1", "t", "d", "s"))
        registry.add(Evidence("e2", "t", "d", "s", valid_for_s=1.0))
        assert registry.coverage_of(["e1", "e2"], now=0.5) == 1.0
        assert registry.coverage_of(["e1", "e2"], now=10.0) == 0.5
        assert registry.coverage_of(["e1", "ghost"], now=0.0) == 0.5
        assert registry.coverage_of([], now=0.0) == 1.0

    def test_missing(self):
        registry = EvidenceRegistry()
        registry.add(Evidence("e1", "t", "d", "s"))
        assert registry.missing(["e1", "e2"]) == ["e2"]


class TestCompliance:
    def test_default_requirements_load(self):
        mapping = ComplianceMapping()
        assert len(mapping.requirements) == 11
        assert mapping.coverage() == 0.0

    def test_work_product_satisfies_matching(self):
        mapping = ComplianceMapping()
        matched = mapping.record_work_product("tara", "ev-tara")
        assert "ISO21434-15" in matched
        assert mapping.status_of("ISO21434-15").satisfied
        assert "ev-tara" in mapping.status_of("ISO21434-15").evidence_keys

    def test_full_work_products_reach_full_coverage(self):
        mapping = ComplianceMapping()
        for wp in ("tara", "treatment", "zone_assessment", "interplay",
                   "sotif", "pl_evaluation", "experiment", "sac"):
            mapping.record_work_product(wp)
        assert mapping.coverage() == 1.0
        assert mapping.unsatisfied() == []

    def test_unsatisfied_listing(self):
        mapping = ComplianceMapping()
        mapping.record_work_product("tara")
        missing = {r.requirement_id for r in mapping.unsatisfied()}
        assert "ISO13849-4.5" in missing


@pytest.fixture
def combined_result():
    designs = worksite_safety_designs()
    item = worksite_item_model()
    assessment = CombinedAssessment(
        item, HazardCatalog(), designs, worksite_zone_model()
    )
    return item, assessment.run()


class TestSacBuilder:
    def _registry(self, result):
        registry = EvidenceRegistry()
        registry.add(Evidence("ev-tara", "analysis", "TARA output", "E-T1"))
        registry.add(Evidence("ev-interplay", "analysis", "interplay", "E-S4B"))
        return registry

    def test_build_structurally_sound(self, combined_result):
        item, result = combined_result
        registry = self._registry(result)
        compliance = ComplianceMapping()
        compliance.record_work_product("tara", "ev-tara")
        builder = SacBuilder(item, registry, compliance)
        graph = builder.build(
            result,
            evidence_by_threat={
                a.threat_id: ["ev-tara"] for a in result.tara.assessments
            },
            interplay_evidence="ev-interplay",
        )
        report = builder.report(graph)
        assert report.structural_findings == []
        assert report.evidence_coverage == 1.0
        assert report.goals > len(item.assets)

    def test_missing_evidence_leaves_undeveloped_goals(self, combined_result):
        item, result = combined_result
        builder = SacBuilder(item, EvidenceRegistry())
        graph = builder.build(result)  # no evidence at all
        report = builder.report(graph)
        assert report.undeveloped_goals > 0
        assert not report.complete

    def test_full_evidence_case_is_complete_modulo_compliance(self, combined_result):
        item, result = combined_result
        registry = self._registry(result)
        compliance = ComplianceMapping()
        for wp in ("tara", "treatment", "zone_assessment", "interplay",
                   "sotif", "pl_evaluation", "experiment", "sac"):
            compliance.record_work_product(wp, "ev-tara")
        builder = SacBuilder(item, registry, compliance)
        graph = builder.build(
            result,
            evidence_by_threat={
                a.threat_id: ["ev-tara"] for a in result.tara.assessments
            },
            interplay_evidence="ev-interplay",
        )
        report = builder.report(graph)
        assert report.compliance_coverage == 1.0
        assert report.undeveloped_goals == 0
        assert report.complete

    def test_every_asset_argued(self, combined_result):
        item, result = combined_result
        builder = SacBuilder(item, EvidenceRegistry())
        graph = builder.build(result)
        for asset in item.assets:
            assert f"G-{asset.asset_id}" in graph.elements


class TestExport:
    def _graph(self, combined_result):
        item, result = combined_result
        registry = EvidenceRegistry()
        registry.add(Evidence("ev-tara", "analysis", "x", "s"))
        builder = SacBuilder(item, registry)
        return builder.build(result, interplay_evidence="ev-tara")

    def test_text_render_contains_root(self, combined_result):
        graph = self._graph(combined_result)
        text = render_gsn_text(graph)
        assert "G-top" in text
        assert "[GOAL]" in text

    def test_dot_render_is_valid_digraph(self, combined_result):
        graph = self._graph(combined_result)
        dot = render_gsn_dot(graph)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"G-top"' in dot

    def test_markdown_render(self, combined_result):
        graph = self._graph(combined_result)
        md = render_markdown(graph)
        assert md.startswith("# Security Assurance Case")
        assert "**Goal G-top**" in md
        gsn, cae = md.split("\n## Claim-Argument-Evidence view\n")
        assert cae.startswith("\n- **Claim G-top**")
        assert "**Argument S-assets**" in cae
