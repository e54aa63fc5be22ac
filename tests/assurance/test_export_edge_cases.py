"""Edge-case tests for assurance-case export and shared sub-arguments."""

from repro.assurance.export import render_gsn_dot, render_gsn_text, render_markdown
from repro.assurance.gsn import GsnElement, GsnGraph, GsnKind


def diamond_graph():
    """Two goals sharing one supporting sub-goal (a DAG, not a tree)."""
    graph = GsnGraph(GsnElement("G-top", GsnKind.GOAL, "top"))
    graph.add(GsnElement("G-a", GsnKind.GOAL, "left claim"))
    graph.add(GsnElement("G-b", GsnKind.GOAL, "right claim"))
    graph.add(GsnElement("G-shared", GsnKind.GOAL, "shared sub-claim"))
    graph.add(GsnElement("Sn-1", GsnKind.SOLUTION, "evidence", evidence_ref="ev"))
    graph.supported_by("G-top", "G-a")
    graph.supported_by("G-top", "G-b")
    graph.supported_by("G-a", "G-shared")
    graph.supported_by("G-b", "G-shared")
    graph.supported_by("G-shared", "Sn-1")
    return graph


class TestDiamond:
    def test_diamond_is_well_formed(self):
        graph = diamond_graph()
        assert graph.check() == []
        assert graph.coverage() == 1.0

    def test_text_render_marks_revisit(self):
        text = render_gsn_text(diamond_graph())
        assert text.count("G-shared") >= 2
        assert "(see above)" in text

    def test_markdown_render_terminates(self):
        md = render_markdown(diamond_graph())
        assert md.count("G-shared") >= 2

    def test_dot_lists_each_edge_once(self):
        dot = render_gsn_dot(diamond_graph())
        assert dot.count('"G-a" -> "G-shared"') == 1
        assert dot.count('"G-b" -> "G-shared"') == 1


class TestRenderDetails:
    def test_long_statement_truncated(self):
        graph = GsnGraph(GsnElement("G", GsnKind.GOAL, "x" * 500,
                                    undeveloped=True))
        text = render_gsn_text(graph, max_width=80)
        assert "..." in text
        assert max(len(line) for line in text.splitlines()) < 200

    def test_dot_escapes_quotes(self):
        graph = GsnGraph(GsnElement("G", GsnKind.GOAL, 'claim with "quotes"',
                                    undeveloped=True))
        dot = render_gsn_dot(graph)
        assert '\\"' not in dot  # replaced with single quotes, not escaped
        assert "'quotes'" in dot

    def test_markdown_cae_view_drops_contexts(self):
        graph = diamond_graph()
        graph.add(GsnElement("C-1", GsnKind.CONTEXT, "operating context"))
        graph.in_context_of("G-top", "C-1")
        md = render_markdown(graph)
        cae = md.split("## Claim-Argument-Evidence view")[1]
        assert "C-1" not in cae
        assert cae.count("**Claim G-shared**") == 2  # once under each parent
        assert cae.count("**Evidence Sn-1**") == 2

    def test_undeveloped_marker_in_text(self):
        graph = GsnGraph(GsnElement("G", GsnKind.GOAL, "g", undeveloped=True))
        assert "(undeveloped)" in render_gsn_text(graph)
        assert "*(undeveloped)*" in render_markdown(graph)
