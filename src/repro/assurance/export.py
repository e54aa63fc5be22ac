"""Rendering assurance cases: indented text, Graphviz DOT, Markdown."""

from __future__ import annotations

from typing import List, Set

from repro.assurance.cae import CaeNode, CaeTree
from repro.assurance.gsn import GsnGraph, GsnKind

_PREFIX = {
    GsnKind.GOAL: "G",
    GsnKind.STRATEGY: "S",
    GsnKind.SOLUTION: "Sn",
    GsnKind.CONTEXT: "C",
    GsnKind.ASSUMPTION: "A",
    GsnKind.JUSTIFICATION: "J",
}

_DOT_SHAPE = {
    GsnKind.GOAL: "box",
    GsnKind.STRATEGY: "parallelogram",
    GsnKind.SOLUTION: "circle",
    GsnKind.CONTEXT: "oval",
    GsnKind.ASSUMPTION: "oval",
    GsnKind.JUSTIFICATION: "oval",
}


def render_gsn_text(graph: GsnGraph, *, max_width: int = 100) -> str:
    """Indented plain-text rendering of the argument tree."""
    lines: List[str] = []
    seen: Set[str] = set()

    def walk(element_id: str, depth: int) -> None:
        element = graph.elements[element_id]
        marker = "(undeveloped) " if element.undeveloped else ""
        statement = element.statement
        budget = max_width - 2 * depth - 12
        if len(statement) > budget > 10:
            statement = statement[: budget - 3] + "..."
        lines.append(
            f"{'  ' * depth}[{element.kind.value.upper()}] {element_id}: "
            f"{marker}{statement}"
        )
        for context in graph.contexts(element_id):
            lines.append(
                f"{'  ' * (depth + 1)}({context.kind.value}) {context.statement[:budget]}"
            )
        if element_id in seen:
            lines.append(f"{'  ' * (depth + 1)}(see above)")
            return
        seen.add(element_id)
        for child in graph.children(element_id):
            walk(child.element_id, depth + 1)

    walk(graph.root_id, 0)
    return "\n".join(lines)


def render_gsn_dot(graph: GsnGraph) -> str:
    """Graphviz DOT output following GSN shape conventions."""
    lines = ["digraph sac {", "  rankdir=TB;", "  node [fontsize=9];"]
    for element in graph.elements.values():
        label = element.statement.replace('"', "'")
        if len(label) > 60:
            label = label[:57] + "..."
        shape = _DOT_SHAPE[element.kind]
        lines.append(
            f'  "{element.element_id}" [shape={shape} label="{element.element_id}\\n{label}"];'
        )
    for parent_id in graph.elements:
        for child in graph.children(parent_id):
            lines.append(f'  "{parent_id}" -> "{child.element_id}";')
        for context in graph.contexts(parent_id):
            lines.append(
                f'  "{parent_id}" -> "{context.element_id}" [style=dashed arrowhead=none];'
            )
    lines.append("}")
    return "\n".join(lines)


def render_markdown(graph: GsnGraph) -> str:
    """Nested-list Markdown rendering: the GSN argument, then the same case
    as a Claim-Argument-Evidence tree (§V names both notations).  The CAE
    view drops the contextual elements and repeats a shared sub-argument
    under each of its parents."""
    lines: List[str] = ["# Security Assurance Case", ""]
    seen: Set[str] = set()

    def walk(element_id: str, depth: int) -> None:
        element = graph.elements[element_id]
        bullet = "  " * depth + "-"
        kind = element.kind.value.capitalize()
        suffix = " *(undeveloped)*" if element.undeveloped else ""
        lines.append(f"{bullet} **{kind} {element_id}**: {element.statement}{suffix}")
        if element_id in seen:
            return
        seen.add(element_id)
        for child in graph.children(element_id):
            walk(child.element_id, depth + 1)

    walk(graph.root_id, 0)
    lines += ["", "## Claim-Argument-Evidence view", ""]

    def walk_cae(node: CaeNode, depth: int) -> None:
        kind = node.kind.value.capitalize()
        lines.append(f"{'  ' * depth}- **{kind} {node.node_id}**: {node.text}")
        for child in node.children:
            walk_cae(child, depth + 1)

    walk_cae(CaeTree.from_gsn(graph).root, 0)
    return "\n".join(lines)
