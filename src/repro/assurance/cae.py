"""Claim-Argument-Evidence (CAE) trees.

The Adelard notation the paper cites as the GSN alternative: *claims* are
supported by *arguments* which are backed by sub-claims or *evidence*.
Conversion to/from GSN is provided so the SAC builder can emit either.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.assurance.gsn import GsnElement, GsnGraph, GsnKind


class CaeKind(enum.Enum):
    """CAE node kinds."""

    CLAIM = "claim"
    ARGUMENT = "argument"
    EVIDENCE = "evidence"


class CaeError(ValueError):
    """Raised on structural violations."""


@dataclass
class CaeNode:
    """One CAE node."""

    node_id: str
    kind: CaeKind
    text: str
    evidence_ref: Optional[str] = None
    children: List["CaeNode"] = field(default_factory=list)

    def add(self, child: "CaeNode") -> "CaeNode":
        """Attach a child, enforcing the CAE grammar."""
        if self.kind is CaeKind.CLAIM and child.kind is CaeKind.EVIDENCE:
            raise CaeError("a claim must be supported through an argument")
        if self.kind is CaeKind.ARGUMENT and child.kind is CaeKind.ARGUMENT:
            raise CaeError("an argument cannot directly support an argument")
        if self.kind is CaeKind.EVIDENCE:
            raise CaeError("evidence nodes are leaves")
        self.children.append(child)
        return child


class CaeTree:
    """A CAE structure rooted at a top claim."""

    def __init__(self, root: CaeNode) -> None:
        if root.kind is not CaeKind.CLAIM:
            raise CaeError("the root must be a claim")
        self.root = root

    def nodes(self) -> List[CaeNode]:
        found: List[CaeNode] = []

        def walk(node: CaeNode) -> None:
            found.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return found

    def claims(self) -> List[CaeNode]:
        return [n for n in self.nodes() if n.kind is CaeKind.CLAIM]

    def evidence(self) -> List[CaeNode]:
        return [n for n in self.nodes() if n.kind is CaeKind.EVIDENCE]

    def check(self) -> List[str]:
        """Structural findings (empty = well-formed)."""
        findings = []
        ids = set()
        for node in self.nodes():
            if node.node_id in ids:
                findings.append(f"duplicate node id {node.node_id}")
            ids.add(node.node_id)
            if node.kind is CaeKind.CLAIM and not node.children:
                findings.append(f"claim {node.node_id} is unsupported")
            if node.kind is CaeKind.ARGUMENT and not node.children:
                findings.append(f"argument {node.node_id} is empty")
            if node.kind is CaeKind.EVIDENCE and node.evidence_ref is None:
                findings.append(f"evidence {node.node_id} has no registry reference")
        return findings

    # -- GSN conversion -----------------------------------------------------------
    def to_gsn(self) -> GsnGraph:
        """Translate claims→goals, arguments→strategies, evidence→solutions."""
        kind_map = {
            CaeKind.CLAIM: GsnKind.GOAL,
            CaeKind.ARGUMENT: GsnKind.STRATEGY,
            CaeKind.EVIDENCE: GsnKind.SOLUTION,
        }
        graph = GsnGraph(
            GsnElement(self.root.node_id, GsnKind.GOAL, self.root.text)
        )

        def walk(node: CaeNode) -> None:
            for child in node.children:
                graph.add(
                    GsnElement(
                        child.node_id,
                        kind_map[child.kind],
                        child.text,
                        evidence_ref=child.evidence_ref,
                    )
                )
                graph.supported_by(node.node_id, child.node_id)
                walk(child)

        walk(self.root)
        return graph

    @staticmethod
    def from_gsn(graph: GsnGraph) -> "CaeTree":
        """Translate a GSN graph back into CAE (contexts are dropped)."""
        kind_map = {
            GsnKind.GOAL: CaeKind.CLAIM,
            GsnKind.STRATEGY: CaeKind.ARGUMENT,
            GsnKind.SOLUTION: CaeKind.EVIDENCE,
        }
        root_element = graph.elements[graph.root_id]
        root = CaeNode(root_element.element_id, CaeKind.CLAIM, root_element.statement)

        def walk(parent: CaeNode, element_id: str) -> None:
            for child in graph.children(element_id):
                if child.kind not in kind_map:
                    continue
                node = CaeNode(
                    child.element_id,
                    kind_map[child.kind],
                    child.statement,
                    evidence_ref=child.evidence_ref,
                )
                parent.children.append(node)
                walk(node, child.element_id)

        walk(root, graph.root_id)
        return CaeTree(root)
