"""Goal Structuring Notation (GSN) graphs.

Element kinds follow the GSN community standard: Goal, Strategy, Solution
(evidence), Context, Assumption, Justification; relations are *SupportedBy*
(goal→strategy→goal→solution) and *InContextOf* (to context-type elements).

The well-formedness checker enforces the structural rules the standard
states: goals are supported by strategies or solutions, strategies only by
goals, solutions are leaves, context-type elements take no support, and the
graph below the root must be acyclic and connected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set


class GsnKind(enum.Enum):
    """GSN element kinds."""

    GOAL = "goal"
    STRATEGY = "strategy"
    SOLUTION = "solution"
    CONTEXT = "context"
    ASSUMPTION = "assumption"
    JUSTIFICATION = "justification"


_CONTEXTUAL = {GsnKind.CONTEXT, GsnKind.ASSUMPTION, GsnKind.JUSTIFICATION}


@dataclass
class GsnElement:
    """One GSN element."""

    element_id: str
    kind: GsnKind
    statement: str
    undeveloped: bool = False
    evidence_ref: Optional[str] = None  # Solution -> evidence registry key


class GsnError(ValueError):
    """Raised on structural violations."""


class GsnGraph:
    """A GSN argument structure."""

    def __init__(self, root_goal: GsnElement) -> None:
        if root_goal.kind is not GsnKind.GOAL:
            raise GsnError("the root element must be a Goal")
        self.elements: Dict[str, GsnElement] = {root_goal.element_id: root_goal}
        self.root_id = root_goal.element_id
        self._supported_by: Dict[str, List[str]] = {}
        self._in_context_of: Dict[str, List[str]] = {}

    # -- construction -----------------------------------------------------------
    def add(self, element: GsnElement) -> GsnElement:
        if element.element_id in self.elements:
            raise GsnError(f"duplicate element id {element.element_id!r}")
        self.elements[element.element_id] = element
        return element

    def supported_by(self, parent_id: str, child_id: str) -> None:
        """Add a SupportedBy relation parent → child."""
        parent = self._get(parent_id)
        child = self._get(child_id)
        if parent.kind in _CONTEXTUAL or parent.kind is GsnKind.SOLUTION:
            raise GsnError(f"{parent.kind.value} elements cannot be supported")
        if child.kind in _CONTEXTUAL:
            raise GsnError(
                f"use in_context_of for {child.kind.value} element {child_id!r}"
            )
        if parent.kind is GsnKind.STRATEGY and child.kind not in (
            GsnKind.GOAL, GsnKind.SOLUTION,
        ):
            raise GsnError("a strategy may only be supported by goals or solutions")
        if parent.kind is GsnKind.GOAL and child.kind is GsnKind.GOAL:
            # goal-to-goal support is permitted by the standard
            pass
        self._supported_by.setdefault(parent_id, []).append(child_id)
        if self._creates_cycle():
            self._supported_by[parent_id].remove(child_id)
            raise GsnError(f"relation {parent_id}->{child_id} creates a cycle")

    def in_context_of(self, element_id: str, context_id: str) -> None:
        """Attach a contextual element."""
        self._get(element_id)
        context = self._get(context_id)
        if context.kind not in _CONTEXTUAL:
            raise GsnError(
                f"in_context_of target must be contextual, got {context.kind.value}"
            )
        self._in_context_of.setdefault(element_id, []).append(context_id)

    def _get(self, element_id: str) -> GsnElement:
        try:
            return self.elements[element_id]
        except KeyError:
            raise GsnError(f"unknown element {element_id!r}") from None

    # -- queries ----------------------------------------------------------------
    def children(self, element_id: str) -> List[GsnElement]:
        return [self.elements[c] for c in self._supported_by.get(element_id, ())]

    def contexts(self, element_id: str) -> List[GsnElement]:
        return [self.elements[c] for c in self._in_context_of.get(element_id, ())]

    def goals(self) -> List[GsnElement]:
        return [e for e in self.elements.values() if e.kind is GsnKind.GOAL]

    def solutions(self) -> List[GsnElement]:
        return [e for e in self.elements.values() if e.kind is GsnKind.SOLUTION]

    def undeveloped_goals(self) -> List[GsnElement]:
        """Goals with no support and no 'undeveloped' marker are defects;
        this returns all goals lacking support (marked or not)."""
        found = []
        for element in self.goals():
            if not self._supported_by.get(element.element_id):
                found.append(element)
        return found

    def _creates_cycle(self) -> bool:
        seen: Set[str] = set()
        stack: Set[str] = set()

        def visit(node: str) -> bool:
            if node in stack:
                return True
            if node in seen:
                return False
            seen.add(node)
            stack.add(node)
            for child in self._supported_by.get(node, ()):  # noqa: B020
                if visit(child):
                    return True
            stack.remove(node)
            return False

        return any(visit(node) for node in list(self.elements))

    # -- well-formedness ----------------------------------------------------------
    def check(self) -> List[str]:
        """Structural findings (empty = well-formed and fully developed)."""
        findings: List[str] = []
        reachable = self._reachable()
        for element in self.elements.values():
            eid = element.element_id
            if element.kind is GsnKind.GOAL:
                children = self._supported_by.get(eid, [])
                if not children and not element.undeveloped:
                    findings.append(f"goal {eid} is unsupported and not marked undeveloped")
            if element.kind is GsnKind.STRATEGY:
                children = self._supported_by.get(eid, [])
                if not children and not element.undeveloped:
                    findings.append(f"strategy {eid} has no supporting goals")
            if element.kind is GsnKind.SOLUTION:
                if self._supported_by.get(eid):
                    findings.append(f"solution {eid} must be a leaf")
                if element.evidence_ref is None:
                    findings.append(f"solution {eid} cites no evidence")
            if element.kind in _CONTEXTUAL and self._supported_by.get(eid):
                findings.append(f"contextual element {eid} cannot be supported")
            if eid not in reachable and eid != self.root_id:
                findings.append(f"element {eid} is unreachable from the root")
        return findings

    def _reachable(self) -> Set[str]:
        seen = {self.root_id}
        frontier = [self.root_id]
        while frontier:
            node = frontier.pop()
            for child in self._supported_by.get(node, ()):  # noqa: B020
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
            for context in self._in_context_of.get(node, ()):  # noqa: B020
                seen.add(context)
        return seen

    def coverage(self) -> float:
        """Share of goals (transitively) grounded in solutions."""
        goals = self.goals()
        if not goals:
            return 0.0
        grounded = sum(1 for g in goals if self._grounded(g.element_id, set()))
        return grounded / len(goals)

    def _grounded(self, element_id: str, visiting: Set[str]) -> bool:
        if element_id in visiting:
            return False  # on the current path: a cycle, never grounded
        visiting.add(element_id)
        try:
            children = self._supported_by.get(element_id, [])
            if not children:
                return self.elements[element_id].kind is GsnKind.SOLUTION
            return all(self._grounded(c, visiting) for c in children)
        finally:
            # path-local guard: a shared sub-argument (diamond) must be
            # re-evaluable from its other parents
            visiting.discard(element_id)
