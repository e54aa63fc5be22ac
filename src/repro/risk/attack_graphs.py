"""Attack-path graph analysis over the item model (networkx).

Builds a directed graph whose nodes are attacker states (entry points,
compromised components, violated assets) and whose edges are attack actions
weighted by attack-potential points.  Supports:

* enumerating attack paths from entry points to an asset;
* the minimum-effort path (the feasibility driver per 21434);
* countermeasure cut analysis: which deployed measures sever all paths
  below an effort budget.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.defense.countermeasures import (
    MIN_FEASIBILITY_INCREASE,
    CountermeasureCatalog,
)
from repro.risk.feasibility import default_potential

#: longest attack path, in edges, that :meth:`AttackGraph.paths_to` follows
PATH_CUTOFF = 8


class AttackGraph:
    """A weighted attack graph.

    Node conventions: ``entry:*`` for attacker entry points, ``asset:*`` for
    asset-violation goals, anything else is an intermediate state.
    """

    def __init__(self) -> None:
        self.graph = nx.DiGraph()

    def add_entry(self, name: str) -> str:
        node = f"entry:{name}"
        self.graph.add_node(node, kind="entry")
        return node

    def add_state(self, name: str) -> str:
        self.graph.add_node(name, kind="state")
        return name

    def add_goal(self, asset_id: str) -> str:
        node = f"asset:{asset_id}"
        self.graph.add_node(node, kind="goal")
        return node

    def add_action(
        self, source: str, target: str, attack_type: str, description: str = ""
    ) -> None:
        """Add an attack action edge weighted by its default potential."""
        effort = default_potential(attack_type).points() + 1  # >= 1 for pathing
        self.graph.add_edge(
            source, target,
            attack_type=attack_type,
            description=description,
            effort=effort,
        )

    # -- queries ---------------------------------------------------------------
    @property
    def entries(self) -> List[str]:
        return [n for n, d in self.graph.nodes(data=True) if d.get("kind") == "entry"]

    @property
    def goals(self) -> List[str]:
        return [n for n, d in self.graph.nodes(data=True) if d.get("kind") == "goal"]

    def paths_to(self, goal: str) -> List[List[str]]:
        """All simple attack paths from any entry to ``goal``."""
        paths: List[List[str]] = []
        for entry in self.entries:
            try:
                found = nx.all_simple_paths(self.graph, entry, goal, cutoff=PATH_CUTOFF)
                paths.extend(list(found))
            except nx.NodeNotFound:
                continue
        return paths

    def min_effort_path(self, goal: str) -> Optional[Tuple[List[str], int]]:
        """The least-total-effort path from any entry to ``goal``."""
        best: Optional[Tuple[List[str], int]] = None
        for entry in self.entries:
            try:
                length, path = nx.single_source_dijkstra(
                    self.graph, entry, goal, weight="effort"
                )
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
            if best is None or length < best[1]:
                best = (path, int(length))
        return best

    def path_attack_types(self, path: Sequence[str]) -> List[str]:
        types = []
        for a, b in zip(path, path[1:]):
            types.append(self.graph.edges[a, b]["attack_type"])
        return types

    def severed_by(self, goal: str, deployed_measures: Sequence[str]) -> bool:
        """True if the deployed measures break every path to ``goal``.

        An edge is considered broken when some deployed measure mitigates its
        attack type with ``feasibility_increase >=``
        :data:`~repro.defense.countermeasures.MIN_FEASIBILITY_INCREASE`.
        """
        catalog = CountermeasureCatalog()
        blocked_types = set()
        for name in deployed_measures:
            try:
                measure = catalog.get(name)
            except KeyError:
                continue
            if measure.feasibility_increase >= MIN_FEASIBILITY_INCREASE:
                blocked_types |= measure.mitigates
        pruned = nx.DiGraph()
        pruned.add_nodes_from(self.graph.nodes(data=True))
        for a, b, data in self.graph.edges(data=True):
            if data["attack_type"] not in blocked_types:
                pruned.add_edge(a, b, **data)
        for entry in self.entries:
            if pruned.has_node(goal) and nx.has_path(pruned, entry, goal):
                return False
        return True

    def critical_attack_types(self, goal: str) -> List[str]:
        """Attack types appearing on every entry→goal path (choke points)."""
        paths = self.paths_to(goal)
        if not paths:
            return []
        common = set(self.path_attack_types(paths[0]))
        for path in paths[1:]:
            common &= set(self.path_attack_types(path))
        return sorted(common)
