"""Independence and heterogeneity indices for the SoS.

Quantifies four of Waller & Craddock's five dimensions directly from the
composition (the fifth, emergent behavior, is measured at runtime by
:mod:`repro.sos.emergence`):

* **management independence** — probability two random systems have
  different operators (Gini-Simpson diversity of the operator distribution);
* **operational independence** — share of systems able to act autonomously;
* **evolutionary divergence** — spread of update cadences (systems patched
  at very different rhythms drift apart in security posture);
* **geographic distribution** — diversity of deployment locations.

Each index lies in [0, 1]; higher means the dimension contributes more
complexity to securing the SoS.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.sos.composition import SystemOfSystems


def _gini_simpson(values: Sequence[str]) -> float:
    """Probability two independent draws differ (0 = homogeneous)."""
    n = len(values)
    if n <= 1:
        return 0.0
    counts = Counter(values)
    same = sum(c * (c - 1) for c in counts.values())
    return 1.0 - same / (n * (n - 1))


@dataclass(frozen=True)
class IndependenceReport:
    """The four structural indices plus derived aggregates."""

    management_independence: float
    operational_independence: float
    evolutionary_divergence: float
    geographic_distribution: float
    policy_heterogeneity: float
    cross_operator_interface_share: float

    def complexity_index(self) -> float:
        """Mean of the dimensions: a single SoS-complexity number."""
        dims = (
            self.management_independence,
            self.operational_independence,
            self.evolutionary_divergence,
            self.geographic_distribution,
        )
        return sum(dims) / len(dims)


def independence_report(sos: SystemOfSystems) -> IndependenceReport:
    """Compute the structural independence indices of an SoS."""
    systems = list(sos.systems.values())
    if not systems:
        raise ValueError("empty SoS")
    operators = [s.operator for s in systems]
    policies = [s.security_policy for s in systems]
    locations = [s.location for s in systems]

    autonomous = sum(1 for s in systems if s.autonomy in ("autonomous", "remote"))
    operational = autonomous / len(systems)

    cadences = [s.update_cadence_days for s in systems]
    mean_cadence = sum(cadences) / len(cadences)
    if mean_cadence > 0.0:
        spread = math.sqrt(
            sum((c - mean_cadence) ** 2 for c in cadences) / len(cadences)
        ) / mean_cadence
    else:
        spread = 0.0
    evolutionary = min(1.0, spread)

    interfaces = sos.interfaces
    if interfaces:
        crossing = len(sos.cross_operator_interfaces()) / len(interfaces)
    else:
        crossing = 0.0

    return IndependenceReport(
        management_independence=_gini_simpson(operators),
        operational_independence=operational,
        evolutionary_divergence=evolutionary,
        geographic_distribution=_gini_simpson(locations),
        policy_heterogeneity=_gini_simpson(policies),
        cross_operator_interface_share=crossing,
    )
