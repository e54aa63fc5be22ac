"""SoS composition: constituent systems and their interfaces.

A constituent system carries its own operator (management authority),
technology stack, security policy and update cadence — the attributes whose
*differences* make SoS security hard (Waller & Craddock).  Interfaces are the
dependency edges along which compromise and failure propagate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

#: interface criticalities along which a provider's loss cuts off its consumer
CRITICAL = ("high", "safety")


@dataclass(frozen=True)
class ConstituentSystem:
    """One constituent system of the worksite SoS.

    Attributes
    ----------
    name:
        System name (matches item-model system names).
    operator:
        Managing organisation (management independence dimension).
    vendor:
        Technology supplier (heterogeneity).
    security_policy:
        Named policy regime the system follows.
    update_cadence_days:
        How often the operator patches (evolutionary development).
    location:
        Deployment location tag (geographic distribution).
    autonomy:
        "autonomous", "remote", or "manual" (operational independence).
    safety_critical:
        Hosts safety functions.
    """

    name: str
    operator: str
    vendor: str
    security_policy: str
    update_cadence_days: float
    location: str
    autonomy: str
    safety_critical: bool = False


@dataclass(frozen=True)
class Interface:
    """A dependency interface between two constituent systems."""

    name: str
    provider: str
    consumer: str
    service: str  # e.g. "detection_relay", "command", "telemetry"
    criticality: str = "medium"  # low / medium / high / safety


class SystemOfSystems:
    """The composed SoS with dependency analysis."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.systems: Dict[str, ConstituentSystem] = {}
        self.interfaces: List[Interface] = []
        #: provider -> the interfaces it serves (failure flows downstream)
        self._downstream: Dict[str, List[Interface]] = {}

    def add_system(self, system: ConstituentSystem) -> ConstituentSystem:
        if system.name in self.systems:
            raise ValueError(f"duplicate system {system.name!r}")
        self.systems[system.name] = system
        return system

    def add_interface(self, interface: Interface) -> Interface:
        for endpoint in (interface.provider, interface.consumer):
            if endpoint not in self.systems:
                raise ValueError(f"interface references unknown system {endpoint!r}")
        self.interfaces.append(interface)
        self._downstream.setdefault(interface.provider, []).append(interface)
        return interface

    # -- analysis ----------------------------------------------------------
    def _reach(self, system: str, criticalities=None) -> Set[str]:
        """Consumers reachable from ``system`` through interfaces (of the
        given criticalities, or any); ``system`` itself is excluded, even
        when a cycle leads back to it."""
        reached: Set[str] = set()
        stack = [system]
        while stack:
            for interface in self._downstream.get(stack.pop(), ()):
                consumer = interface.consumer
                if consumer in reached or (
                    criticalities is not None
                    and interface.criticality not in criticalities
                ):
                    continue
                reached.add(consumer)
                stack.append(consumer)
        reached.discard(system)
        return reached

    def dependents_of(self, system: str) -> Set[str]:
        """Systems (transitively) depending on ``system``."""
        return self._reach(system)

    def single_points_of_failure(self) -> List[str]:
        """Systems whose loss cuts off a safety-critical consumer.

        A provider is an SPOF when some safety-critical system transitively
        depends on it through a chain of high- or safety-criticality
        interfaces (telemetry-grade links do not make their provider an SPOF).
        """
        safety_systems = {
            name for name, system in self.systems.items() if system.safety_critical
        }
        return [name for name in self.systems
                if self._reach(name, CRITICAL) & safety_systems]

    def cross_operator_interfaces(self) -> List[Interface]:
        """Interfaces crossing a management boundary."""
        crossing = []
        for interface in self.interfaces:
            provider = self.systems[interface.provider]
            consumer = self.systems[interface.consumer]
            if provider.operator != consumer.operator:
                crossing.append(interface)
        return crossing

    def compromise_reach(self, entry_system: str) -> Set[str]:
        """Systems reachable (hence at risk) from a compromised entry."""
        return self.dependents_of(entry_system) | {entry_system}


def worksite_sos() -> SystemOfSystems:
    """The Figure 1 worksite as an SoS (default composition)."""
    sos = SystemOfSystems("agrarsense-worksite")
    sos.add_system(ConstituentSystem(
        "forwarder", operator="forestry-contractor", vendor="komatsu",
        security_policy="machine-oem", update_cadence_days=90, location="site",
        autonomy="autonomous", safety_critical=True,
    ))
    sos.add_system(ConstituentSystem(
        "drone", operator="drone-service-provider", vendor="dji-like",
        security_policy="consumer-fw", update_cadence_days=30, location="site",
        autonomy="autonomous", safety_critical=True,
    ))
    sos.add_system(ConstituentSystem(
        "harvester", operator="forestry-contractor", vendor="komatsu",
        security_policy="machine-oem", update_cadence_days=180, location="site",
        autonomy="manual", safety_critical=False,
    ))
    sos.add_system(ConstituentSystem(
        "control_station", operator="forestry-contractor", vendor="integrator",
        security_policy="it-corporate", update_cadence_days=14, location="site-edge",
        autonomy="remote", safety_critical=True,
    ))
    sos.add_system(ConstituentSystem(
        "fleet_cloud", operator="oem-cloud", vendor="komatsu",
        security_policy="cloud-provider", update_cadence_days=7, location="remote-dc",
        autonomy="remote", safety_critical=False,
    ))
    sos.add_interface(Interface(
        "drone-detections", provider="drone", consumer="forwarder",
        service="detection_relay", criticality="safety",
    ))
    sos.add_interface(Interface(
        "fwd-command", provider="control_station", consumer="forwarder",
        service="command", criticality="safety",
    ))
    sos.add_interface(Interface(
        "fwd-telemetry", provider="forwarder", consumer="control_station",
        service="telemetry", criticality="medium",
    ))
    sos.add_interface(Interface(
        "drone-telemetry", provider="drone", consumer="control_station",
        service="telemetry", criticality="low",
    ))
    sos.add_interface(Interface(
        "harvester-telemetry", provider="harvester", consumer="control_station",
        service="telemetry", criticality="low",
    ))
    sos.add_interface(Interface(
        "cloud-sync", provider="control_station", consumer="fleet_cloud",
        service="fleet_data", criticality="low",
    ))
    sos.add_interface(Interface(
        "cloud-config", provider="fleet_cloud", consumer="control_station",
        service="configuration", criticality="medium",
    ))
    return sos
