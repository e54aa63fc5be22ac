"""Named attack campaigns against the worksite scenario.

Each builder takes the composed :class:`WorksiteScenario` and returns an
armed-ready :class:`AttackCampaign`.  The vocabulary matches the paper's
survey so every benchmark row can name its paper anchor.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.attacks.camera_attacks import CameraBlindingAttack, CameraHijackAttack
from repro.attacks.deauth import DeauthAttack
from repro.attacks.gnss_attacks import GnssJammingAttack, GnssSpoofingAttack
from repro.attacks.interference import InterferenceSource
from repro.attacks.jamming import JammingAttack
from repro.attacks.network_attacks import (
    MessageInjectionAttack,
    ReplayAttack,
    TamperingAttack,
)
from repro.attacks.scenarios import AttackCampaign
from repro.scenarios.worksite import WorksiteScenario
from repro.sim.geometry import Vec2


def _perimeter(scenario: WorksiteScenario) -> Vec2:
    """A plausible attacker position at the worksite perimeter road."""
    return Vec2(scenario.config.width / 2.0, 2.0)


def jamming_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 300.0,
) -> AttackCampaign:
    """RF jamming of the worksite channel (Gaber et al.: signal jamming)."""
    attack = JammingAttack(
        "jammer-1", scenario.sim, scenario.log, scenario.medium,
        _perimeter(scenario), power_dbm=33.0,
    )
    return AttackCampaign("rf_jamming", "broadband jam of the site radio").add(
        attack, start, duration
    )


def interference_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 600.0,
) -> AttackCampaign:
    """Co-channel interference (Gaber et al.: frequency interference)."""
    attack = InterferenceSource(
        "interferer-1", scenario.sim, scenario.log, scenario.medium,
        scenario.streams, _perimeter(scenario),
    )
    return AttackCampaign(
        "frequency_interference", "bursty co-channel transmitter"
    ).add(attack, start, duration)


def deauth_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 300.0,
) -> AttackCampaign:
    """De-auth flood against the forwarder (Gaber et al.: Wi-Fi De-Auth)."""
    attack = DeauthAttack(
        "deauther-1", scenario.sim, scenario.log, scenario.medium,
        _perimeter(scenario), victim="forwarder", spoofed_peer="control",
    )
    return AttackCampaign("wifi_deauth", "forged de-auth flood").add(
        attack, start, duration
    )


def gnss_jamming_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 300.0,
) -> AttackCampaign:
    """GNSS jamming (Gaber et al.: GNSS attacks)."""
    attack = GnssJammingAttack(
        "gnss-jammer-1", scenario.sim, scenario.log, _perimeter(scenario),
        [scenario.gnss],
    )
    return AttackCampaign("gnss_jamming", "GNSS noise jamming").add(
        attack, start, duration
    )


def gnss_spoofing_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 600.0,
) -> AttackCampaign:
    """GNSS slow-drag spoofing (Gaber et al. / Ren et al.)."""
    attack = GnssSpoofingAttack(
        "gnss-spoofer-1", scenario.sim, scenario.log, scenario.gnss,
        drift_per_s=Vec2(0.6, 0.2),
    )
    return AttackCampaign("gnss_spoofing", "slow-drag position spoof").add(
        attack, start, duration
    )


def camera_blinding_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 300.0,
) -> AttackCampaign:
    """Camera blinding (Petit et al.)."""
    attack = CameraBlindingAttack(
        "blinder-1", scenario.sim, scenario.log, scenario.cameras["forwarder"],
        _perimeter(scenario), effective_range=400.0,
    )
    return AttackCampaign("camera_blinding", "directed-light camera blinding").add(
        attack, start, duration
    )


def camera_hijack_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 600.0,
) -> AttackCampaign:
    """Drone camera feed hijack (Gaber et al.: camera attacks)."""
    camera = scenario.cameras.get("drone", scenario.cameras["forwarder"])
    attack = CameraHijackAttack(
        "hijacker-1", scenario.sim, scenario.log, camera
    )
    return AttackCampaign("camera_hijack", "video feed takeover").add(
        attack, start, duration
    )


def injection_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 300.0,
    command: str = "resume",
) -> AttackCampaign:
    """Forged command injection (Section III: unauthorized machine operations)."""
    attack = MessageInjectionAttack(
        "injector-1", scenario.sim, scenario.log, scenario.medium,
        _perimeter(scenario), victim="forwarder", spoofed="control",
        command=command,
    )
    return AttackCampaign("message_injection", "forged operator commands").add(
        attack, start, duration
    )


def replay_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 600.0,
) -> AttackCampaign:
    """Record-and-replay of captured traffic."""
    attack = ReplayAttack(
        "replayer-1", scenario.sim, scenario.log, scenario.medium,
        _perimeter(scenario), victim="forwarder",
    )
    return AttackCampaign("message_replay", "verbatim traffic replay").add(
        attack, start, duration
    )


def tampering_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0, duration: float = 300.0,
) -> AttackCampaign:
    """In-flight record tampering (MITM bit flips)."""
    attack = TamperingAttack(
        "tamperer-1", scenario.sim, scenario.log, scenario.medium,
        _perimeter(scenario), victim="forwarder",
    )
    return AttackCampaign("message_tampering", "MITM record corruption").add(
        attack, start, duration
    )


def eavesdropping_campaign(
    scenario: WorksiteScenario, *, start: float = 300.0,
    duration: Optional[float] = None,
) -> AttackCampaign:
    """Passive interception of all worksite traffic (Table I confidentiality)."""
    from repro.attacks.eavesdropping import EavesdroppingAttack

    attack = EavesdroppingAttack(
        "listener-1", scenario.sim, scenario.log, scenario.medium
    )
    return AttackCampaign(
        "eavesdropping", "passive interception of operations traffic"
    ).add(attack, start, duration)


def combined_campaign(
    scenario: WorksiteScenario, *, start: float = 600.0,
) -> AttackCampaign:
    """A staged multi-vector campaign: jam → deauth → inject → spoof."""
    campaign = AttackCampaign(
        "combined", "staged multi-vector attack on the worksite"
    )
    campaign.add(
        JammingAttack("jam", scenario.sim, scenario.log, scenario.medium,
                      _perimeter(scenario), power_dbm=30.0),
        start, 180.0,
    )
    campaign.add(
        DeauthAttack("deauth", scenario.sim, scenario.log, scenario.medium,
                     _perimeter(scenario), victim="forwarder",
                     spoofed_peer="control"),
        start + 240.0, 180.0,
    )
    campaign.add(
        MessageInjectionAttack("inject", scenario.sim, scenario.log,
                               scenario.medium, _perimeter(scenario),
                               victim="forwarder", spoofed="control"),
        start + 480.0, 180.0,
    )
    campaign.add(
        GnssSpoofingAttack("spoof", scenario.sim, scenario.log, scenario.gnss),
        start + 720.0, 300.0,
    )
    return campaign


CAMPAIGN_BUILDERS: Dict[str, Callable[..., AttackCampaign]] = {
    "rf_jamming": jamming_campaign,
    "frequency_interference": interference_campaign,
    "wifi_deauth": deauth_campaign,
    "gnss_jamming": gnss_jamming_campaign,
    "gnss_spoofing": gnss_spoofing_campaign,
    "camera_blinding": camera_blinding_campaign,
    "camera_hijack": camera_hijack_campaign,
    "message_injection": injection_campaign,
    "message_replay": replay_campaign,
    "message_tampering": tampering_campaign,
    "eavesdropping": eavesdropping_campaign,
    "combined": combined_campaign,
}


def build_campaign(name: str, scenario: WorksiteScenario, **kwargs) -> AttackCampaign:
    """Build a named campaign against ``scenario``."""
    try:
        builder = CAMPAIGN_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; available: {sorted(CAMPAIGN_BUILDERS)}"
        ) from None
    return builder(scenario, **kwargs)
