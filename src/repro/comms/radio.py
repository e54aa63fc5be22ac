"""Physical-layer radio model: path loss, SNR, frame success probability.

A log-distance path-loss model with forest-appropriate exponent; the noise
floor aggregates thermal noise, co-channel interference and jamming power.
Frame success follows a logistic curve in SNR, which reproduces the
qualitative behaviour of real PHYs without bit-level simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RadioConfig:
    """Radio parameters of a node.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power.
    channel:
        Logical frequency channel index; only co-channel signals interfere.
    bitrate_bps:
        Serialisation rate for airtime computation.
    antenna_gain_db:
        Combined TX+RX antenna gain.
    """

    tx_power_dbm: float = 27.0
    channel: int = 1
    bitrate_bps: float = 6_000_000.0
    antenna_gain_db: float = 2.0


#: thermal noise floor for a ~20 MHz channel, dBm
THERMAL_NOISE_DBM = -96.0

#: reference path loss at 1 m for 2.4 GHz, dB
PATH_LOSS_REF_DB = 40.0

#: path-loss exponent in forest (foliage raises it above free space's 2.0)
FOREST_PATH_LOSS_EXPONENT = 2.9

#: extra attenuation per metre of canopy on the radio path, dB
CANOPY_LOSS_DB_PER_M = 0.25


def path_loss_db(distance_m: float, canopy_m: float = 0.0) -> float:
    """Log-distance path loss plus foliage loss, dB."""
    d = max(distance_m, 1.0)
    loss = PATH_LOSS_REF_DB + 10.0 * FOREST_PATH_LOSS_EXPONENT * math.log10(d)
    return loss + CANOPY_LOSS_DB_PER_M * canopy_m


def received_power_dbm(
    tx_power_dbm: float, distance_m: float, *, antenna_gain_db: float = 2.0,
    canopy_m: float = 0.0,
) -> float:
    """Received signal power at ``distance_m``."""
    return tx_power_dbm + antenna_gain_db - path_loss_db(distance_m, canopy_m)


def combine_noise_dbm(*components_dbm: float) -> float:
    """Sum noise/interference powers given in dBm."""
    total_mw = sum(10.0 ** (c / 10.0) for c in components_dbm)
    if total_mw <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total_mw)


def snr_db(rx_power_dbm: float, noise_dbm: float) -> float:
    return rx_power_dbm - noise_dbm


#: SNR at which half the frames decode, dB
SNR50_DB = 8.0
#: steepness of the frame-success logistic, per dB
SUCCESS_SLOPE = 0.9
#: preamble and turnaround time added to every frame on air, seconds
AIRTIME_OVERHEAD_S = 0.0002


def frame_success_probability(snr: float) -> float:
    """Probability a frame decodes at the given SNR (logistic in dB)."""
    return 1.0 / (1.0 + math.exp(-SUCCESS_SLOPE * (snr - SNR50_DB)))


def airtime_s(frame_bytes: int, bitrate_bps: float) -> float:
    """Time on air for a frame of ``frame_bytes``."""
    return AIRTIME_OVERHEAD_S + (frame_bytes * 8.0) / bitrate_bps


@dataclass(frozen=True, slots=True)
class LinkBudget:
    """The computed budget of one transmission."""

    distance_m: float
    rx_power_dbm: float
    noise_dbm: float
    snr_db: float
    success_probability: float


def link_budget(
    tx: RadioConfig,
    distance_m: float,
    *,
    canopy_m: float = 0.0,
    interference_dbm: float = -math.inf,
) -> LinkBudget:
    """Compute the full link budget for one transmission."""
    rx = received_power_dbm(
        tx.tx_power_dbm, distance_m, antenna_gain_db=tx.antenna_gain_db, canopy_m=canopy_m
    )
    if interference_dbm == -math.inf:
        noise = THERMAL_NOISE_DBM
    else:
        noise = combine_noise_dbm(THERMAL_NOISE_DBM, interference_dbm)
    snr = snr_db(rx, noise)
    return LinkBudget(
        distance_m=distance_m,
        rx_power_dbm=rx,
        noise_dbm=noise,
        snr_db=snr,
        success_probability=frame_success_probability(snr),
    )
