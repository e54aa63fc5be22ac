"""GNSS receiver model with jamming and spoofing responses.

The mining-domain survey the paper leans on (Gaber et al.) names GNSS
spoofing/jamming as a principal AHS attack class.  The receiver here produces
position fixes with carrier-to-noise density (C/N0) metadata — the signal
characteristic that Ren et al.'s defence strategies check — and reacts to
attack state injected by :mod:`repro.attacks.gnss_attacks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.entities import Entity
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class GnssFix:
    """A position fix.

    Attributes
    ----------
    time:
        Fix timestamp.
    position:
        Estimated position (None when no fix is available).
    cn0_dbhz:
        Mean carrier-to-noise density across tracked satellites.
    n_satellites:
        Number of satellites used.
    hdop:
        Horizontal dilution of precision.
    """

    time: float
    position: Optional[Vec2]
    cn0_dbhz: float
    n_satellites: int
    hdop: float

    @property
    def valid(self) -> bool:
        return self.position is not None


class GnssReceiver:
    """A GNSS receiver mounted on a carrier.

    Nominal behaviour: fixes at the true position plus Gaussian noise, C/N0
    around 44 dB-Hz with small variance.  Under jamming the effective C/N0
    drops with jammer power; below the tracking threshold the receiver loses
    fix.  Under spoofing the reported position is the attacker's choice and —
    realistically — the spoofer's signal is slightly *stronger* than the
    authentic one, which is what power-monitoring defences key on.
    """

    TRACKING_THRESHOLD_DBHZ = 28.0

    #: carrier-to-noise density of an unattacked fix, dB-Hz
    nominal_cn0 = 44.0

    def __init__(
        self,
        name: str,
        carrier: Entity,
        streams: RngStreams,
        *,
        noise_sigma_m: float = 0.8,
    ) -> None:
        self.name = name
        self.carrier = carrier
        self._rng = streams.stream(f"gnss.{name}")
        self.noise_sigma_m = noise_sigma_m
        # attack state, driven by repro.attacks.gnss_attacks
        self.jammer_power_db: float = 0.0
        self.spoof_offset: Optional[Vec2] = None
        self.spoof_power_advantage_db: float = 3.0
        # fault state, driven by repro.faults.injector (component failures,
        # not attacks: receiver hang, constellation outage, survey bias)
        self.fault_dropout = False
        self.fault_frozen = False
        self.fault_bias: Optional[Vec2] = None
        self._last_fix: Optional[GnssFix] = None

    def clear_attacks(self) -> None:
        self.jammer_power_db = 0.0
        self.spoof_offset = None

    # -- fault injection hooks ------------------------------------------------
    def inject_dropout(self) -> None:
        self.fault_dropout = True

    def clear_dropout(self) -> None:
        self.fault_dropout = False

    def inject_freeze(self) -> None:
        self.fault_frozen = True

    def clear_freeze(self) -> None:
        self.fault_frozen = False

    def healthy(self) -> bool:
        """Sensor-health vote input for the degraded-mode machines."""
        return not self.fault_dropout and not self.fault_frozen

    def fix(self, now: float) -> GnssFix:
        """Produce the current fix, honouring attack and fault state."""
        if self.fault_dropout:
            # receiver hang / constellation outage: no fix, no RNG draws
            # (the gnss stream resumes exactly where it paused on recovery)
            return GnssFix(now, None, 0.0, n_satellites=0, hdop=99.0)
        if self.fault_frozen and self._last_fix is not None:
            stale = self._last_fix
            return GnssFix(
                now, stale.position, stale.cn0_dbhz, stale.n_satellites,
                stale.hdop,
            )
        if self.spoof_offset is not None:
            # Spoofed: position is true + attacker offset; C/N0 slightly high.
            cn0 = self.nominal_cn0 + self.spoof_power_advantage_db + self._rng.gauss(0.0, 0.7)
            noisy = self._noisy(self.carrier.position + self.spoof_offset)
            return self._produce(GnssFix(now, noisy, cn0, n_satellites=9, hdop=0.9))
        cn0 = self.nominal_cn0 - self.jammer_power_db + self._rng.gauss(0.0, 1.0)
        if cn0 < self.TRACKING_THRESHOLD_DBHZ:
            return GnssFix(now, None, cn0, n_satellites=0, hdop=99.0)
        # Partial jamming degrades geometry and noise.
        degradation = max(0.0, self.jammer_power_db) / 20.0
        sigma = self.noise_sigma_m * (1.0 + 4.0 * degradation)
        n_sats = max(4, int(10 - 5 * degradation))
        hdop = 0.8 + 3.0 * degradation
        noisy = self._noisy(self.carrier.position, sigma)
        return self._produce(GnssFix(now, noisy, cn0, n_satellites=n_sats, hdop=hdop))

    def _produce(self, fix: GnssFix) -> GnssFix:
        """Apply the survey-bias fault and remember the fix for freeze."""
        if self.fault_bias is not None and fix.position is not None:
            fix = GnssFix(
                fix.time, fix.position + self.fault_bias, fix.cn0_dbhz,
                fix.n_satellites, fix.hdop,
            )
        self._last_fix = fix
        return fix

    def _noisy(self, p: Vec2, sigma: Optional[float] = None) -> Vec2:
        s = self.noise_sigma_m if sigma is None else sigma
        return Vec2(p.x + self._rng.gauss(0.0, s), p.y + self._rng.gauss(0.0, s))
