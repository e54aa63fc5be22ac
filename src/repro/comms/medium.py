"""The shared wireless medium.

The medium owns delivery physics: it computes the link budget per
transmission (including canopy loss from the world, co-channel interference
from concurrent senders and jamming power from registered jammers), draws
frame success and schedules delivery.

Jammers and eavesdroppers register here — this is the attack surface for RF
attacks, below any cryptographic protection.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.comms.radio import (
    RadioConfig,
    airtime_s,
    link_budget,
    received_power_dbm,
)
from repro.perf import counters as perf
from repro.sim.engine import Simulator
from repro.telemetry import tracer as trace
from repro.sim.events import EventCategory, EventLog
from repro.sim.geometry import Vec2
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comms.link import Frame, LinkEndpoint


class _ChannelTx:
    """Incremental index of one channel's live transmissions.

    Columns (parallel lists, in transmission-start order, mirroring the old
    per-channel deque): end time, sender x/y, TX power.  Expired entries are
    dropped lazily from the front exactly like the deque's ``popleft`` loop;
    interior entries whose airtime already ended are skipped at query time.
    """

    __slots__ = ("ends", "xs", "ys", "powers")

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.xs: List[float] = []
        self.ys: List[float] = []
        self.powers: List[float] = []

    def expire_front(self, now: float) -> None:
        """Drop the leading entries whose airtime has ended."""
        ends = self.ends
        i = 0
        n = len(ends)
        while i < n and ends[i] <= now:
            i += 1
        if i:
            del self.ends[:i]
            del self.xs[:i]
            del self.ys[:i]
            del self.powers[:i]

    def append(self, end: float, x: float, y: float, power: float) -> None:
        self.ends.append(end)
        self.xs.append(x)
        self.ys.append(y)
        self.powers.append(power)


class Jammer:
    """A registered jamming source.

    Parameters
    ----------
    name:
        Attacker identifier.
    position_fn:
        Callable returning the jammer's current position.
    power_dbm:
        Radiated jamming power.
    channel:
        Channel jammed; None jams all channels (broadband).
    active_fn:
        Callable returning whether the jammer currently radiates (a bursty
        interferer toggles it).
    """

    def __init__(
        self,
        name: str,
        position_fn: Callable[[], Vec2],
        power_dbm: float,
        channel: Optional[int] = None,
        active_fn: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.name = name
        self.position_fn = position_fn
        self.power_dbm = power_dbm
        self.channel = channel
        self.active_fn = active_fn or (lambda: True)

    def interference_at(self, position: Vec2, channel: int) -> float:
        """Jamming power received at ``position`` on ``channel``, dBm."""
        if self.channel is not None and self.channel != channel:
            return -math.inf
        if not self.active_fn():
            return -math.inf
        distance = self.position_fn().distance_to(position)
        return received_power_dbm(self.power_dbm, distance, antenna_gain_db=0.0)


#: fixed propagation + processing latency per frame, seconds
PROPAGATION_DELAY_S = 0.002


class WirelessMedium:
    """The shared medium all worksite radios transmit on.

    Parameters
    ----------
    sim, log, streams:
        Kernel plumbing.
    canopy_fn:
        Optional callable ``(a, b) -> canopy metres`` used for foliage loss
        (normally :meth:`repro.sim.world.World.canopy_blockage`).
    """

    def __init__(
        self,
        sim: Simulator,
        log: EventLog,
        streams: RngStreams,
        *,
        canopy_fn: Optional[Callable[[Vec2, Vec2], float]] = None,
    ) -> None:
        self.sim = sim
        self.log = log
        self._rng = streams.stream("medium")
        self.canopy_fn = canopy_fn
        self._endpoints: Dict[str, "LinkEndpoint"] = {}
        self.jammers: List[Jammer] = []
        self.eavesdroppers: List[Callable[["Frame", bytes], None]] = []
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        # live co-channel transmissions, per channel, in transmission order.
        # Expired entries are dropped lazily from the front (time-ordered by
        # start; ends can interleave, so queries still check each entry's
        # end time).  Channel keys are created on first use and never
        # removed.
        self._recent_tx: Dict[int, _ChannelTx] = {}
        # fault-injection state: TX power sag per endpoint (dB) and an
        # optional (probability, rng) corruption burst; both empty/None in
        # nominal runs so the hot path stays byte-identical
        self._power_sag: Dict[str, float] = {}
        self._corruption: Optional[Tuple[float, object]] = None

    # -- registration -------------------------------------------------------
    def register(self, endpoint: "LinkEndpoint") -> None:
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate endpoint name {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> "LinkEndpoint":
        return self._endpoints[name]

    @property
    def endpoints(self) -> List["LinkEndpoint"]:
        return list(self._endpoints.values())

    def add_jammer(self, jammer: Jammer) -> None:
        self.jammers.append(jammer)

    def remove_jammer(self, jammer: Jammer) -> None:
        if jammer in self.jammers:
            self.jammers.remove(jammer)

    def add_eavesdropper(self, callback: Callable[["Frame", bytes], None]) -> None:
        """Register a passive observer of every transmitted frame."""
        self.eavesdroppers.append(callback)

    # -- fault injection ------------------------------------------------------
    def set_power_sag(self, endpoint_name: str, sag_db: float) -> None:
        """Sag ``endpoint_name``'s effective TX power by ``sag_db`` dB
        (radio brownout fault; the endpoint's own config is untouched)."""
        self._power_sag[endpoint_name] = float(sag_db)

    def clear_power_sag(self, endpoint_name: str) -> None:
        """Remove an endpoint's TX power sag.  Idempotent."""
        self._power_sag.pop(endpoint_name, None)

    def set_corruption(self, probability: float, rng) -> None:
        """Start a corruption burst: each otherwise-delivered frame is
        corrupted in flight with ``probability``, drawn from ``rng`` (a
        dedicated fault stream, so nominal delivery draws are unaffected)."""
        self._corruption = (float(probability), rng)

    def clear_corruption(self) -> None:
        """End the corruption burst.  Idempotent."""
        self._corruption = None

    # -- interference -------------------------------------------------------

    def interference_at(self, position: Vec2, channel: int, now: float) -> float:
        """Aggregate interference power at ``position``, dBm.

        Transmissions originating at the receiver's own position are skipped
        (full-duplex radio assumption — a node does not jam itself).  Only
        the queried channel's live transmissions are visited (per-channel
        incremental index with lazy front expiry).  Bit-identical to the
        original jammers-then-transmissions ``combine_noise_dbm`` fold:
        each co-channel component's mW term is ``10 ** (c / 10)`` of the
        same dBm value, and terms are added in transmission order (a
        skipped near-field entry's exact ``+0.0`` changes no sum).
        """
        if perf.ACTIVE:
            perf.incr("medium.interference_queries")
        total_mw = 0  # int 0 matches sum()'s start value bit-for-bit
        for jammer in self.jammers:
            c = jammer.interference_at(position, channel)
            if c != -math.inf:
                total_mw += 10.0 ** (c / 10.0)
        # co-channel interference from overlapping recent transmissions
        recent = self._recent_tx.get(channel)
        if recent is not None and recent.ends:
            recent.expire_front(now)
            px = position.x
            py = position.y
            ends = recent.ends
            xs = recent.xs
            ys = recent.ys
            powers = recent.powers
            for i in range(len(ends)):
                if ends[i] <= now:
                    continue
                d = math.hypot(xs[i] - px, ys[i] - py)
                if d > 0.5:
                    c = received_power_dbm(powers[i], d, antenna_gain_db=0.0) - 6.0
                    total_mw += 10.0 ** (c / 10.0)
        if total_mw <= 0.0:
            return -math.inf
        return 10.0 * math.log10(total_mw)

    # -- transmission -------------------------------------------------------
    def transmit(self, sender: "LinkEndpoint", frame: "Frame", raw: bytes) -> None:
        """Transmit ``frame`` from ``sender``; delivery is probabilistic."""
        if perf.ACTIVE:
            perf.incr("medium.frames_tx")
            perf.incr("medium.bytes_tx", len(raw))
        self.frames_sent += 1
        now = self.sim.now
        config = sender.radio
        if self._power_sag:
            sag = self._power_sag.get(sender.name)
            if sag:
                config = dataclasses.replace(
                    config, tx_power_dbm=config.tx_power_dbm - sag
                )
        if trace.ACTIVE:
            trace.TRACER.frame_tx(frame, len(raw), config.channel)
        air = airtime_s(len(raw), config.bitrate_bps)

        for watcher in self.eavesdroppers:
            watcher(frame, raw)

        receiver = self._endpoints.get(frame.dst)
        if receiver is None or not receiver.powered:
            self._record_tx(now, air, sender, config)
            self.frames_lost += 1
            if trace.ACTIVE:
                cause = "dst_unknown" if receiver is None else "dst_unpowered"
                trace.TRACER.frame_drop(frame.src, frame.dst, frame.seq, cause)
            return
        sender_pos = sender.position_fn()
        receiver_pos = receiver.position_fn()
        distance = math.hypot(
            sender_pos.x - receiver_pos.x, sender_pos.y - receiver_pos.y
        )
        canopy = 0.0
        if self.canopy_fn is not None:
            canopy = self.canopy_fn(sender_pos, receiver_pos)
        # interference is evaluated before this frame is recorded, so a frame
        # never interferes with its own reception (CSMA keeps co-channel
        # overlap rare; only genuinely concurrent transmissions count)
        interference = self.interference_at(receiver_pos, config.channel, now)
        self._record_tx(now, air, sender, config, position=sender_pos)
        budget = link_budget(
            config, distance, canopy_m=canopy, interference_dbm=interference
        )
        if self._rng.random() >= budget.success_probability:
            self.frames_lost += 1
            self.log.emit(
                now, EventCategory.COMMS, "frame_lost", sender.name,
                dst=frame.dst, snr_db=round(budget.snr_db, 1),
            )
            if trace.ACTIVE:
                trace.TRACER.frame_drop(
                    frame.src, frame.dst, frame.seq, "link_budget",
                    snr_db=round(budget.snr_db, 1),
                )
            return
        if self._corruption is not None:
            probability, rng = self._corruption
            if rng.random() < probability:
                self.frames_lost += 1
                self.log.emit(
                    now, EventCategory.COMMS, "frame_corrupted", sender.name,
                    dst=frame.dst,
                )
                if trace.ACTIVE:
                    trace.TRACER.frame_drop(
                        frame.src, frame.dst, frame.seq, "corrupted"
                    )
                return
        self.frames_delivered += 1
        delay = PROPAGATION_DELAY_S + air
        if trace.ACTIVE:
            trace.TRACER.frame_delivered(frame, budget.snr_db, delay)
        self.sim.schedule(delay, lambda: receiver.receive_raw(frame, raw))

    def _record_tx(
        self, now: float, air: float, sender, config: RadioConfig, *, position=None
    ) -> None:
        recent = self._recent_tx.get(config.channel)
        if recent is None:
            recent = self._recent_tx[config.channel] = _ChannelTx()
        recent.expire_front(now)
        if position is None:
            position = sender.position
        recent.append(now + air, position.x, position.y, config.tx_power_dbm)
        if perf.ACTIVE:
            perf.incr("medium.tx_live", len(recent.ends))

    @property
    def delivery_ratio(self) -> float:
        if self.frames_sent == 0:
            return 1.0
        return self.frames_delivered / self.frames_sent
