"""The structured tracer and its process-global installation point.

The tracer is also the record stream's one subscriber hook: the
invariant engine handed to it as ``checker`` and the span emitter armed
by ``spans`` each observe every record after it is written.  It keeps no
summary of its own: :mod:`repro.telemetry.analysis` summarises a trace
from its records.

Design constraints (shared with :mod:`repro.perf.counters`):

* **near-zero overhead when off** — instrumented sites guard with a single
  module-attribute check (``if tracer.ACTIVE:``); with no tracer installed
  a traced hot path costs exactly one attribute load more than before;
* **deterministic** — the tracer observes the simulation and never feeds
  back into it: no RNG draws, no scheduled events, no wall-clock reads.
  Records are stamped with simulated time only, so the same scenario and
  seed yield a byte-identical record stream;
* **process-local** — one tracer is installed at a time (sweep workers in
  other processes install their own); :func:`installed` scopes an
  installation with guaranteed teardown.

Instrumented sites call typed emit methods (``frame_tx``, ``ids_alert``,
``safety_intervention``, ...) rather than passing free-form dicts, which is
what keeps every record schema-valid by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.telemetry.schema import DETECTION_GRACE_S, SCHEMA_VERSION
from repro.telemetry.writer import TraceWriter

#: instrumented sites guard on this module attribute; flipped by install()
ACTIVE: bool = False

#: the installed tracer (only read under an ``ACTIVE`` guard)
TRACER: Optional["Tracer"] = None


def install(tracer: "Tracer") -> None:
    """Make ``tracer`` the process-global tracer and arm the guards."""
    global ACTIVE, TRACER
    TRACER = tracer
    ACTIVE = True


def uninstall() -> None:
    """Disarm the guards and forget the installed tracer."""
    global ACTIVE, TRACER
    ACTIVE = False
    TRACER = None


@contextmanager
def installed(tracer: "Tracer") -> Iterator["Tracer"]:
    """Install ``tracer`` for the duration of the block, then uninstall."""
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall()


class _Window:
    """One attack window being tracked for latency attribution."""

    __slots__ = ("name", "attack_type", "start", "end")

    def __init__(self, name: str, attack_type: str, start: float) -> None:
        self.name = name
        self.attack_type = attack_type
        self.start = start
        self.end: Optional[float] = None


class Tracer:
    """Emit typed, sim-time-stamped trace records for one run.

    Parameters
    ----------
    sim:
        The simulator whose clock stamps every record.
    writer:
        Optional :class:`~repro.telemetry.writer.TraceWriter`; records are
        streamed to it as they are emitted.
    keep_records:
        Keep every record in :attr:`records`, for in-memory analysis with
        :mod:`repro.telemetry.analysis`.
    spans:
        Arm the causal span layer (:mod:`repro.telemetry.spans`): a
        :class:`~repro.telemetry.spans.SpanEmitter` derives hierarchical
        ``span.start``/``span.end`` records from the event stream, with
        their own ``si`` index so every non-span record stays
        byte-identical to the spans-off trace.  The emitter is created by
        :meth:`meta` (it needs the seed) and closed by :meth:`close`.
    checker:
        Optional invariant engine (``InvariantEngine``); it
        observes every record, header and span records included, after
        the record is written, so checking can never perturb the stream.
    """

    def __init__(
        self,
        sim,
        writer: Optional[TraceWriter] = None,
        *,
        keep_records: bool = False,
        spans: bool = False,
        checker=None,
    ) -> None:
        self.sim = sim
        self.writer = writer
        self.keep_records = keep_records
        self.checker = checker
        self.spans_enabled = bool(spans)
        self._spans = None  # SpanEmitter, created lazily by meta()
        self.records: List[dict] = []
        self._index = 0
        self._windows: List[_Window] = []

    # -- core ---------------------------------------------------------------
    def _emit(self, rtype: str, **fields) -> None:
        record = {
            "v": SCHEMA_VERSION,
            "i": self._index,
            "t": round(self.sim.now, 6),
            "type": rtype,
        }
        record.update(fields)
        self._index += 1
        if self.keep_records:
            self.records.append(record)
        if self.writer is not None:
            self.writer.write(record)
        if self.checker is not None:
            # checked after the record is written: the engine observes the
            # stream and can never perturb it
            self.checker.observe(record)
        if self._spans is not None:
            # the span emitter also observes post-write, so span records
            # always follow the event record they were derived from
            # (dispatched directly: this runs once per event record)
            handler = self._spans._dispatch.get(rtype)
            if handler is not None:
                handler(record)

    def _emit_span(self, record: dict) -> None:
        """Write one span record (emitter callback): no ``i``, so the
        event stream is untouched by the span layer."""
        if self.keep_records:
            self.records.append(record)
        if self.writer is not None:
            self.writer.write(record)
        if self.checker is not None:
            self.checker.observe(record)

    def close(self) -> None:
        """End open spans, then flush and close the attached writer."""
        if self._spans is not None:
            self._spans.close_all(round(self.sim.now, 6))
        if self.writer is not None:
            self.writer.close()

    # -- header -------------------------------------------------------------
    def meta(self, **fields) -> None:
        """Emit the header record (seed, profile, horizon, campaign, ...)."""
        if self.spans_enabled and self._spans is None:
            from repro.telemetry.spans import SpanEmitter

            # created before the header is emitted so the run span opens
            # on the trace.meta record itself
            self._spans = SpanEmitter(self._emit_span, fields.get("seed"))
        self._emit("trace.meta", schema=SCHEMA_VERSION, **fields)

    # -- frame lifecycle ------------------------------------------------------
    def record_seal(
        self, node: str, peer: str, profile: str, seq: int, n_bytes: int
    ) -> None:
        self._emit(
            "record.seal", node=node, peer=peer, profile=profile,
            seq=seq, bytes=n_bytes,
        )

    def frame_tx(self, frame, n_bytes: int, channel: int) -> None:
        self._emit(
            "frame.tx", src=frame.src, dst=frame.dst,
            frame_type=frame.frame_type.value, seq=frame.seq,
            bytes=n_bytes, channel=channel,
        )

    def frame_delivered(self, frame, snr_db: float, delay_s: float) -> None:
        self._emit(
            "frame.delivered", src=frame.src, dst=frame.dst, seq=frame.seq,
            snr_db=round(snr_db, 1), delay_s=round(delay_s, 6),
        )

    def frame_drop(
        self, src: str, dst: str, seq: int, cause: str, **extra
    ) -> None:
        self._emit("frame.drop", src=src, dst=dst, seq=seq, cause=cause, **extra)

    def frame_rx(self, node: str, src: str, seq: int, frame_type: str) -> None:
        self._emit("frame.rx", node=node, src=src, seq=seq, frame_type=frame_type)

    def record_open(self, node: str, peer: str, seq: int, msg_type: str) -> None:
        self._emit("record.open", node=node, peer=peer, seq=seq, msg_type=msg_type)

    def record_drop(self, node: str, peer: str, cause: str, **extra) -> None:
        self._emit("record.drop", node=node, peer=peer, cause=cause, **extra)

    def link_deauth(self, node: str, src: str, accepted: bool) -> None:
        self._emit("link.deauth", node=node, src=src, accepted=accepted)

    # -- attack windows -------------------------------------------------------
    def attack_started(self, name: str, attack_type: str) -> None:
        self._windows.append(_Window(name, attack_type, self.sim.now))
        self._emit("attack.start", attack=name, attack_type=attack_type)

    def attack_stopped(self, name: str, attack_type: str) -> None:
        duration = 0.0
        for window in reversed(self._windows):
            if window.name == name and window.end is None:
                window.end = self.sim.now
                duration = window.end - window.start
                break
        self._emit(
            "attack.stop", attack=name, attack_type=attack_type,
            duration_s=round(duration, 6),
        )

    def _containing_window(self, now: float) -> Optional[_Window]:
        """The most recently started window containing ``now`` (with grace)."""
        best: Optional[_Window] = None
        for window in self._windows:
            if now < window.start:
                continue
            if window.end is not None and now > window.end + DETECTION_GRACE_S:
                continue
            if best is None or window.start > best.start:
                best = window
        return best

    # -- detections -----------------------------------------------------------
    def ids_alert(self, detector: str, alert_type: str, confidence: float) -> None:
        now = self.sim.now
        window = self._containing_window(now)
        fields = {
            "detector": detector,
            "alert_type": alert_type,
            "confidence": round(confidence, 3),
            "in_window": window is not None,
        }
        if window is not None:
            fields["latency_s"] = round(now - window.start, 6)
            fields["window"] = window.attack_type
        self._emit("ids.alert", **fields)

    # -- safety ---------------------------------------------------------------
    def safety_intervention(self, machine: str, action: str, **extra) -> None:
        self._emit("safety.intervention", machine=machine, action=action, **extra)

    def safety_violation(self, machine: str, person: str, separation_m: float) -> None:
        self._emit(
            "safety.violation", machine=machine, person=person,
            separation_m=round(separation_m, 2),
        )

    def safety_near_miss(self, machine: str, person: str, separation_m: float) -> None:
        self._emit(
            "safety.near_miss", machine=machine, person=person,
            separation_m=round(separation_m, 2),
        )

    # -- mission --------------------------------------------------------------
    def mission_phase(self, machine: str, phase: str, prev: str) -> None:
        self._emit("mission.phase", machine=machine, phase=phase, prev=prev)

    # -- fault injection and resilience ---------------------------------------
    def fault_inject(self, fault: str, target: str) -> None:
        self._emit("fault.inject", fault=fault, target=target)

    def fault_clear(self, fault: str, target: str) -> None:
        self._emit("fault.clear", fault=fault, target=target)

    def mode_transition(
        self, machine: str, mode: str, prev: str, **extra
    ) -> None:
        """A mode change; a safe stop carries the mode machine's
        ``latency_s``, measured from its earliest open outage."""
        self._emit(
            "mode.transition", machine=machine, mode=mode, prev=prev, **extra
        )

    def service_down(
        self, service: str, cause: str, machine: Optional[str] = None
    ) -> None:
        fields = {"service": service, "cause": cause}
        if machine is not None:
            fields["machine"] = machine
        self._emit("service.down", **fields)

    def service_up(
        self, service: str, outage_s: float, machine: Optional[str] = None
    ) -> None:
        fields = {"service": service, "outage_s": round(outage_s, 6)}
        if machine is not None:
            fields["machine"] = machine
        self._emit("service.up", **fields)

    # -- ground-station plane -------------------------------------------------
    def gs_command(
        self, vehicle: str, sender: str, command: str, counter: int, verdict: str
    ) -> None:
        self._emit(
            "gs.command", vehicle=vehicle, sender=sender, command=command,
            counter=counter, verdict=verdict,
        )

    def gs_alert(self, node: str, kind: str, counter: int) -> None:
        self._emit("gs.alert", node=node, kind=kind, counter=counter)

    def gs_audit(
        self, seq: int, topic: str, sender: str, verdict: str,
        hash: str, prev: str,
    ) -> None:
        self._emit(
            "gs.audit", seq=seq, topic=topic, sender=sender,
            verdict=verdict, hash=hash, prev=prev,
        )

    # -- counts -------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return self._index

    @property
    def span_count(self) -> int:
        """Span records written so far (0 when the span layer is off)."""
        return 0 if self._spans is None else self._spans.si
