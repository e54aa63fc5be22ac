"""The causal span layer: hierarchical intervals over the trace stream.

Flat event records answer *what happened*; spans answer *what contained
what and how long it took*.  A :class:`SpanEmitter` rides inside the
:class:`~repro.telemetry.tracer.Tracer` (opt-in via ``Tracer(...,
spans=True)``, which ``repro-worksite trace --spans`` sets) and derives
interval records from the event stream it already emits:

* ``run`` — the whole traced run, root of the tree (opened by
  ``trace.meta``, closed when the tracer closes);
* ``mission.phase`` — one machine's mission phase (consecutive
  ``mission.phase`` records);
* ``frame`` — frame lifecycle ``frame.tx`` → ``frame.delivered`` /
  ``frame.drop`` (a retransmission supersedes the previous attempt);
* ``record`` — secure-record lifecycle ``record.seal`` →
  ``record.open`` / ``record.drop``;
* ``attack`` / ``fault`` — one attack or injected-fault window;
* ``recovery`` — a machine's excursion out of ``nominal`` mode;
* ``outage`` — one ``service.down`` → ``service.up`` episode.

Determinism contract: span ids are a pure function of ``(scenario seed,
span-record index)`` — :func:`span_id` over :func:`run_prefix` — and
span records carry their own ``si`` counter so interleaving them never
renumbers the event records.  Same seed, same trace, byte for byte, with
spans on or off (the off trace is simply the on trace minus its span
lines).  Frame spans can outlive the mission phase they started in, so
every span parents directly to the run span: the tree is shallow by
design, and strict child-within-parent containment holds.

The analysis half (:func:`build_span_tree`, :func:`critical_path`,
:func:`flamegraph_folded`, :func:`span_report`) reconstructs the tree
from a recorded stream and drives ``repro-worksite trace --analyze`` /
``--flamegraph``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.schema import SCHEMA_VERSION

#: span starts/ends are interleaved into the same JSONL stream
SPAN_RECORD_TYPES = ("span.start", "span.end")


def run_prefix(seed: object) -> str:
    """The 8-hex-digit run prefix all of a trace's span ids share.

    Derived from the scenario seed so same-seed runs mint identical ids
    and traces from different seeds never alias.  ``None`` (a header
    without a seed) hashes like the string ``"None"`` — still
    deterministic, just not seed-distinct.
    """
    return hashlib.sha256(str(seed).encode("utf-8")).hexdigest()[:8]


def span_id(prefix: str, si: int) -> str:
    """The id of the span whose ``span.start`` carries span index ``si``."""
    return f"{prefix}-{si:06x}"


def has_spans(records: Sequence[dict]) -> bool:
    """Whether a record stream carries any span records."""
    return any(r.get("type") in SPAN_RECORD_TYPES for r in records)


class _Open:
    """One span currently open inside the emitter."""

    __slots__ = ("span", "kind", "name", "t0", "si")

    def __init__(
        self, span: str, kind: str, name: str, t0: float, si: int
    ) -> None:
        self.span = span
        self.kind = kind
        self.name = name
        self.t0 = t0
        self.si = si


class SpanEmitter:
    """Derive span records from the event stream the tracer emits.

    After writing each event record, the tracer calls the handler that
    :attr:`_dispatch` holds for the record's type, so the emitter
    observes exactly the records that hit the wire and can never perturb
    them.  All state is keyed on record fields only — no RNG, no wall
    clock — so the span stream inherits the trace determinism contract.
    """

    def __init__(self, sink: Callable[[dict], None], seed: object) -> None:
        self.prefix = run_prefix(seed)
        self.si = 0
        self.run_span: Optional[_Open] = None
        self.closed = False
        # open-span registries, keyed by what the closing record carries
        self._phases: Dict[str, _Open] = {}            # machine
        self._frames: Dict[Tuple[str, str, int], _Open] = {}
        # (sealer, opener) -> {seq: _Open}; record.drop carries no seq,
        # so drops close the oldest open span of their direction (FIFO)
        self._records: Dict[Tuple[str, str], Dict[int, _Open]] = {}
        self._attacks: Dict[str, _Open] = {}           # attack name
        self._faults: Dict[Tuple[str, str], _Open] = {}
        self._recovery: Dict[str, _Open] = {}          # machine
        self._outages: Dict[Tuple[Optional[str], str], _Open] = {}
        # hot-path caches: the emitter runs once per event record, so the
        # sink and the per-type handlers are bound once up front
        self._sink = sink
        self._dispatch = {
            rtype: handler.__get__(self)
            for rtype, handler in self._HANDLERS.items()
        }

    # -- emission -----------------------------------------------------------
    def _start(self, kind: str, name: str, t: float) -> _Open:
        si = self.si
        self.si = si + 1
        sid = f"{self.prefix}-{si:06x}"  # span_id(), inlined for the hot path
        record = {
            "v": SCHEMA_VERSION,
            "si": si,
            "t": t,
            "type": "span.start",
            "span": sid,
            "kind": kind,
            "name": name,
        }
        if self.run_span is not None:
            record["parent"] = self.run_span.span
        self._sink(record)
        return _Open(sid, kind, name, t, si)

    def _end(self, open_: _Open, t: float, cause: Optional[str] = None) -> None:
        record = {
            "v": SCHEMA_VERSION,
            "si": self.si,
            "t": t,
            "type": "span.end",
            "span": open_.span,
            "kind": open_.kind,
            "dur_s": round(t - open_.t0, 6),
        }
        if cause is not None:
            record["end_cause"] = cause
        self.si += 1
        self._sink(record)

    # -- per-record-type handlers -------------------------------------------
    def _on_meta(self, record: dict) -> None:
        if self.run_span is not None:
            return
        name = record.get("campaign") or "baseline"
        self.run_span = self._start("run", f"run:{name}", record["t"])

    def _on_mission_phase(self, record: dict) -> None:
        machine, t = record["machine"], record["t"]
        prev = self._phases.pop(machine, None)
        if prev is not None:
            self._end(prev, t)
        self._phases[machine] = self._start(
            "mission.phase", f"{machine}:{record['phase']}", t
        )

    def _on_record_seal(self, record: dict) -> None:
        direction = (record["node"], record["peer"])
        per_seq = self._records.setdefault(direction, {})
        seq = record["seq"]
        prev = per_seq.pop(seq, None)
        if prev is not None:  # seq reuse after a channel rejoin
            self._end(prev, record["t"], cause="superseded")
        per_seq[seq] = self._start(
            "record", f"{record['node']}->{record['peer']}:{seq}", record["t"]
        )

    def _on_record_open(self, record: dict) -> None:
        # the opener's peer is the sealer, so the direction key reverses
        per_seq = self._records.get((record["peer"], record["node"]))
        if per_seq is None:
            return
        open_ = per_seq.pop(record["seq"], None)
        if open_ is not None:
            self._end(open_, record["t"])

    def _on_record_drop(self, record: dict) -> None:
        per_seq = self._records.get((record["peer"], record["node"]))
        if not per_seq:
            return
        oldest = next(iter(per_seq))
        self._end(per_seq.pop(oldest), record["t"], cause="drop")

    def _on_frame_tx(self, record: dict) -> None:
        key = (record["src"], record["dst"], record["seq"])
        prev = self._frames.pop(key, None)
        if prev is not None:  # a retransmission re-airs the same seq
            self._end(prev, record["t"], cause="superseded")
        self._frames[key] = self._start(
            "frame", f"{record['src']}->{record['dst']}:{record['seq']}",
            record["t"],
        )

    def _on_frame_done(self, record: dict) -> None:
        open_ = self._frames.pop(
            (record["src"], record["dst"], record["seq"]), None
        )
        if open_ is not None:
            cause = "drop" if record["type"] == "frame.drop" else None
            self._end(open_, record["t"], cause=cause)

    def _on_attack_start(self, record: dict) -> None:
        name = record["attack"]
        prev = self._attacks.pop(name, None)
        if prev is not None:
            self._end(prev, record["t"], cause="superseded")
        self._attacks[name] = self._start("attack", name, record["t"])

    def _on_attack_stop(self, record: dict) -> None:
        open_ = self._attacks.pop(record["attack"], None)
        if open_ is not None:
            self._end(open_, record["t"])

    def _on_fault_inject(self, record: dict) -> None:
        key = (record["fault"], record["target"])
        prev = self._faults.pop(key, None)
        if prev is not None:
            self._end(prev, record["t"], cause="superseded")
        self._faults[key] = self._start(
            "fault", f"{record['fault']}@{record['target']}", record["t"]
        )

    def _on_fault_clear(self, record: dict) -> None:
        open_ = self._faults.pop((record["fault"], record["target"]), None)
        if open_ is not None:
            self._end(open_, record["t"])

    def _on_mode_transition(self, record: dict) -> None:
        machine, mode, t = record["machine"], record["mode"], record["t"]
        if mode == "nominal":
            open_ = self._recovery.pop(machine, None)
            if open_ is not None:
                self._end(open_, t)
        elif machine not in self._recovery:
            self._recovery[machine] = self._start(
                "recovery", f"{machine}:{mode}", t
            )

    def _on_service_down(self, record: dict) -> None:
        key = (record.get("machine"), record["service"])
        prev = self._outages.pop(key, None)
        if prev is not None:
            self._end(prev, record["t"], cause="superseded")
        owner = f"{key[0]}." if key[0] else ""
        self._outages[key] = self._start(
            "outage", f"{owner}{record['service']}", record["t"]
        )

    def _on_service_up(self, record: dict) -> None:
        open_ = self._outages.pop(
            (record.get("machine"), record["service"]), None
        )
        if open_ is not None:
            self._end(open_, record["t"])

    _HANDLERS = {
        "trace.meta": _on_meta,
        "mission.phase": _on_mission_phase,
        "record.seal": _on_record_seal,
        "record.open": _on_record_open,
        "record.drop": _on_record_drop,
        "frame.tx": _on_frame_tx,
        "frame.delivered": _on_frame_done,
        "frame.drop": _on_frame_done,
        "attack.start": _on_attack_start,
        "attack.stop": _on_attack_stop,
        "fault.inject": _on_fault_inject,
        "fault.clear": _on_fault_clear,
        "mode.transition": _on_mode_transition,
        "service.down": _on_service_down,
        "service.up": _on_service_up,
    }

    def close_all(self, t: float) -> None:
        """End every open span (children first, run span last); idempotent."""
        if self.closed:
            return
        self.closed = True
        open_spans: List[_Open] = []
        open_spans.extend(self._phases.values())
        for per_seq in self._records.values():
            open_spans.extend(per_seq.values())
        open_spans.extend(self._frames.values())
        open_spans.extend(self._attacks.values())
        open_spans.extend(self._faults.values())
        open_spans.extend(self._recovery.values())
        open_spans.extend(self._outages.values())
        for open_ in sorted(open_spans, key=lambda s: s.si):
            self._end(open_, t, cause="eot")
        self._phases.clear()
        self._records.clear()
        self._frames.clear()
        self._attacks.clear()
        self._faults.clear()
        self._recovery.clear()
        self._outages.clear()
        if self.run_span is not None:
            self._end(self.run_span, t)
            self.run_span = None


# ---------------------------------------------------------------------------
# analysis: tree reconstruction, critical path, flamegraph
# ---------------------------------------------------------------------------

class Span:
    """One reconstructed span from a recorded stream."""

    __slots__ = (
        "span", "kind", "name", "parent", "start_t", "end_t",
        "end_cause", "si", "children",
    )

    def __init__(self, record: dict) -> None:
        self.span: str = record["span"]
        self.kind: str = record["kind"]
        self.name: str = record["name"]
        self.parent: Optional[str] = record.get("parent")
        self.start_t: float = record["t"]
        self.end_t: Optional[float] = None
        self.end_cause: Optional[str] = None
        self.si: int = record["si"]
        self.children: List["Span"] = []

    @property
    def dur_s(self) -> Optional[float]:
        if self.end_t is None:
            return None
        return round(self.end_t - self.start_t, 6)

    def to_dict(self) -> dict:
        return {
            "span": self.span,
            "kind": self.kind,
            "name": self.name,
            "parent": self.parent,
            "start_t": self.start_t,
            "end_t": self.end_t,
            "dur_s": self.dur_s,
            "end_cause": self.end_cause,
            "children": len(self.children),
        }


def parse_spans(records: Sequence[dict]) -> Dict[str, Span]:
    """Reconstruct spans (id -> :class:`Span`) from a record stream.

    Unclosed spans keep ``end_t is None``; the spans invariant flags them,
    but analysis stays total so a truncated trace still renders.
    """
    spans: Dict[str, Span] = {}
    for record in records:
        rtype = record.get("type")
        if rtype == "span.start":
            spans[record["span"]] = Span(record)
        elif rtype == "span.end":
            span = spans.get(record["span"])
            if span is not None and span.end_t is None:
                span.end_t = record["t"]
                span.end_cause = record.get("end_cause")
    return spans


def build_span_tree(records: Sequence[dict]) -> List[Span]:
    """The span forest (roots only), children in stream order."""
    spans = parse_spans(records)
    roots: List[Span] = []
    for span in sorted(spans.values(), key=lambda s: s.si):
        parent = spans.get(span.parent) if span.parent else None
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


def span_kind_durations(records: Sequence[dict]) -> Dict[str, List[float]]:
    """Closed-span durations grouped by kind, in stream order."""
    durations: Dict[str, List[float]] = {}
    for span in sorted(parse_spans(records).values(), key=lambda s: s.si):
        if span.dur_s is not None:
            durations.setdefault(span.kind, []).append(span.dur_s)
    return durations


def critical_path(records: Sequence[dict]) -> List[Span]:
    """Root-to-leaf chain following the longest child at every level.

    The returned list starts at the run span; ties break towards the
    earlier span so the path is deterministic.  Open spans (no duration)
    never win over closed ones.
    """
    roots = build_span_tree(records)
    if not roots:
        return []
    path = [max(roots, key=lambda s: (s.dur_s or 0.0, -s.si))]
    while path[-1].children:
        best = max(path[-1].children, key=lambda s: (s.dur_s or 0.0, -s.si))
        if (best.dur_s or 0.0) <= 0.0:
            break
        path.append(best)
    return path


def _stack_label(span: Span) -> str:
    """The flamegraph frame label: per-sequence spans collapse together."""
    name = span.name
    if span.kind in ("frame", "record"):
        name = name.rsplit(":", 1)[0]
    return f"{span.kind}:{name}"


def flamegraph_folded(records: Sequence[dict]) -> str:
    """Folded-stack export (``stack;frames weight`` per line).

    The format flamegraph.pl and speedscope both ingest; weights are
    integer microseconds of *self* time, stacks aggregate over identical
    label chains, output is sorted for byte-stable exports.  Empty string
    when the trace carries no spans.
    """
    weights: Dict[str, int] = {}

    def walk(span: Span, stack: str) -> None:
        label = f"{stack};{_stack_label(span)}" if stack else _stack_label(span)
        child_total = sum(c.dur_s or 0.0 for c in span.children)
        # concurrent children can overlap, so self time clamps at zero
        self_s = max(0.0, (span.dur_s or 0.0) - child_total)
        weight = int(round(self_s * 1e6))
        if weight > 0:
            weights[label] = weights.get(label, 0) + weight
        for child in span.children:
            walk(child, label)

    for root in build_span_tree(records):
        walk(root, "")
    return "\n".join(
        f"{stack} {weight}" for stack, weight in sorted(weights.items())
    )


def span_report(records: Sequence[dict]) -> str:
    """Span tree digest: per-kind durations plus the critical path."""
    from repro.analysis.tables import Table
    from repro.sim.metrics import Histogram

    spans = parse_spans(records)
    lines = ["span analysis", "=" * 40]
    if not spans:
        lines.append("(no span records; record with trace --spans)")
        return "\n".join(lines)
    open_spans = sum(1 for s in spans.values() if s.end_t is None)
    lines.append(f"spans:           {len(spans)} "
                 f"({open_spans} unclosed)")
    table = Table(
        ["kind", "count", "p50 s", "p95 s", "p99 s", "max s"],
        title="span durations by kind",
    )
    for kind, values in sorted(span_kind_durations(records).items()):
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        table.add_row(
            kind, histogram.count,
            round(histogram.quantile(0.50), 4),
            round(histogram.quantile(0.95), 4),
            round(histogram.quantile(0.99), 4),
            round(histogram.maximum, 4),
        )
    lines.append("")
    lines.append(table.render())
    path = critical_path(records)
    if path:
        lines.append("")
        lines.append("critical path:")
        for depth, span in enumerate(path):
            dur = f"{span.dur_s:.3f} s" if span.dur_s is not None else "open"
            lines.append(f"{'  ' * (depth + 1)}{_stack_label(span)} ({dur})")
    return "\n".join(lines)
