"""Versioned trace-record schema and the drop-cause taxonomy.

Every line of a trace file is one JSON object with four common fields —
``v`` (schema version), ``i`` (monotonic record index), ``t`` (simulated
time, seconds) and ``type`` (one of :data:`RECORD_TYPES`) — plus the
type-specific fields listed here.  :func:`validate_record` checks one
parsed record against the schema and returns the list of problems (empty
when valid), which is what the CI telemetry-smoke job and the ``trace
--check`` CLI flag run over every emitted line.

The schema is intentionally flat and additive: new optional fields may be
added under the same version; removing or renaming a required field bumps
:data:`SCHEMA_VERSION`.

Span records (:data:`SPAN_TYPES`) are the one structural exception: they
ride the same JSONL stream but carry their own ``si`` index instead of
``i``, because the span layer is opt-in — interleaving spans must leave
the ``i`` sequence of every non-span record untouched so a spans-on trace
stays byte-identical to the spans-off trace on its non-span lines.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

#: bumped when a required field is removed or renamed
SCHEMA_VERSION = 1

#: additive revision under the same major version; 1 added the causal
#: span layer (span.start / span.end records with their own ``si`` index)
SCHEMA_MINOR = 1

#: seconds after an attack window closes during which an alert still
#: counts as a detection: the tracer's ``in_window`` stamp, the
#: alert-attribution invariant and ``IdsManager.score`` all use it
DETECTION_GRACE_S = 30.0

#: fields every event record carries
COMMON_FIELDS = ("v", "i", "t", "type")

#: fields every span record carries (``si`` is the span-record index,
#: a counter separate from ``i`` — see the module docstring)
SPAN_COMMON_FIELDS = ("v", "si", "t", "type")

#: why a frame or record never reached its consumer
DROP_CAUSES: FrozenSet[str] = frozenset({
    # medium verdicts (PHY)
    "dst_unknown",          # destination endpoint not registered
    "dst_unpowered",        # destination radio powered off
    "link_budget",          # SNR draw failed (range, canopy, interference)
    # link layer
    "unassociated_tx",      # sender not associated, frame never aired
    "unassociated_rx",      # receiver not associated, frame discarded
    "duplicate",            # link-level duplicate suppression
    # medium fault injection
    "corrupted",            # in-flight corruption burst (fault campaign)
    # link layer
    "retry_exhausted",      # bounded retransmission gave up (hardened mode)
    # record layer
    "decode_error",         # wire record failed to parse
    "no_channel",           # protected record but no channel established
    "record_rejected",      # secure channel rejected (tamper/replay/profile)
    "message_decode_error",  # opened fine, application decode failed
})

#: required type-specific fields per record type
RECORD_TYPES: Dict[str, FrozenSet[str]] = {
    "trace.meta": frozenset({"schema"}),
    # frame lifecycle: seal -> tx -> medium verdict -> rx/drop
    "record.seal": frozenset({"node", "peer", "profile", "seq", "bytes"}),
    "frame.tx": frozenset({"src", "dst", "frame_type", "seq", "bytes", "channel"}),
    "frame.delivered": frozenset({"src", "dst", "seq", "snr_db", "delay_s"}),
    "frame.drop": frozenset({"src", "dst", "seq", "cause"}),
    "frame.rx": frozenset({"node", "src", "seq", "frame_type"}),
    "record.open": frozenset({"node", "peer", "seq", "msg_type"}),
    "record.drop": frozenset({"node", "peer", "cause"}),
    "link.deauth": frozenset({"node", "src", "accepted"}),
    # attack windows (IDS ground truth)
    "attack.start": frozenset({"attack", "attack_type"}),
    "attack.stop": frozenset({"attack", "attack_type", "duration_s"}),
    # detections
    "ids.alert": frozenset({"detector", "alert_type", "confidence", "in_window"}),
    # safety layer
    "safety.intervention": frozenset({"machine", "action"}),
    "safety.violation": frozenset({"machine", "person", "separation_m"}),
    "safety.near_miss": frozenset({"machine", "person", "separation_m"}),
    # mission progress
    "mission.phase": frozenset({"machine", "phase", "prev"}),
    # fault injection and degraded-mode resilience (additive under v1:
    # records of these types simply never occur in fault-free traces, so
    # the non-perturbation guarantee and the version coexist)
    "fault.inject": frozenset({"fault", "target"}),
    "fault.clear": frozenset({"fault", "target"}),
    "mode.transition": frozenset({"machine", "mode", "prev"}),
    "service.down": frozenset({"service", "cause"}),
    "service.up": frozenset({"service", "outage_s"}),
    # ground-station plane (additive under v1, same discipline as faults:
    # gs.* records never occur when the plane is disabled)
    "gs.command": frozenset({"vehicle", "sender", "command", "counter", "verdict"}),
    "gs.alert": frozenset({"node", "kind", "counter"}),
    "gs.audit": frozenset({"seq", "topic", "sender", "verdict", "hash", "prev"}),
}

#: the causal hierarchy a span may belong to (see repro.telemetry.spans)
SPAN_KINDS: FrozenSet[str] = frozenset({
    "run",            # the whole traced run (root of the span tree)
    "mission.phase",  # one machine's mission phase
    "frame",          # frame lifecycle: tx -> delivered / drop
    "record",         # secure-record lifecycle: seal -> open / drop
    "attack",         # one attack window
    "fault",          # one injected-fault window
    "recovery",       # a machine's non-nominal mode excursion
    "outage",         # one service down -> up episode
})

#: span record types (schema minor 1) with their required fields; ids are
#: deterministic functions of (scenario seed, span-record index)
SPAN_TYPES: Dict[str, FrozenSet[str]] = {
    "span.start": frozenset({"span", "kind", "name"}),
    "span.end": frozenset({"span", "kind", "dur_s"}),
}

#: record types whose ``cause`` field must come from :data:`DROP_CAUSES`
_CAUSE_TYPES = ("frame.drop", "record.drop")


def validate_record(record: object) -> List[str]:
    """Problems with one parsed trace record; empty list means valid."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    problems: List[str] = []
    is_span = record.get("type") in SPAN_TYPES
    for name in SPAN_COMMON_FIELDS if is_span else COMMON_FIELDS:
        if name not in record:
            problems.append(f"missing common field {name!r}")
    version = record.get("v")
    if version is not None and version != SCHEMA_VERSION:
        problems.append(f"schema version {version!r} != {SCHEMA_VERSION}")
    if "t" in record and not isinstance(record["t"], (int, float)):
        problems.append(f"t is {type(record['t']).__name__}, expected number")
    rtype = record.get("type")
    if rtype is None:
        return problems
    required = SPAN_TYPES.get(rtype) if is_span else RECORD_TYPES.get(rtype)
    if required is None:
        problems.append(f"unknown record type {rtype!r}")
        return problems
    for name in sorted(required):
        if name not in record:
            problems.append(f"{rtype}: missing field {name!r}")
    if rtype in _CAUSE_TYPES:
        cause = record.get("cause")
        if cause is not None and cause not in DROP_CAUSES:
            problems.append(f"{rtype}: unknown drop cause {cause!r}")
    if is_span:
        kind = record.get("kind")
        if kind is not None and kind not in SPAN_KINDS:
            problems.append(f"{rtype}: unknown span kind {kind!r}")
        si = record.get("si")
        if si is not None and not isinstance(si, int):
            problems.append(
                f"{rtype}: si is {type(si).__name__}, expected integer"
            )
    return problems


def validate_trace(records) -> List[str]:
    """Validate an iterable of records; problems are prefixed by index."""
    problems: List[str] = []
    count = 0
    for idx, record in enumerate(records):
        count += 1
        for problem in validate_record(record):
            problems.append(f"record {idx}: {problem}")
        if idx == 0 and isinstance(record, dict) and record.get("type") != "trace.meta":
            problems.append("record 0: trace must start with a trace.meta record")
    if count == 0:
        problems.append("trace is empty")
    return problems
