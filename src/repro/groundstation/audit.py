"""Hash-chained append-only audit log and its offline verifier.

Every message the control station observes (accepted or rejected) becomes
one audit entry.  Entries are tamper-evident in layers:

1. **chain** — each entry carries ``prev``, the hash of its predecessor
   (genesis derived from the run seed), so any edit breaks every hash from
   that point on;
2. **hash** — each entry's ``hash`` is the SHA-256 of its canonical JSON
   encoding (minus ``hash``/``sig``), so a naive field edit is caught even
   before the chain break;
3. **sig** — each entry's ``sig`` is an HMAC of the hash under the station
   key, so an adversary who *recomputes* the chain after an edit still
   cannot re-sign it without the key;
4. **counter/time** — per-sender counters of accepted messages must be
   strictly increasing and timestamps non-decreasing, so even a key-holding
   insider who re-signs a rewritten log is caught rolling history back;
5. **close** — the final entry has ``kind == "close"``, so truncating the
   tail leaves the log visibly incomplete.

The log is written line-wise with a flush per entry (same torn-tail
discipline as :class:`~repro.telemetry.writer.TraceWriter`): a crashed run
leaves at most one incomplete final line, which the file verifier drops and
reports as a torn tail rather than a tamper.

The whole structure is a pure function of the run seed and the message
stream, so same-seed runs produce byte-identical chains.
"""

from __future__ import annotations

import hashlib
from typing import IO, List, Optional, Sequence

from repro.canonical import canonical_json
from repro.comms.crypto.primitives import hmac_sha256
from repro.inputs import InputError, decode_json

#: domain separator for entry signatures (distinct from the message codec)
AUDIT_SIG_DOMAIN = b"repro-gs-audit:v1:"

#: audit file format version (header field ``audit``)
AUDIT_VERSION = 1

#: the principal whose key signs audit entries
AUDIT_PRINCIPAL = "audit"

#: per-entry checks in the order the verifier applies them
CHECKS = ("sequence", "chain", "hash", "sig", "counter", "time", "close")


def genesis_hash(seed: int) -> str:
    """The chain anchor: a pure function of the run seed."""
    return hashlib.sha256(
        b"repro-gs-genesis:" + str(int(seed)).encode("utf-8")
    ).hexdigest()


def station_key(seed: int) -> bytes:
    """The audit-signing key (derivable offline from the seed)."""
    from repro.groundstation.keys import GsKeyring

    return GsKeyring(seed).key_for(AUDIT_PRINCIPAL)


def entry_hash(entry: dict) -> str:
    """SHA-256 over the canonical entry minus ``hash``/``sig``."""
    body = {k: v for k, v in entry.items() if k not in ("hash", "sig")}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def entry_sig(entry_hash_hex: str, key: bytes) -> str:
    """HMAC over the entry hash under the station key."""
    return hmac_sha256(
        key, AUDIT_SIG_DOMAIN + entry_hash_hex.encode("utf-8")
    ).hex()


class AuditLog:
    """The append-only chain built while a run executes.

    Parameters
    ----------
    seed:
        Run seed; anchors the genesis hash and derives the station key.
    key:
        Station signing key (pass :func:`station_key` of the same seed; the
        parameter exists so tests can exercise wrong-key signing).
    path:
        Optional JSONL file; the header line is written immediately and
        each entry is flushed as it is appended so a killed run leaves at
        most one torn final line.
    """

    def __init__(
        self, seed: int, key: Optional[bytes] = None, path: Optional[str] = None
    ) -> None:
        self.seed = int(seed)
        self.key = key if key is not None else station_key(self.seed)
        self.genesis = genesis_hash(self.seed)
        self.entries: List[dict] = []
        self.head: str = self.genesis
        self.closed = False
        self._fh: Optional[IO[str]] = None
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8")
            self._write_line(self.header())

    def header(self) -> dict:
        return {
            "audit": AUDIT_VERSION,
            "genesis": self.genesis,
            "seed": self.seed,
        }

    def _write_line(self, obj: dict) -> None:
        if self._fh is not None:
            self._fh.write(canonical_json(obj) + "\n")
            self._fh.flush()

    def append(
        self,
        t: float,
        topic: str,
        sender: str,
        counter: int,
        kind: str,
        verdict: str,
        wire: bytes = b"",
    ) -> dict:
        """Chain, hash, sign and persist one entry; returns it."""
        if self.closed:
            raise RuntimeError("audit log is closed")
        entry = {
            "seq": len(self.entries),
            "t": round(float(t), 6),
            "topic": str(topic),
            "sender": str(sender),
            "counter": int(counter),
            "kind": str(kind),
            "verdict": str(verdict),
            "digest": hashlib.sha256(bytes(wire)).hexdigest(),
            "prev": self.head,
        }
        entry["hash"] = entry_hash(entry)
        entry["sig"] = entry_sig(entry["hash"], self.key)
        self.entries.append(entry)
        self.head = entry["hash"]
        self._write_line(entry)
        from repro.telemetry import tracer as trace

        if trace.ACTIVE:
            trace.TRACER.gs_audit(
                seq=entry["seq"], topic=entry["topic"], sender=entry["sender"],
                verdict=entry["verdict"], hash=entry["hash"], prev=entry["prev"],
            )
        return entry

    def close(self, t: float) -> Optional[dict]:
        """Append the terminal ``close`` entry and release the file.

        Idempotent: a second close is a no-op (crash-recovery paths may
        race a normal shutdown).
        """
        if self.closed:
            return None
        entry = self.append(
            t, "gs/audit", AUDIT_PRINCIPAL, len(self.entries), "close", "close"
        )
        self.closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return entry

    def summary(self) -> dict:
        return {
            "entries": len(self.entries),
            "head": self.head,
            "closed": self.closed,
            "genesis": self.genesis,
        }


def verify_chain(
    entries: Sequence[dict],
    seed: int,
    *,
    require_close: bool = True,
    key: Optional[bytes] = None,
) -> dict:
    """Offline verification of a chain; everything derives from the seed.

    Returns a structured report::

        {"ok": bool, "complete": bool, "entries": int, "seed": int,
         "head": hex, "violations": [{"index", "seq", "check", "message"}]}

    ``ok`` means no violations; ``complete`` additionally requires the
    terminal close entry (``require_close=False`` relaxes *ok* for
    crash-recovered logs while still reporting incompleteness).
    Per-entry checks run in :data:`CHECKS` order and every violation is
    localised to the index of the offending entry.
    """
    seed = int(seed)
    sig_key = key if key is not None else station_key(seed)
    violations: List[dict] = []

    def flag(index: int, check: str, message: str) -> None:
        seq = None
        if 0 <= index < len(entries) and isinstance(entries[index], dict):
            seq = entries[index].get("seq")
        violations.append(
            {"index": index, "seq": seq, "check": check, "message": message}
        )

    prev = genesis_hash(seed)
    counters: dict = {}
    last_t: Optional[float] = None
    close_at: Optional[int] = None
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            flag(index, "hash", "entry is not an object")
            break
        missing = {
            "seq", "t", "topic", "sender", "counter", "kind",
            "verdict", "digest", "prev", "hash", "sig",
        } - set(entry)
        if missing:
            flag(index, "hash", f"entry missing fields {sorted(missing)}")
            break
        if entry["seq"] != index:
            flag(index, "sequence", f"seq {entry['seq']} at position {index}")
        if entry["prev"] != prev:
            flag(index, "chain", f"prev does not match hash of entry {index - 1}"
                 if index else "prev does not match the genesis hash")
        expected_hash = entry_hash(entry)
        if entry["hash"] != expected_hash:
            flag(index, "hash", "entry hash does not match its contents")
        elif entry["sig"] != entry_sig(entry["hash"], sig_key):
            # only meaningful when the hash itself is intact: a field edit
            # already invalidates the hash, so sig flags *re-signed* chains
            flag(index, "sig", "entry signature fails under the station key")
        if close_at is not None:
            flag(index, "close", f"entry after close entry {close_at}")
        if entry["kind"] == "close":
            close_at = index
        # a sender, counter or t of the wrong type cannot be compared: it
        # is flagged at its entry, and verification goes on
        sender, counter, t = entry["sender"], entry["counter"], entry["t"]
        if type(sender) is not str:
            flag(index, "counter", f"sender {sender!r} is not a string")
        elif type(counter) is not int:
            flag(index, "counter", f"counter {counter!r} is not an integer")
        elif (entry["kind"] != "close"
              and entry["verdict"] in ("ok", "executed")):
            last = counters.get(sender)
            if last is not None and counter <= last:
                flag(
                    index, "counter",
                    f"counter {counter} not above {last} "
                    f"for sender {sender!r}",
                )
            else:
                counters[sender] = counter
        if type(t) not in (int, float):
            flag(index, "time", f"t {t!r} is not a number")
        else:
            if last_t is not None and t < last_t:
                flag(index, "time", f"t {t} before predecessor {last_t}")
            last_t = t
        # chain forward from the *recorded* hash so one corrupt entry
        # yields one localised violation, not a cascade to the tail
        prev = entry["hash"] if isinstance(entry["hash"], str) else prev

    complete = close_at is not None and not violations
    if close_at is None and require_close:
        flag(max(len(entries) - 1, 0), "close",
             "chain has no terminal close entry (truncated?)")
    ok = not violations
    return {
        "ok": ok,
        "complete": complete,
        "entries": len(entries),
        "seed": seed,
        "genesis": genesis_hash(seed),
        "head": entries[-1]["hash"] if entries and isinstance(
            entries[-1], dict) and isinstance(
            entries[-1].get("hash"), str) else genesis_hash(seed),
        "violations": violations,
    }


def load_audit_file(path: str) -> dict:
    """Parse an audit JSONL file into ``{"header", "entries", "torn_tail"}``.

    A torn final line (killed writer) is dropped and flagged, never treated
    as a tamper: flush-per-entry guarantees at most one incomplete line.
    Any other line that does not parse, or a missing or foreign header,
    raises :class:`InputError`.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    parsed: List[dict] = []
    torn_tail = False
    for i, line in enumerate(lines):
        try:
            parsed.append(decode_json(line.decode("utf-8")))
        except ValueError:
            if i == len(lines) - 1:
                torn_tail = True
                break
            raise InputError(f"{path}:{i + 1}: unparseable audit line")
    if not parsed:
        raise InputError(f"{path}: no audit header")
    header, entries = parsed[0], parsed[1:]
    if not isinstance(header, dict) or header.get("audit") != AUDIT_VERSION:
        raise InputError(f"{path}: not an audit v{AUDIT_VERSION} file")
    return {"header": header, "entries": entries, "torn_tail": torn_tail}


def verify_audit_file(path: str, *, require_close: bool = True) -> dict:
    """Verify a persisted audit log; the header supplies the seed.

    The header's recorded genesis is cross-checked against the seed-derived
    one, so editing the header seed breaks at entry 0 (the chain no longer
    anchors) *and* is reported as a header violation.
    """
    loaded = load_audit_file(path)
    header = loaded["header"]
    seed = header.get("seed", 0)
    if type(seed) is not int:
        raise InputError(f"{path}: header seed {seed!r} is not an integer")
    report = verify_chain(
        loaded["entries"], seed, require_close=require_close
    )
    if header.get("genesis") != genesis_hash(seed):
        report["violations"].insert(0, {
            "index": -1, "seq": None, "check": "chain",
            "message": "header genesis does not match the seed",
        })
        report["ok"] = False
        report["complete"] = False
    report["path"] = path
    report["torn_tail"] = loaded["torn_tail"]
    if loaded["torn_tail"]:
        report["complete"] = False
    return report


def evidence_from_report(report: dict):
    """Package a verification report for the assurance evidence registry."""
    from repro.assurance.evidence import Evidence

    return Evidence(
        key="gs.audit_chain",
        kind="analysis",
        description=(
            "Ground-station audit chain verified: hash chain, signatures, "
            "counters and close entry checked offline from the run seed."
        ),
        source="repro.groundstation.audit.verify_chain",
        produced_at=0.0,
        valid_for_s=None,
        data={
            "ok": report["ok"],
            "complete": report["complete"],
            "entries": report["entries"],
            "seed": report["seed"],
            "head": report["head"],
            "violations": len(report["violations"]),
        },
    )
