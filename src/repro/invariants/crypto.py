"""SecureChannel record-layer invariants: nonce uniqueness, replay window.

Both invariants watch the ``record.seal`` / ``record.open`` stream per
channel *direction* (``node -> peer``).  The record nonce is a pure
function of the sequence number (:func:`nonce_from_sequence`), so nonce
uniqueness under one key is exactly sequence-number discipline:

* the sealer's sequence increments by exactly one per record — a gap is a
  skipped nonce, a repeat or regression is nonce reuse;
* the opener never accepts a sequence number twice, nor one that fell
  below the sliding replay window.

A rejoin (recovery re-handshake) replaces the channel and restarts its
sequence at 1 under fresh keys; both invariants treat ``seq == 1`` as an
epoch reset.  Plaintext records carry no nonce at all — the sealer-side
check skips them, and the opener-side check skips directions whose
reverse seal stream was observed as plaintext.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.comms.crypto.replay import REPLAY_WINDOW
from repro.invariants.base import Invariant, Violation

Direction = Tuple[str, str]


class NonceSequenceInvariant(Invariant):
    """Sealed record sequence numbers increment by exactly one.

    Checked per ``(node, peer)`` direction over non-plaintext
    ``record.seal`` records; ``seq == 1`` starts a new epoch (rekey).
    """

    name = "crypto.nonce_sequence"
    subsystem = "comms.crypto"

    def __init__(self) -> None:
        self._last: Dict[Direction, int] = {}

    def observe(self, record: dict) -> Iterator[Violation]:
        if record.get("type") != "record.seal":
            return
        if record.get("profile") == "plaintext":
            return
        direction = (record.get("node"), record.get("peer"))
        seq = record.get("seq")
        if not isinstance(seq, int):
            yield self.violation(
                record, f"seal seq {seq!r} is not an integer",
                node=direction[0], peer=direction[1],
            )
            return
        last = self._last.get(direction)
        if seq == 1 or last is None:
            # first record of a channel epoch (fresh keys, fresh nonces)
            self._last[direction] = seq
            return
        if seq == last + 1:
            self._last[direction] = seq
            return
        if seq > last + 1:
            message = (
                f"skipped nonce: seal seq jumped {last} -> {seq} "
                f"on {direction[0]}->{direction[1]}"
            )
        else:
            message = (
                f"nonce reuse: seal seq regressed {last} -> {seq} "
                f"on {direction[0]}->{direction[1]}"
            )
        self._last[direction] = seq
        yield self.violation(
            record, message,
            node=direction[0], peer=direction[1],
            expected=last + 1, observed=seq,
        )


class ReplayWindowInvariant(Invariant):
    """Opened record sequence numbers are unique and above the window.

    A ``record.open`` whose seq was already accepted in the current epoch
    means a replayed record got through; one at or below
    ``max_seen - REPLAY_WINDOW`` means the sliding window stopped being
    enforced.  Directions whose reverse ``record.seal`` stream is
    plaintext are exempt (no replay protection is promised there).  The
    seen sets are kept here on purpose, as a reference independent of the
    channel's bitmap :class:`~repro.comms.crypto.replay.ReplayWindow`.
    """

    name = "crypto.replay_window"
    subsystem = "comms.crypto"

    def __init__(self, window: int = REPLAY_WINDOW) -> None:
        self.window = window
        self._seen: Dict[Direction, Set[int]] = {}
        self._max: Dict[Direction, int] = {}
        self._plaintext: Set[Direction] = set()

    def observe(self, record: dict) -> Iterator[Violation]:
        rtype = record.get("type")
        if rtype == "record.seal":
            if record.get("profile") == "plaintext":
                # the opener of this direction sees unprotected records
                self._plaintext.add((record.get("node"), record.get("peer")))
            elif record.get("seq") == 1:
                # a rejoin re-handshake restarted the sealer's epoch; the
                # opener's state resets too, even if this first record is
                # lost in transit (seal causally precedes any open)
                reverse = (record.get("peer"), record.get("node"))
                self._seen.pop(reverse, None)
                self._max.pop(reverse, None)
            return
        if rtype != "record.open":
            return
        node, peer = record.get("node"), record.get("peer")
        if (peer, node) in self._plaintext:
            return
        direction = (node, peer)
        seq = record.get("seq")
        if not isinstance(seq, int):
            yield self.violation(
                record, f"open seq {seq!r} is not an integer",
                node=node, peer=peer,
            )
            return
        if seq == 1:
            # epoch reset: rejoin re-handshake replaced the channel
            self._seen[direction] = {1}
            self._max[direction] = 1
            return
        seen = self._seen.setdefault(direction, set())
        top = self._max.get(direction, 0)
        if seq in seen:
            yield self.violation(
                record,
                f"replayed record accepted: seq {seq} opened twice "
                f"on {node}<-{peer}",
                node=node, peer=peer, seq=seq,
            )
            return
        if seq <= top - self.window:
            yield self.violation(
                record,
                f"record seq {seq} accepted below the replay window "
                f"(max seen {top}, window {self.window}) on {node}<-{peer}",
                node=node, peer=peer, seq=seq, max_seen=top,
            )
            return
        seen.add(seq)
        if seq > top:
            self._max[direction] = seq
        floor = self._max[direction] - self.window
        if len(seen) > 2 * self.window:
            self._seen[direction] = {s for s in seen if s > floor}
