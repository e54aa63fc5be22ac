"""The anti-replay window every receiver runs (RFC 4303 §3.4.3).

The record layer and both ground-station endpoints admit a number once,
and only while it is within :data:`REPLAY_WINDOW` of the highest one
accepted.  The window is that highest number, ``top`` (``-1`` before
any), plus a bitmap whose bit ``i`` is set once ``top - i`` was accepted.
Receivers ask :meth:`ReplayWindow.verdict` before authenticating and call
:meth:`ReplayWindow.accept` only after, so a forged message never moves
the window.  A jump of a whole window or more starts a fresh bitmap
rather than shifting by the sender's gap.
"""

from __future__ import annotations

from typing import Optional

#: window width: a number this far or further below the highest accepted
#: one is stale
REPLAY_WINDOW = 64

_MASK = (1 << REPLAY_WINDOW) - 1


class ReplayWindow:
    """One receiver's sliding window over one sender's sequence numbers."""

    __slots__ = ("top", "bitmap")

    def __init__(self) -> None:
        self.top = -1
        self.bitmap = 0

    def verdict(self, seq: int) -> Optional[str]:
        """``None`` if ``seq`` is admissible, else ``"replay"`` (already
        accepted) or ``"stale"`` (at or below ``top - REPLAY_WINDOW``).
        Changes nothing."""
        behind = self.top - seq
        if behind < 0:
            return None
        if behind >= REPLAY_WINDOW:
            return "stale"
        return "replay" if self.bitmap >> behind & 1 else None

    def accept(self, seq: int) -> None:
        """Record an authenticated ``seq`` that :meth:`verdict` admitted."""
        ahead = seq - self.top
        if ahead > 0:
            self.bitmap = (
                (self.bitmap << ahead | 1) & _MASK
                if ahead < REPLAY_WINDOW else 1
            )
            self.top = seq
        elif ahead > -REPLAY_WINDOW:
            self.bitmap |= 1 << -ahead
