"""Opt-in counters for the per-frame hot path.

Design constraints:

* **near-zero overhead when off** — instrumented sites guard with a single
  module-attribute check (``if counters.ACTIVE:``), no function call, no
  allocation;
* **deterministic** — counters observe the simulation, they never feed back
  into it, so enabling them cannot change RNG draws, event ordering or any
  metric (the byte-identical determinism guarantee is unaffected);
* **process-local** — the registry is a module singleton.

Off by default; ``repro-worksite profile --perf`` turns them on with
:func:`enable` and prints :func:`report`.
"""

from __future__ import annotations

from typing import Dict

#: instrumented sites guard on this module attribute; flipped by enable()
ACTIVE: bool = False

_counts: Dict[str, int] = {}


def enable(on: bool = True) -> None:
    """Turn instrumentation on/off."""
    global ACTIVE
    ACTIVE = bool(on)


def reset() -> None:
    """Drop all recorded counters."""
    _counts.clear()


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (call only under an ``ACTIVE`` guard)."""
    _counts[name] = _counts.get(name, 0) + n


def snapshot() -> dict:
    """Counters and crypto-cache statistics as a plain dict."""
    from repro.comms.crypto.primitives import _cached_keystream

    info = _cached_keystream.cache_info()
    return {
        "counters": dict(_counts),
        "keystream_cache": {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
        },
    }


def batch_summary() -> Dict[str, float]:
    """Derived statistics of the canopy memo and the event queue.

    Computed from the raw counters (canopy memo hit rate, timer-slot
    reuse) so a profile run shows at a glance how often sight lines and
    timers are reused.  Returns an empty dict when none of the counters
    fired.
    """
    c = _counts
    out: Dict[str, float] = {}
    canopy_hits = c.get("world.canopy_cache_hit", 0)
    canopy_total = canopy_hits + c.get("world.canopy_cache_miss", 0)
    if canopy_total:
        out["canopy.memo_hit_rate"] = round(canopy_hits / canopy_total, 3)
    reuse = c.get("engine.timer_slot_reuse", 0)
    if reuse:
        out["engine.timer_slot_reuse"] = reuse
    return out


def report() -> str:
    """Human-readable one-line-per-metric report."""
    snap = snapshot()
    lines = []
    for name in sorted(snap["counters"]):
        lines.append(f"{name:<40} {snap['counters'][name]}")
    cache = snap["keystream_cache"]
    lines.append(
        f"{'crypto.keystream_cache':<40} {cache['hits']} hits, "
        f"{cache['misses']} misses, {cache['size']} entries"
    )
    return "\n".join(lines)
