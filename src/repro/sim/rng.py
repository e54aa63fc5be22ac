"""Named deterministic random-number streams.

Every stochastic component in the simulation draws from its own named child
stream of a single master seed.  Two runs with the same master seed therefore
produce bit-identical event logs, and adding a new consumer of randomness does
not perturb the draws seen by existing consumers — a property plain shared
``random.Random`` instances do not have.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 over the canonical encoding so the mapping is stable across
    Python versions and platforms (unlike ``hash()``).
    """
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def backoff_delay(base_s: float, factor: float, attempt: int,
                  cap_s: float) -> float:
    """Exponential backoff before retry ``attempt`` (1-based), without
    jitter: ``min(base_s * factor ** (attempt - 1), cap_s)``.

    The one schedule both retry policies share (the link layer's ACK
    timeouts and the sweep's per-cell retries); each adds its own jitter.
    """
    return min(base_s * factor ** max(0, attempt - 1), cap_s)


class RngStreams:
    """A factory of named, independent ``random.Random`` streams.

    Examples
    --------
    >>> streams = RngStreams(42)
    >>> weather_rng = streams.stream("weather")
    >>> sensor_rng = streams.stream("sensor.camera.fwd-1")
    >>> streams.stream("weather") is weather_rng
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        rng = random.Random(derive_seed(self.master_seed, name))
        self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RngStreams":
        """Create a child factory whose streams are independent of this one."""
        return RngStreams(derive_seed(self.master_seed, f"spawn:{name}"))

    @property
    def names(self) -> list:
        """Names of all streams created so far, in creation order."""
        return list(self._streams)
