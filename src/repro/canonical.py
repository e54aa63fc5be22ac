"""The one canonical JSON encoding behind every signed, hashed or replayed byte.

Sorted keys, no whitespace, ASCII escapes and ``allow_nan=False``: the
bytes are a pure function of the value, and a non-finite number raises
``ValueError`` instead of reaching a signature or a digest as ``NaN``.
Indented reports and the campaign store's text columns keep their own
formats; nothing signs, hashes or replays them.
"""

from __future__ import annotations

import json

_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_json(value) -> str:
    """The canonical single-line JSON encoding of ``value``."""
    return _ENCODER.encode(value)
