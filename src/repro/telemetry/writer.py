"""Streaming JSONL trace writer with a canonical, deterministic encoding.

One record per line in :func:`repro.canonical.canonical_json`, so the
bytes on disk are a pure function of the record stream: the same scenario
and seed write byte-identical files on every run, and a non-finite value
is an immediate error rather than a silent ``NaN`` token.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List

from repro.canonical import canonical_json
from repro.inputs import InputError, iter_json_objects
from repro.telemetry.schema import SCHEMA_VERSION


class TraceWriter:
    """Append trace records to a JSONL file, one canonical line each.

    The file is opened lazily on the first write (so constructing a writer
    for a run that emits nothing leaves no empty file behind) and must be
    closed — directly or via the context-manager protocol — before the
    bytes are compared or parsed.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None

    def write(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8", newline="\n")
        self._fh.write(canonical_json(record))
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: os.PathLike) -> List[dict]:
    """All records of a trace file, in file order."""
    return list(iter_trace(path))


def iter_trace(path: os.PathLike) -> Iterator[dict]:
    """Yield records from a JSONL trace file one at a time; a line that is
    not a JSON object whose ``"v"`` is :data:`SCHEMA_VERSION` (every record
    the tracer writes carries it) raises :class:`InputError`."""
    for number, record in iter_json_objects(path):
        if record.get("v") != SCHEMA_VERSION:
            raise InputError(f"{path}:{number}: trace schema version "
                             f"{record.get('v')!r}; this version of repro "
                             f"reads version {SCHEMA_VERSION} only")
        yield record
