"""On-disk corpus for the coverage-guided fuzzer.

A corpus directory is the fuzzer's entire state, laid out so that every
file is a pure function of the master seed and the iteration count:

``corpus.jsonl``
    One canonical-JSON line per coverage-increasing spec, in discovery
    order: ``{"schema", "key", "origin", "new_signatures", "spec"}``.
``coverage.json``
    The persisted :class:`~repro.fuzz.coverage.CoverageMap`.
``state.json``
    Resume bookkeeping: master seed, iterations done, failure counters
    and the accumulated risk-heatmap cells.
``failures/<origin>-<key>.json``
    One shrink report per failing spec
    (see :func:`repro.fuzz.shrink.shrink_report`).
``report.json``
    The risk-heatmap report over the explored space, rewritten at the
    end of every session (see :func:`repro.telemetry.analysis.fuzz_report`).

All JSON is written with sorted keys and a trailing newline, so two
sessions with the same seed and budget produce byte-identical trees —
the property the CI smoke job and the acceptance check both diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.canonical import canonical_json
from repro.fuzz.coverage import COVERAGE_SCHEMA, CoverageMap
from repro.inputs import InputError, iter_json_objects, read_json_object
from repro.runner.spec import RunSpec

STATE_SCHEMA = 1

#: the integer counters a resumed session reads from ``state.json`` and
#: from each of its heatmap cells
_STATE_COUNTS = ("iterations_done", "failures", "unshrinkable",
                 "seed_signatures")
_CELL_COUNTS = ("runs", "new_signatures", "violations", "failures")


def _counts(data: object, *keys: str) -> bool:
    """Whether ``data`` is an object with an integer at every key."""
    return isinstance(data, dict) and all(
        type(data.get(key)) is int for key in keys
    )


def _dump(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


class Corpus:
    """Load, append to, and persist one corpus directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.entries: List[dict] = []
        self.coverage = CoverageMap()
        self.state: dict = {
            "schema": STATE_SCHEMA,
            "seed": None,
            "iterations_done": 0,
            "failures": 0,
            "unshrinkable": 0,
            "seed_signatures": 0,
            "heatmap": {},
        }

    # -- paths --------------------------------------------------------------
    @property
    def corpus_path(self) -> Path:
        return self.root / "corpus.jsonl"

    @property
    def coverage_path(self) -> Path:
        return self.root / "coverage.json"

    @property
    def state_path(self) -> Path:
        return self.root / "state.json"

    @property
    def failures_dir(self) -> Path:
        return self.root / "failures"

    @property
    def report_path(self) -> Path:
        return self.root / "report.json"

    # -- lifecycle ----------------------------------------------------------
    def exists(self) -> bool:
        return self.state_path.exists()

    def load(self) -> "Corpus":
        """Load a previously persisted corpus for ``--resume``; a file this
        version did not write raises :class:`InputError`."""
        state = read_json_object(self.state_path, STATE_SCHEMA)
        cells = state.get("heatmap")
        if not ("seed" in state and _counts(state, *_STATE_COUNTS)
                and isinstance(cells, dict) and all(
                    _counts(cell, *_CELL_COUNTS) for cell in cells.values())):
            raise InputError(f"{self.state_path} is not a corpus state "
                             "this version of repro resumes")
        self.state = state
        if self.coverage_path.exists():
            coverage = read_json_object(self.coverage_path, COVERAGE_SCHEMA)
            hits = coverage.get("signatures")
            if not (isinstance(hits, dict)
                    and all(_counts(hit, "count") for hit in hits.values())):
                raise InputError(f"{self.coverage_path} is not a coverage "
                                 "map this version of repro reads")
            self.coverage = CoverageMap.from_dict(coverage)
        self.entries = []
        if self.corpus_path.exists():
            for number, entry in iter_json_objects(self.corpus_path):
                try:
                    RunSpec.from_dict(entry.get("spec"))
                except InputError as exc:
                    raise InputError(
                        f"{self.corpus_path}:{number}: {exc}"
                    ) from None
                self.entries.append(entry)
        return self

    def save(self) -> None:
        """Persist coverage and state (corpus/failures are append-on-add)."""
        self.root.mkdir(parents=True, exist_ok=True)
        _dump(self.coverage_path, self.coverage.to_dict())
        _dump(self.state_path, self.state)

    # -- content ------------------------------------------------------------
    def specs(self) -> List[RunSpec]:
        """The corpus entries rehydrated as run specs, discovery order."""
        return [RunSpec.from_dict(entry["spec"]) for entry in self.entries]

    def add_entry(
        self, spec: RunSpec, origin: str, new_signatures: List[str]
    ) -> dict:
        """Append one coverage-increasing spec to ``corpus.jsonl``."""
        entry = {
            "schema": STATE_SCHEMA,
            "key": spec.key,
            "origin": origin,
            "new_signatures": list(new_signatures),
            "spec": spec.to_dict(),
        }
        self.entries.append(entry)
        self.root.mkdir(parents=True, exist_ok=True)
        with self.corpus_path.open("a", encoding="utf-8") as handle:
            handle.write(canonical_json(entry) + "\n")
        return entry

    def add_failure(self, origin: str, key: str, report: dict) -> Path:
        """Persist one shrink report under ``failures/``."""
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        path = self.failures_dir / f"{origin.replace(':', '-')}-{key}.json"
        _dump(path, report)
        return path

    def write_report(self, report: dict) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        _dump(self.report_path, report)
        return self.report_path

    # -- heatmap accumulation ----------------------------------------------
    def record_cell(
        self,
        spec: RunSpec,
        *,
        new_signatures: int,
        violations: int,
        failed: bool,
    ) -> None:
        """Fold one evaluated run into its risk-heatmap cell.

        Cells are keyed ``<campaign-label>|<sorted fault kinds>`` — the
        two axes the paper's risk argument slices on (what attack was
        composed, what faults were concurrently injected).
        """
        kinds = sorted({fault[0] for fault in spec.faults}) or ["none"]
        cell_key = f"{spec.campaign}|{'+'.join(kinds)}"
        cell = self.state["heatmap"].setdefault(
            cell_key,
            {"runs": 0, "new_signatures": 0, "violations": 0, "failures": 0},
        )
        cell["runs"] += 1
        cell["new_signatures"] += int(new_signatures)
        cell["violations"] += int(violations)
        cell["failures"] += int(bool(failed))
