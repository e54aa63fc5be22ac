"""The sweep's result store: SQLite (WAL) with campaigns / cells / attempts.

Every sweep writes through this store, so each cell's result, *how* it got
that result, and the history of every attempt survive restarts and can be
queried across runs:

* ``campaigns`` — one row per named campaign (grid), with JSON metadata;
* ``cells`` — one row per unique run spec in a campaign: canonical spec
  JSON, lifecycle status (``pending → running → ok | failed``), attempt
  count, and the full final record once one exists;
* ``attempts`` — one row per execution attempt, successful or not: the
  attempt-status taxonomy from :mod:`repro.runner.dispatch` (``ok`` /
  ``failed`` / ``lost`` / ``timeout`` / ``error``), the error text, wall
  time and worker pid.  Crash forensics are a ``SELECT``, not a log dig.

The database is opened in WAL mode, so a concurrently-running
``repro-worksite campaign show`` (or the chaos tests' poll loop) reads a
consistent snapshot while the sweep writes.  Timestamps are wall-clock
and live outside every ``result`` payload — the determinism contract
("``result`` is a pure function of the spec") is untouched, which is what
makes the kill-and-resume acceptance test's byte-identical comparison
meaningful.

JSON Lines is an export format, defined here alongside its reader:
:func:`export_jsonl` writes a sweep's records one canonical line each, and
:meth:`CampaignStore.import_jsonl` promotes such a file (or a JSONL result
store written before SQLite became the only store) into a campaign.
:meth:`CampaignStore.bind` returns the per-campaign adapter the sweep
engine writes through (``completed_keys`` / ``append`` / ``mark_running``
/ ``record_attempt``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import closing
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.inputs import InputError, decode_json
from repro.runner.spec import RunSpec

#: campaign database layout version (stored in ``PRAGMA user_version``)
CAMPAIGN_SCHEMA = 1

#: fields a JSON column's object must carry: every stored final record
#: has the ones resume reads back
_REQUIRED_FIELDS = {"cells.record": ("key", "spec", "status")}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id         INTEGER PRIMARY KEY,
    name       TEXT NOT NULL UNIQUE,
    created_s  REAL NOT NULL,
    meta       TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS cells (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    key         TEXT NOT NULL,
    ord         INTEGER NOT NULL,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    record      TEXT,
    PRIMARY KEY (campaign_id, key)
);
CREATE TABLE IF NOT EXISTS attempts (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    key         TEXT NOT NULL,
    attempt     INTEGER NOT NULL,
    status      TEXT NOT NULL,
    error       TEXT,
    wall_s      REAL,
    pid         INTEGER,
    recorded_s  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_attempts_cell
    ON attempts (campaign_id, key, attempt);
"""


class CampaignSchemaError(InputError):
    """The file is not a campaign database of this schema version (or, with
    ``found`` None, not an SQLite database at all)."""

    def __init__(self, path: os.PathLike, found: Optional[int],
                 reason: str = "") -> None:
        super().__init__(
            f"{path} cannot be read as an SQLite database: {reason}"
            if found is None else
            f"{path} has campaign schema version {found}; this version of "
            f"repro reads schema version {CAMPAIGN_SCHEMA} only"
        )
        self.path = path
        self.found = found


class CampaignStore:
    """SQLite-backed store for durable, resumable sweep campaigns.

    Raises :class:`CampaignSchemaError`, without writing anything, when the
    file is not an SQLite database or carries a schema version other than
    :data:`CAMPAIGN_SCHEMA`; a new file (version 0) is stamped with the
    current version.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # read the version on a plain connection: _connect() switches the
        # journal mode, which already writes to the file
        try:
            with closing(sqlite3.connect(self.path, timeout=30.0)) as conn:
                (found,) = conn.execute("PRAGMA user_version").fetchone()
        except sqlite3.DatabaseError as exc:
            raise CampaignSchemaError(self.path, None, str(exc)) from None
        if found not in (0, CAMPAIGN_SCHEMA):
            raise CampaignSchemaError(self.path, found)
        with closing(self._connect()) as conn, conn:
            conn.executescript(_SCHEMA)
            if found == 0:
                conn.execute(f"PRAGMA user_version = {CAMPAIGN_SCHEMA}")

    def _connect(self) -> sqlite3.Connection:
        # one short-lived connection per operation: nothing to invalidate
        # across the pool workers' forks, and WAL readers never block us
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        return conn

    # -- campaigns ----------------------------------------------------------

    def campaign_id(self, name: str) -> Optional[int]:
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else int(row["id"])

    def ensure_campaign(
        self,
        name: str,
        specs: Sequence[RunSpec] = (),
        meta: Optional[dict] = None,
    ) -> int:
        """Create ``name`` if needed and make sure every spec has a cell.

        Idempotent: re-ensuring an existing campaign only adds the cells
        it is missing (a grown grid extends the campaign in place).
        """
        with closing(self._connect()) as conn, conn:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                cursor = conn.execute(
                    "INSERT INTO campaigns (name, created_s, meta) "
                    "VALUES (?, ?, ?)",
                    (name, time.time(),
                     json.dumps(meta or {}, sort_keys=True)),
                )
                campaign = int(cursor.lastrowid)
            else:
                campaign = int(row["id"])
            self._add_cells(conn, campaign, specs)
        return campaign

    def _add_cells(self, conn, campaign: int,
                   specs: Sequence[RunSpec]) -> None:
        row = conn.execute(
            "SELECT COALESCE(MAX(ord) + 1, 0) AS nxt FROM cells "
            "WHERE campaign_id = ?", (campaign,)
        ).fetchone()
        nxt = int(row["nxt"])
        for spec in specs:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO cells "
                "(campaign_id, key, ord, spec) VALUES (?, ?, ?, ?)",
                (campaign, spec.key, nxt,
                 json.dumps(spec.to_dict(), sort_keys=True)),
            )
            if cursor.rowcount:
                nxt += 1

    def list_campaigns(self) -> List[dict]:
        """Per-campaign summary rows: cell status counts, total attempts."""
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT c.id, c.name, c.created_s, c.meta,"
                " COUNT(l.key) AS cells,"
                " SUM(l.status = 'ok') AS ok,"
                " SUM(l.status = 'failed') AS failed,"
                " SUM(l.status IN ('pending', 'running')) AS pending,"
                " COALESCE(SUM(l.attempts), 0) AS attempts"
                " FROM campaigns c LEFT JOIN cells l"
                " ON l.campaign_id = c.id"
                " GROUP BY c.id ORDER BY c.id",
            ).fetchall()
        return [
            {
                "name": row["name"],
                "created_s": row["created_s"],
                "meta": self._decode(row["meta"], "campaigns.meta",
                                     row["name"]),
                "cells": int(row["cells"] or 0),
                "ok": int(row["ok"] or 0),
                "failed": int(row["failed"] or 0),
                "pending": int(row["pending"] or 0),
                "attempts": int(row["attempts"] or 0),
            }
            for row in rows
        ]

    def show(self, name: str) -> dict:
        """One campaign's full picture: summary plus per-cell lifecycle."""
        campaign = self._require(name)
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT key, ord, spec, status, attempts, record FROM cells"
                " WHERE campaign_id = ? ORDER BY ord", (campaign,)
            ).fetchall()
            errors = {
                row["key"]: row["error"]
                for row in conn.execute(
                    "SELECT key, error FROM attempts"
                    " WHERE campaign_id = ? AND error IS NOT NULL"
                    " ORDER BY id", (campaign,)
                )
            }
        cells = []
        for row in rows:
            spec, run_spec = self._cell_spec(row, name)
            cells.append({
                "key": row["key"],
                "label": run_spec.label,
                "spec": spec,
                "status": row["status"],
                "attempts": int(row["attempts"]),
                "last_error": errors.get(row["key"]),
            })
        summary = next(
            (c for c in self.list_campaigns() if c["name"] == name), {}
        )
        summary["cells_detail"] = cells
        return summary

    def specs(self, name: str) -> List[RunSpec]:
        """The campaign's grid, in original declaration order."""
        campaign = self._require(name)
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT key, spec FROM cells WHERE campaign_id = ?"
                " ORDER BY ord", (campaign,)
            ).fetchall()
        return [self._cell_spec(row, name)[1] for row in rows]

    def attempts(self, name: str, key: Optional[str] = None) -> List[dict]:
        """Every recorded execution attempt, oldest first."""
        campaign = self._require(name)
        query = ("SELECT key, attempt, status, error, wall_s, pid,"
                 " recorded_s FROM attempts WHERE campaign_id = ?")
        params: tuple = (campaign,)
        if key is not None:
            query += " AND key = ?"
            params += (key,)
        with closing(self._connect()) as conn:
            rows = conn.execute(query + " ORDER BY id", params).fetchall()
        return [dict(row) for row in rows]

    def _require(self, name: str) -> int:
        campaign = self.campaign_id(name)
        if campaign is None:
            raise InputError(f"no campaign named {name!r} in {self.path}")
        return campaign

    def _decode(self, text, column: str, campaign: str,
                key: Optional[str] = None) -> dict:
        """A JSON-object column of one row.  Anything else — not JSON, a
        non-finite number, not an object, or a ``cells.record`` without
        ``key``, ``spec`` and ``status`` — raises :class:`InputError`
        naming the database, the campaign, the cell and the column."""
        where = self._where(column, campaign, key)
        try:
            value = decode_json(text)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where} is not valid JSON: {exc}") from None
        if not isinstance(value, dict):
            raise InputError(f"{where} holds a JSON "
                             f"{type(value).__name__}, not an object")
        missing = [field for field in _REQUIRED_FIELDS.get(column, ())
                   if field not in value]
        if missing:
            raise InputError(f"{where} lacks {missing}")
        return value

    def _cell_spec(self, row, campaign: str) -> Tuple[dict, RunSpec]:
        """A cell row's ``cells.spec`` and the :class:`RunSpec` it
        describes; a spec that does not convert raises
        :class:`InputError` naming where it is stored."""
        spec = self._decode(row["spec"], "cells.spec", campaign, row["key"])
        try:
            return spec, RunSpec.from_dict(spec)
        except InputError as exc:
            where = self._where("cells.spec", campaign, row["key"])
            raise InputError(f"{where}: {exc}") from None

    def _where(self, column: str, campaign: str,
               key: Optional[str] = None) -> str:
        cell = "" if key is None else f" cell {key}"
        return f"{self.path}: campaign {campaign!r}{cell} {column}"

    # -- JSONL import -------------------------------------------------------

    def import_jsonl(self, jsonl_path: os.PathLike, name: str) -> dict:
        """One-way promotion of a JSONL file of run records into a campaign.

        Every record becomes a cell carrying its final record verbatim,
        plus one synthetic attempt row reconstructed from the record's
        status / error / wall time / pid.  See :func:`read_jsonl` for how
        the file is read.
        """
        records = read_jsonl(jsonl_path)
        bad = [key for key, r in records.items() if "spec" not in r
               or type(r.get("attempt", 1)) is not int
               or type(r.get("attempts", 1)) is not int]
        if bad:
            raise InputError(f"{jsonl_path}: records {bad} lack a spec or "
                             "integer attempt counts")
        specs = []
        for key, record in records.items():
            try:
                specs.append(RunSpec.from_dict(record["spec"]))
            except InputError as exc:
                raise InputError(
                    f"{jsonl_path}: record {key}: {exc}"
                ) from None
        campaign = self.ensure_campaign(
            name, specs, meta={"imported_from": str(jsonl_path)},
        )
        binding = CampaignBinding(self, campaign, name)
        imported = {"ok": 0, "failed": 0}
        for record in records.values():
            status = "ok" if record.get("status") == "ok" else "failed"
            imported[status] += 1
            binding.record_attempt(
                record["key"], int(record.get("attempt", 1)),
                status=status, error=record.get("error"),
                wall_s=record.get("wall_s"), pid=record.get("pid"),
            )
            binding.append(record)
        return {"campaign": name, "cells": len(records), **imported}

    # -- engine adapter -----------------------------------------------------

    def bind(self, name: str) -> "CampaignBinding":
        """The per-campaign store adapter the sweep engine writes through."""
        return CampaignBinding(self, self._require(name), name)


class CampaignBinding:
    """One campaign's view of the store: what the sweep engine reads
    cache hits from and writes records and attempts through."""

    def __init__(self, store: CampaignStore, campaign_id: int,
                 name: str) -> None:
        self.store = store
        self.campaign_id = campaign_id
        self.name = name

    def completed_keys(self) -> Dict[str, dict]:
        """Successfully completed records by key (what ``resume`` skips)."""
        with closing(self.store._connect()) as conn:
            rows = conn.execute(
                "SELECT key, record FROM cells"
                " WHERE campaign_id = ? AND status = 'ok'"
                " AND record IS NOT NULL",
                (self.campaign_id,),
            ).fetchall()
        return {
            row["key"]: self.store._decode(row["record"], "cells.record",
                                           self.name, row["key"])
            for row in rows
        }

    def append(self, record: dict) -> None:
        """Finalise a cell with its record (last write wins, as in JSONL)."""
        status = "ok" if record.get("status") == "ok" else "failed"
        payload = json.dumps(record, sort_keys=True)
        attempts = int(record.get("attempts", 1))
        with closing(self.store._connect()) as conn, conn:
            cursor = conn.execute(
                "UPDATE cells SET status = ?, record = ?,"
                " attempts = MAX(attempts, ?)"
                " WHERE campaign_id = ? AND key = ?",
                (status, payload, attempts, self.campaign_id, record["key"]),
            )
            if cursor.rowcount == 0:
                # a record for a cell the grid never declared (e.g. JSONL
                # import of an ad-hoc run): adopt it at the end of the order
                row = conn.execute(
                    "SELECT COALESCE(MAX(ord) + 1, 0) AS nxt FROM cells"
                    " WHERE campaign_id = ?", (self.campaign_id,)
                ).fetchone()
                conn.execute(
                    "INSERT INTO cells (campaign_id, key, ord, spec,"
                    " status, attempts, record) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (self.campaign_id, record["key"], int(row["nxt"]),
                     json.dumps(record.get("spec", {}), sort_keys=True),
                     status, attempts, payload),
                )

    def mark_running(self, key: str, attempt: int) -> None:
        with closing(self.store._connect()) as conn, conn:
            conn.execute(
                "UPDATE cells SET status = 'running'"
                " WHERE campaign_id = ? AND key = ? AND status != 'ok'",
                (self.campaign_id, key),
            )

    def record_attempt(
        self,
        key: str,
        attempt: int,
        *,
        status: str,
        error: Optional[str] = None,
        wall_s: Optional[float] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Record one finished execution attempt (any outcome kind)."""
        with closing(self.store._connect()) as conn, conn:
            conn.execute(
                "INSERT INTO attempts (campaign_id, key, attempt, status,"
                " error, wall_s, pid, recorded_s)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (self.campaign_id, key, int(attempt), status, error,
                 wall_s, pid, time.time()),
            )
            conn.execute(
                "UPDATE cells SET attempts = MAX(attempts, ?)"
                " WHERE campaign_id = ? AND key = ?",
                (int(attempt), self.campaign_id, key),
            )


def read_jsonl(path: os.PathLike) -> Dict[str, dict]:
    """The run records in a JSONL file, keyed by spec hash.

    The last record for a key wins, a missing file reads as empty, and a
    line that does not parse (the torn tail of a killed writer) is
    skipped; a line that is not UTF-8 or parses to anything but an object
    raises :class:`InputError`.
    """
    records: Dict[str, dict] = {}
    path = Path(path)
    if not path.exists():
        return records
    with path.open("rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            except UnicodeDecodeError:
                raise InputError(f"{path}:{number}: not UTF-8 text") from None
            if not isinstance(record, dict):
                raise InputError(f"{path}:{number}: not a run record")
            if record.get("key"):
                records[record["key"]] = record
    return records


def export_jsonl(records: Iterable[dict], path: os.PathLike) -> Path:
    """Atomically (re)write ``path`` with one sorted-key JSON line per
    record, in the order given; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )
    os.replace(tmp, target)
    return target
