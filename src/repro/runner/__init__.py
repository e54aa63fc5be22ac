"""Parallel experiment sweep runner.

The certification argument of the paper leans on *simulation at scale*:
many scenarios, seeds and attack variations feeding the assurance case.
This package is the machinery for that — a declarative grid of worksite
runs fanned across a process pool, with results cached in one SQLite store
by content hash so repeated sweeps only execute the delta:

* :mod:`repro.runner.spec` — :class:`RunSpec` / :class:`SweepSpec`
  (grid declaration, stable hashing, TOML/JSON spec files);
* :mod:`repro.runner.worker` — the picklable per-run entry point;
* :mod:`repro.runner.campaign` — the result store: SQLite (WAL) with
  ``campaigns`` / ``cells`` / ``attempts`` tables, queryable across runs,
  plus the JSONL export and import;
* :mod:`repro.runner.dispatch` — the self-healing process-pool
  dispatcher (:class:`LocalPoolDispatcher`) and the deterministic
  :class:`CellRetryPolicy`;
* :mod:`repro.runner.engine` — :class:`SweepRunner` (pool fan-out,
  resume, failure isolation, self-healing retry/timeout/backoff);
* :mod:`repro.runner.monitor` — :class:`SweepMonitor` (live progress
  fold, ``status.json``, stall detection for ``repro-worksite status``);
* :mod:`repro.runner.aggregate` — grouped means → paper-style tables.

Typical use::

    from repro.runner import RunSpec, SweepSpec, run_sweep

    grid = SweepSpec(campaigns=["rf_jamming", "gnss_spoofing"],
                     seeds=[1, 2, 3], horizon_s=1200.0)
    report = run_sweep(grid.expand(), jobs=4)
    for result in report.results():
        ...

``run_sweep(specs, jobs=...)`` keeps no store; a stored, resumed or
monitored sweep builds a :class:`SweepRunner` and calls its ``run``.
"""

from repro.runner.aggregate import aggregate_table
from repro.runner.campaign import (
    CampaignSchemaError,
    CampaignStore,
    export_jsonl,
    read_jsonl,
)
from repro.runner.dispatch import CellRetryPolicy, LocalPoolDispatcher
from repro.runner.engine import (
    SweepRunner,
    UncheckedResultWarning,
    run_sweep,
)
from repro.runner.monitor import (
    SweepMonitor,
    progress_line,
    read_status,
    render_status,
)
from repro.runner.spec import RunSpec, SweepSpec, load_sweep_spec
from repro.runner.worker import execute_run

__all__ = [
    "CampaignSchemaError",
    "CampaignStore",
    "CellRetryPolicy",
    "LocalPoolDispatcher",
    "RunSpec",
    "SweepSpec",
    "SweepRunner",
    "SweepMonitor",
    "UncheckedResultWarning",
    "aggregate_table",
    "execute_run",
    "export_jsonl",
    "load_sweep_spec",
    "progress_line",
    "read_jsonl",
    "read_status",
    "render_status",
    "run_sweep",
]
