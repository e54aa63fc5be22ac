"""Shared set-up for the benchmark's tests.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench/tests``.
The benchmark's modules import each other by name (``run.py`` runs as a
script from ``bench/``), so the directory goes on ``sys.path`` here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from workloads import (  # noqa: E402
    AttackGrid, Assurance, Fig1, ShortCells, run_repetition,
)


class TinyGrid(AttackGrid):
    campaigns = ("baseline", "rf_jamming")
    profiles = ("defended",)


class OneCell(ShortCells):
    """One rf_jamming cell."""

    campaigns = ("rf_jamming",)


#: every workload at a size a test can afford, same code paths
SMALL = {
    "fig1_30min": Fig1(horizon_s=60.0),
    "attack_grid": TinyGrid(horizon_s=60.0, attack_start=10.0,
                            attack_duration=30.0),
    "short_cells": ShortCells(n_seeds=1, horizon_s=20.0),
    # at seed 5 the fourth iteration is the first to sample a fresh spec
    # rather than mutate one, so four iterations enter every fuzz entry point
    "assurance": Assurance(fuzz_iterations=4, traced_runs=1, horizon_s=60.0,
                           attack_start=10.0, attack_duration=30.0),
}


@pytest.fixture(scope="session")
def traced_small(tmp_path_factory):
    """One traced repetition of every small workload, by name."""
    root = tmp_path_factory.mktemp("traced")
    return {
        name: run_repetition(workload, 5, 0, root / name, trace=True)
        for name, workload in SMALL.items()
    }
