"""The layer tracer: transparent, complete, and removable."""

import sys

import pytest

from conftest import OneCell
from layers import LAYERS, LayerTracer, resolve
from workloads import Fig1, run_repetition


@pytest.mark.parametrize("workload", [
    Fig1(horizon_s=120.0),
    OneCell(n_seeds=1, horizon_s=120.0, attack_start=20.0,
            attack_duration=60.0),
], ids=["fig1_120s", "rf_jamming_cell"])
def test_tracing_leaves_the_output_digest_unchanged(workload, tmp_path):
    plain = run_repetition(workload, 11, 0, tmp_path / "plain")
    traced = run_repetition(workload, 11, 0, tmp_path / "traced", trace=True)
    assert plain["failed"] == traced["failed"] == 0
    assert traced["digests"] == plain["digests"]


def test_layer_self_times_sum_to_the_traced_wall(traced_small):
    for name, record in traced_small.items():
        layers = record["layers"]
        total = sum(layers["self_s"].values())
        assert total == pytest.approx(layers["wall_s"], rel=0.01), name


def test_every_entry_point_resolves():
    for entries in LAYERS.values():
        for entry in entries:
            assert resolve(entry), entry


def test_every_entry_point_is_entered_by_some_workload(traced_small):
    """A renamed or bypassed entry point would silently zero its layer."""
    seen = {}
    for record in traced_small.values():
        for entry, calls in record["layers"]["entry_calls"].items():
            seen[entry] = seen.get(entry, 0) + calls
    for entries in LAYERS.values():
        for entry in entries:
            if entry.endswith(".*"):
                prefix = entry[:-1]
                calls = sum(n for e, n in seen.items() if e.startswith(prefix))
            else:
                calls = seen.get(entry, 0)
            assert calls > 0, f"no workload entered {entry}"
    assert all(r["layers"]["events"] > 0 for r in traced_small.values())


def _references():
    """Every attribute install() may patch, with the object it holds."""
    from repro.sim.engine import Simulator

    found = {(Simulator, "schedule_at"): vars(Simulator)["schedule_at"],
             (Simulator, "every"): vars(Simulator)["every"]}
    for entries in LAYERS.values():
        for entry in entries:
            for owner, name, func in resolve(entry):
                found[(owner, name)] = func
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and vars(module).get(name) is func):
                        found[(module, name)] = func
    return found


def test_uninstall_restores_the_original_objects():
    before = _references()
    tracer = LayerTracer()
    tracer.install()
    try:
        patched = [key for key, value in before.items()
                   if vars(key[0])[key[1]] is not value]
        assert len(patched) == len(before)
    finally:
        tracer.uninstall()
    for (owner, name), value in before.items():
        assert vars(owner)[name] is value, f"{owner}.{name} not restored"
