"""Named fault campaigns: catalogue determinism, serial == pool sweeps.

The fuzzer seeds plans from :data:`FAULT_CAMPAIGNS` and the sweep cache
keys runs by spec hash, so two properties must hold: building the same
named campaign twice yields identical primitives, and a fault-campaign
sweep produces the same result records whether it runs inline or across
a process pool.
"""

import pytest

from repro.faults.campaigns import FAULT_CAMPAIGNS, build_fault_campaign
from repro.runner import SweepRunner, SweepSpec


class TestCatalogueDeterminism:
    @pytest.mark.parametrize("name", sorted(FAULT_CAMPAIGNS))
    def test_same_window_same_primitives(self, name):
        first = build_fault_campaign(name, start=12.0, duration=18.0)
        second = build_fault_campaign(name, start=12.0, duration=18.0)
        assert first == second
        assert first.faults  # every campaign schedules at least one fault

    @pytest.mark.parametrize("name", sorted(FAULT_CAMPAIGNS))
    def test_primitives_round_trip(self, name):
        from repro.faults.spec import FaultSpec

        schedule = build_fault_campaign(name, start=12.0, duration=18.0)
        for fault in schedule.faults:
            assert FaultSpec.from_primitives(fault.to_primitives()) == fault

    def test_unknown_name_lists_the_catalogue(self):
        with pytest.raises(ValueError) as excinfo:
            build_fault_campaign("gremlins")
        message = str(excinfo.value)
        assert "unknown fault campaign" in message
        assert "crash_brownout" in message


def _stable(records):
    """Sweep records without the impure fields (wall clock, worker pid)."""
    return [
        {key: value for key, value in record.items()
         if key not in ("wall_s", "pid")}
        for record in records
    ]


class TestSerialVsPool:
    def test_fault_campaign_sweep_identical_across_backends(self):
        spec = SweepSpec(
            campaigns=["baseline", "rf_jamming"],
            seeds=[3, 4],
            horizon_s=60.0,
            attack_start=10.0,
            attack_duration=20.0,
            fault_campaign="crash_brownout",
            fault_start=15.0,
            fault_duration=20.0,
        )
        specs = spec.expand()
        assert len(specs) == 4
        serial = SweepRunner(jobs=1).run(specs)
        pooled = SweepRunner(jobs=2).run(specs)
        assert serial.failed == 0
        assert pooled.failed == 0
        assert _stable(serial.records) == _stable(pooled.records)
