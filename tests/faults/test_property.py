"""Property-based resilience guarantees.

Whatever bounded fault schedule Hypothesis throws at the worksite, the
simulation must stay deadlock-free (the clock reaches the horizon) and the
vehicles must end the run in a defensible state: NOMINAL after recovery, or
SAFE_STOP while a fault still holds them down.  This is the blanket
guarantee behind the per-kind unit tests — no schedule may wedge a mode
machine in DEGRADED/RECOVERING forever or crash the kernel.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.modes import VehicleMode
from repro.faults.spec import FaultSchedule
from repro.scenarios.worksite import ScenarioConfig, build_worksite

from tests.strategies import fault_specs

schedules = st.lists(fault_specs(), min_size=1, max_size=4)


class TestScheduleSafety:
    @given(faults=schedules, seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_any_bounded_schedule_ends_deadlock_free_and_safe(
        self, faults, seed
    ):
        schedule = FaultSchedule(faults=tuple(faults))
        scenario = build_worksite(ScenarioConfig(seed=seed))
        injector = FaultInjector(scenario, schedule).arm()
        # every fault is bounded, so run well past the last clear: enough
        # for heartbeat timeouts, RTO escalation and recovery dwell
        horizon = schedule.last_end_s + 90.0
        scenario.run(horizon)
        assert scenario.sim.now == horizon  # the kernel reached the horizon
        assert injector.faults_injected == len(faults)
        assert injector.faults_cleared == len(faults)
        for name, mode in injector.final_modes().items():
            assert mode in (VehicleMode.NOMINAL, VehicleMode.SAFE_STOP), (
                f"{name} wedged in {mode} after {schedule.faults}"
            )

    @given(faults=schedules)
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_schedule_is_reproducible(self, faults):
        def run_once():
            scenario = build_worksite(ScenarioConfig(seed=123))
            # a jittered timeline, realised once before arming, as a run
            # spec realises it
            schedule = FaultSchedule(faults=tuple(faults), jitter_s=2.0)
            injector = FaultInjector(
                scenario,
                FaultSchedule(faults=schedule.resolve(scenario.streams)),
            ).arm()
            horizon = schedule.last_end_s + 60.0
            scenario.run(horizon)
            return injector.resilience_summary(horizon)

        assert run_once() == run_once()
