"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import Process, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [5.0]

    def test_clock_advances_to_horizon_even_with_empty_queue(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run_until(5.0)
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run_until(2.0)
        assert order == list(range(10))

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=1)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run_until(2.0)
        assert order == ["high", "low"]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_before_now_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_events_beyond_horizon_do_not_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(20.0, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == []
        sim.run_until(30.0)
        assert fired == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run_until(2.0)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run_until(5.0)
        assert fired == ["first", "second"]

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        e1.cancel()
        assert sim.pending == 1

    def test_pending_accounting_cancel_then_pop(self):
        # cancelled events linger in the heap until popped; the live
        # counter must not be double-decremented when they finally pop
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        events[0].cancel()
        events[3].cancel()
        assert sim.pending == 4
        sim.run_until(2.5)  # pops cancelled e0 (t=1), fires e1 (t=2)
        assert sim.pending == 3
        sim.run_until(10.0)  # pops cancelled e3, fires the rest
        assert sim.pending == 0
        assert sim.events_processed == 4

    def test_pending_unchanged_by_cancel_after_fire(self):
        # cancelling an event that already fired must not corrupt the counter
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        event.cancel()
        assert sim.pending == 1

    def test_pending_matches_heap_scan_under_churn(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 7) + 0.5, lambda: None)
                  for i in range(50)]
        for i, event in enumerate(events):
            if i % 3 == 0:
                event.cancel()
            if i % 6 == 0:
                event.cancel()  # double-cancel must stay idempotent
        sim.run_until(3.0)
        assert sim.pending == sum(1 for entry in sim._heap if not entry[3].cancelled)


class TestProcess:
    def test_recurring_callback(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_custom_start_time(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), start_at=0.25)
        sim.run_until(3.0)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_prevents_further_ticks(self):
        sim = Simulator()
        ticks = []
        process = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(2.5)
        process.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]
        assert process.stopped

    def test_callback_can_stop_its_own_process(self):
        sim = Simulator()
        ticks = []
        process = None

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                process.stop()

        process = sim.every(1.0, tick)
        sim.run_until(10.0)
        assert len(ticks) == 3

    def test_non_positive_interval_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.run_until(5.0)
        assert sim.events_processed == 5


class TestRun:
    def test_reentrant_run_raises(self):
        sim = Simulator()

        def nested():
            sim.run_until(100.0)

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run_until(10.0)
