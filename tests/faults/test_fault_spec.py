"""FaultSpec / FaultSchedule: validation, primitives round trip, jitter."""

import pytest

from repro.faults.spec import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    load_fault_schedule,
    schedule_from_mapping,
)
from repro.inputs import InputError
from repro.sim.rng import RngStreams


class TestFaultSpec:
    def test_make_normalises_primitives(self):
        spec = FaultSpec.make("node_crash", "drone", 10, 5, {"b": 2, "a": 1})
        assert spec.start_s == 10.0 and spec.duration_s == 5.0
        assert spec.params == (("a", 1), ("b", 2))
        assert spec.end_s == 15.0

    def test_open_ended_fault_has_no_end(self):
        spec = FaultSpec.make("sensor_freeze", "cam-forwarder", 3.0)
        assert spec.duration_s is None and spec.end_s is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.make("meteor_strike", "drone", 0.0)

    def test_negative_start_and_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultSpec.make("node_crash", "drone", -1.0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec.make("node_crash", "drone", 0.0, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_start_and_duration_rejected(self, value):
        with pytest.raises(ValueError, match="start must be finite"):
            FaultSpec.make("node_crash", "drone", value)
        with pytest.raises(ValueError, match="duration must be finite"):
            FaultSpec.make("node_crash", "drone", 0.0, value)

    @pytest.mark.parametrize("value", [True, "5"])
    def test_start_and_duration_of_the_wrong_type_rejected(self, value):
        # float(True) is 1.0 and float("5") is 5.0: a fault the file does
        # not describe
        with pytest.raises(InputError, match="fault start must be a number"):
            FaultSpec.make("node_crash", "drone", value)
        with pytest.raises(InputError,
                           match="fault duration must be a number"):
            FaultSpec.make("node_crash", "drone", 0.0, value)

    def test_param_lookup(self):
        spec = FaultSpec.make("radio_brownout", "forwarder", 1.0,
                              params={"sag_db": 9.0})
        assert spec.param("sag_db") == 9.0
        assert spec.param("missing", 42) == 42
        assert spec.param_dict() == {"sag_db": 9.0}

    def test_primitives_round_trip(self):
        spec = FaultSpec.make("clock_drift", "drone", 7.5, 20.0,
                              {"offset_s": 0.5, "rate": 0.001})
        assert FaultSpec.from_primitives(spec.to_primitives()) == spec

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            assert FaultSpec.make(kind, "x", 0.0).kind == kind


class TestFaultSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert len(FaultSchedule()) == 0

    def test_resolve_without_jitter_makes_no_rng_draws(self):
        streams = RngStreams(1)
        schedule = FaultSchedule(
            faults=(FaultSpec.make("node_crash", "drone", 10.0, 5.0),)
        )
        resolved = schedule.resolve(streams)
        assert resolved == schedule.faults
        # the jitter stream was never created, so a fresh consumer of the
        # same name starts from its seed-derived state
        assert "faults.schedule" not in streams.names

    def test_resolve_jitter_is_deterministic_per_seed(self):
        schedule = FaultSchedule(
            faults=(
                FaultSpec.make("node_crash", "drone", 10.0, 5.0),
                FaultSpec.make("radio_brownout", "forwarder", 20.0, 5.0),
            ),
            jitter_s=3.0,
        )
        a = schedule.resolve(RngStreams(7))
        b = schedule.resolve(RngStreams(7))
        c = schedule.resolve(RngStreams(8))
        assert a == b
        assert a != c
        for original, jittered in zip(schedule.faults, a):
            assert original.start_s <= jittered.start_s <= original.start_s + 3.0

    @pytest.mark.parametrize("jitter", [-5.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_jitter_rejected(self, jitter):
        # resolve() would read a negative jitter as none at all
        with pytest.raises(InputError, match="jitter_s must be finite"):
            FaultSchedule(jitter_s=jitter)

    def test_last_end_covers_all_faults(self):
        schedule = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0),
            FaultSpec.make("radio_brownout", "forwarder", 20.0, 30.0),
        ))
        assert schedule.last_end_s == 50.0

    def test_last_end_none_when_any_open_ended(self):
        schedule = FaultSchedule(faults=(
            FaultSpec.make("sensor_dropout", "us-forwarder", 5.0),
        ))
        assert schedule.last_end_s is None


class TestScheduleLoading:
    def test_mapping_round_trip(self):
        schedule = schedule_from_mapping({
            "jitter_s": 1.5,
            "fault": [
                {"kind": "node_crash", "target": "drone", "start": 10,
                 "duration": 5},
                {"kind": "packet_corruption", "target": "medium",
                 "start": 20, "params": {"probability": 0.3}},
            ],
        })
        assert schedule.jitter_s == 1.5
        assert len(schedule) == 2
        assert schedule.faults[1].param("probability") == 0.3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault schedule keys"):
            schedule_from_mapping({"faults": []})
        with pytest.raises(ValueError, match=r"unknown \[\[fault\]\] keys"):
            schedule_from_mapping({
                "fault": [{"kind": "node_crash", "target": "d", "begin": 1}],
            })

    @pytest.mark.parametrize("data, refused", [
        ({"jitter_s": True}, "jitter_s must be a number, got True"),
        ({"fault": [{"kind": "node_crash", "target": "drone",
                     "start": True, "duration": True}]},
         "fault start must be a number, got True"),
        ({"fault": [{"kind": "node_crash", "target": "drone",
                     "start": "5"}]},
         "fault start must be a number, got '5'"),
    ])
    def test_number_of_the_wrong_type_rejected(self, data, refused):
        with pytest.raises(InputError, match=refused):
            schedule_from_mapping(data)

    def test_example_storm_file_loads(self):
        schedule = load_fault_schedule("examples/faults_storm.toml")
        assert len(schedule) == 7
        assert schedule.jitter_s == 2.0
        kinds = {fault.kind for fault in schedule.faults}
        assert "node_crash" in kinds and "packet_corruption" in kinds
