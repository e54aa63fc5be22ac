"""Unit tests for run/sweep specs: hashing, expansion, spec files."""

import json
import re

import pytest

from repro.inputs import InputError
from repro.runner.spec import (
    BASELINE,
    RunSpec,
    SweepSpec,
    derive_sweep_seeds,
    load_sweep_spec,
    sweep_spec_from_mapping,
)


class TestRunSpecKey:
    def test_key_is_stable_across_instances(self):
        a = RunSpec.single("rf_jamming", seed=7, horizon_s=600.0)
        b = RunSpec.single("rf_jamming", seed=7, horizon_s=600.0)
        assert a.key == b.key

    def test_key_changes_with_any_field(self):
        base = RunSpec.single("rf_jamming", seed=7, horizon_s=600.0)
        variants = [
            RunSpec.single("rf_jamming", seed=8, horizon_s=600.0),
            RunSpec.single("gnss_spoofing", seed=7, horizon_s=600.0),
            RunSpec.single("rf_jamming", seed=7, horizon_s=900.0),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           profile="undefended"),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           start=100.0),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           overrides={"drone_enabled": False}),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           ids_family="signature"),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_ignores_override_ordering(self):
        a = RunSpec.single("baseline", seed=1, horizon_s=60.0,
                           overrides={"n_workers": 1, "drone_enabled": False})
        b = RunSpec.single("baseline", seed=1, horizon_s=60.0,
                           overrides={"drone_enabled": False, "n_workers": 1})
        assert a.key == b.key

    def test_dict_round_trip_preserves_key(self):
        spec = RunSpec.single(
            "wifi_deauth", seed=3, horizon_s=300.0, profile="undefended",
            start=60.0, duration=120.0, ids_family="ensemble",
            overrides={"n_workers": 2},
        )
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key == spec.key

    def test_baseline_has_empty_plan(self):
        spec = RunSpec.single(BASELINE, seed=1, horizon_s=60.0)
        assert spec.plan == ()


class TestRunSpecFiniteness:
    """A non-finite number has no canonical encoding, so the spec refuses
    it where it is built rather than when its key is computed."""

    REFUSED = "run spec has a non-finite number"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("kwargs", [
        pytest.param(lambda v: {"horizon_s": v}, id="horizon_s"),
        pytest.param(lambda v: {"start": v}, id="plan start"),
        pytest.param(lambda v: {"duration": v}, id="plan duration"),
        pytest.param(lambda v: {"overrides": {"wind_speed": v}},
                     id="override"),
        pytest.param(
            lambda v: {"faults": [("node_crash", "drone", v, 5.0, ())]},
            id="fault start"),
        pytest.param(
            lambda v: {"faults": [("node_crash", "drone", 1.0, v, ())]},
            id="fault duration"),
        pytest.param(
            lambda v: {"faults": [("radio_brownout", "forwarder", 1.0, 5.0,
                                   (("sag_db", v),))]},
            id="fault param"),
    ])
    def test_non_finite_number_rejected(self, kwargs, value):
        arguments = {"seed": 1, "horizon_s": 60.0, **kwargs(value)}
        with pytest.raises(ValueError, match=self.REFUSED) as refused:
            RunSpec.single("rf_jamming", **arguments)
        # the message shows the spec, with the number where it sits
        assert repr(value) in str(refused.value)

    def test_from_dict_rejects_a_nan_token(self):
        data = json.loads('{"campaign": "baseline", "horizon_s": NaN}')
        with pytest.raises(ValueError, match=self.REFUSED):
            RunSpec.from_dict(data)

    def test_sweep_expansion_rejects_a_nan_attack_start(self):
        with pytest.raises(ValueError, match=self.REFUSED):
            SweepSpec(campaigns=["rf_jamming"], seeds=[1],
                      attack_start=float("nan")).expand()


class TestRunSpecNumberTypes:
    """A number of the wrong JSON type is refused, not converted:
    ``int(True)`` is 1 and ``int("7")`` is 7, so converting would run a
    seed the file does not name."""

    @pytest.mark.parametrize("data, refused", [
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 2.7}, "seed must be an integer, got 2.7"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
        ({"horizon_s": True}, "horizon_s must be a number, got True"),
        ({"horizon_s": "60"}, "horizon_s must be a number, got '60'"),
        ({"plan": [["rf_jamming", True, None]]},
         "plan start must be a number, got True"),
        ({"faults": [["node_crash", "drone", 1.0, True, []]]},
         "fault duration must be a number, got True"),
    ])
    def test_wrong_type_refused(self, data, refused):
        with pytest.raises(InputError, match=re.escape(refused)):
            RunSpec.from_dict({"horizon_s": 60.0, **data})

    @pytest.mark.parametrize("data, refused", [
        ({"plan": [{"campaign": "rf_jamming", "start": 5.0,
                    "duration": None}]},
         "plan step must be a [campaign, start, duration] array, got {"),
        ({"plan": [["rf_jamming", 5.0]]},
         "plan step must be a [campaign, start, duration] array, "
         "got ['rf_jamming', 5.0]"),
        ({"plan": 5}, "plan must be an array, got 5"),
        ({"faults": [["node_crash", "drone", 1.0, 5.0]]},
         "fault must be a [kind, target, start, duration, params] array, "
         "got ['node_crash', 'drone', 1.0, 5.0]"),
        ({"faults": {"kind": "node_crash"}},
         "faults must be an array, got {"),
    ])
    def test_wrong_shape_named(self, data, refused):
        with pytest.raises(InputError, match=re.escape(refused)):
            RunSpec.from_dict({"horizon_s": 60.0, **data})

    def test_integral_numbers_still_convert(self):
        # every valid spec keeps its key: an int still reads as a float
        spec = RunSpec.from_dict({"campaign": "rf_jamming", "seed": 3,
                                  "horizon_s": 60,
                                  "plan": [["rf_jamming", 5, 10]]})
        assert spec == RunSpec.single("rf_jamming", seed=3, horizon_s=60.0,
                                      start=5.0, duration=10.0)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = derive_sweep_seeds(42, 8)
        assert seeds == derive_sweep_seeds(42, 8)
        assert len(set(seeds)) == 8

    def test_different_base_seed_different_seeds(self):
        assert derive_sweep_seeds(1, 4) != derive_sweep_seeds(2, 4)

    def test_prefix_stability(self):
        # growing the sweep must not change the seeds of existing runs
        assert derive_sweep_seeds(42, 8)[:3] == derive_sweep_seeds(42, 3)


class TestSweepExpansion:
    def test_full_grid_size(self):
        grid = SweepSpec(
            campaigns=["rf_jamming", "gnss_spoofing", "baseline"],
            seeds=[1, 2], profiles=["defended", "undefended"],
            horizon_s=120.0,
        )
        specs = grid.expand()
        assert len(specs) == 3 * 2 * 2
        assert len({s.key for s in specs}) == len(specs)

    def test_expansion_order_is_stable(self):
        grid = SweepSpec(campaigns=["a", "b"], seeds=[1, 2], horizon_s=60.0)
        assert [s.key for s in grid.expand()] == [s.key for s in grid.expand()]

    def test_variants_rename_and_override(self):
        grid = SweepSpec(
            campaigns=["rf_jamming"], seeds=[1], horizon_s=60.0,
            variants={"no_drone": {"drone_enabled": False}},
        )
        (spec,) = grid.expand()
        assert spec.campaign == "rf_jamming/no_drone"
        assert dict(spec.overrides) == {"drone_enabled": False}
        # the executable plan still names the real campaign
        assert spec.plan[0][0] == "rf_jamming"

    def test_derived_seeds_when_none_given(self):
        grid = SweepSpec(campaigns=["baseline"], base_seed=9, n_seeds=3,
                         horizon_s=60.0)
        seeds = [s.seed for s in grid.expand()]
        assert seeds == derive_sweep_seeds(9, 3)


class TestSpecFiles:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'campaigns = ["rf_jamming", "baseline"]\n'
            "base_seed = 7\n"
            "n_seeds = 2\n"
            "horizon_minutes = 10\n"
            'profiles = ["defended", "undefended"]\n'
            "attack_start = 120.0\n"
            "attack_duration = 300.0\n"
            "\n"
            "[variants.no_drone]\n"
            "drone_enabled = false\n"
        )
        spec = load_sweep_spec(str(path))
        assert spec.campaigns == ["rf_jamming", "baseline"]
        assert spec.horizon_s == 600.0
        assert spec.attack_duration == 300.0
        assert spec.variants == {"no_drone": {"drone_enabled": False}}
        assert len(spec.expand()) == 2 * 2 * 2

    def test_json_spec(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "campaigns": ["gnss_spoofing"],
            "seeds": [5, 6, 7],
            "horizon_s": 300.0,
        }))
        spec = load_sweep_spec(str(path))
        assert spec.resolved_seeds() == [5, 6, 7]
        assert len(spec.expand()) == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            sweep_spec_from_mapping({"campaignz": ["typo"]})

    @pytest.mark.parametrize("data, refused", [
        ({"seeds": [True, 2]}, "seeds must be an integer, got True"),
        ({"seeds": [2.7]}, "seeds must be an integer, got 2.7"),
        ({"base_seed": "7"}, "base_seed must be an integer, got '7'"),
        ({"n_seeds": 2.0}, "n_seeds must be an integer, got 2.0"),
        ({"horizon_s": True}, "horizon_s must be a number, got True"),
        ({"horizon_minutes": "5"},
         "horizon_minutes must be a number, got '5'"),
        ({"attack_start": True}, "attack_start must be a number, got True"),
        ({"attack_duration": "60"},
         "attack_duration must be a number, got '60'"),
        ({"fault_start": False}, "fault_start must be a number, got False"),
        ({"fault_duration": "30"},
         "fault_duration must be a number, got '30'"),
    ])
    def test_number_of_the_wrong_type_refused(self, data, refused):
        with pytest.raises(InputError, match=re.escape(refused)):
            sweep_spec_from_mapping(data)

    @pytest.mark.parametrize("data, refused", [
        ({"campaigns": "baseline"},
         "campaigns must be an array, got 'baseline'"),
        ({"seeds": 5}, "seeds must be an array, got 5"),
        ({"profiles": "defended"},
         "profiles must be an array, got 'defended'"),
        ({"ids_families": "signature"},
         "ids_families must be an array, got 'signature'"),
    ])
    def test_list_of_another_type_refused(self, data, refused):
        # a string used to be read as its characters: profile 'd', 'e', ...
        with pytest.raises(InputError, match=re.escape(refused)):
            sweep_spec_from_mapping(data)

    @pytest.mark.parametrize("data, refused", [
        ({"variants": "fast"}, "variants must be a table, got 'fast'"),
        ({"variants": {"fast": [["drone_enabled", False]]}},
         "variants.fast must be a table, got [['drone_enabled', False]]"),
    ])
    def test_variants_of_another_type_refused(self, data, refused):
        # dict() used to read an array of pairs as a table, and to refuse
        # a string with "dictionary update sequence element #0 ..."
        with pytest.raises(InputError, match=re.escape(refused)):
            sweep_spec_from_mapping(data)

    def test_refusal_names_the_file(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text("seeds = [true, 2]\n")
        with pytest.raises(InputError, match=re.escape(str(path))):
            load_sweep_spec(str(path))
