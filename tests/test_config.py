"""Tests for experiment configuration, serialization, and presets."""

import dataclasses
import json
import math

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim import optics as op
from memnet_sim import rules
from memnet_sim.config import DetectorConfig, NodeConfig


class TestTimingConfig:
    def test_defaults_valid(self):
        t = cf.TimingConfig()
        assert t.cycle_ms == 21.0
        assert t.max_trials_per_load == 622

    def test_trials_per_second(self):
        t = cf.TimingConfig()
        assert t.trials_per_second == pytest.approx(622 / 0.021)

    def test_trial_slots_bound(self):
        # 3 ms window at 4.7 us per trial leaves room for 638 slots at most
        cf.TimingConfig(max_trials_per_load=638)
        with pytest.raises(ValueError, match="max_trials_per_load"):
            cf.TimingConfig(max_trials_per_load=639)

    def test_window_must_fit_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            cf.TimingConfig(loading_ms=19.5, memory_window_ms=3.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            cf.TimingConfig(trial_us=0.0)
        with pytest.raises(ValueError):
            cf.TimingConfig(cycle_ms=-1.0)


class TestExperimentConfigValidation:
    def test_default_roundtrip_fields(self):
        cfg = cf.ExperimentConfig()
        assert tuple(n.node_id for n in cfg.nodes) == ("I", "II", "III")
        assert cfg.node("II").node_id == "II"

    def test_node_order_enforced(self):
        nodes = (NodeConfig("II"), NodeConfig("I"), NodeConfig("III"))
        with pytest.raises(ValueError, match="order"):
            cf.ExperimentConfig(nodes=nodes)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            cf.ExperimentConfig(scenario="warp_drive")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            cf.ExperimentConfig(samples=0)
        with pytest.raises(ValueError):
            cf.ExperimentConfig(workers=0)
        with pytest.raises(ValueError):
            cf.ExperimentConfig(seed=-1)

    def test_seed_range_and_type(self):
        assert cf.ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1
        for bad in (2**64, 1.0, "3", True):
            with pytest.raises(ValueError, match="seed"):
                cf.ExperimentConfig(seed=bad)

    def test_counts_must_be_integers(self):
        assert cf.ExperimentConfig(samples=np.int64(5)).samples == 5
        with pytest.raises(ValueError, match="samples"):
            cf.ExperimentConfig(samples=1000.5)
        with pytest.raises(ValueError, match="workers"):
            cf.ExperimentConfig(workers=2.0)

    def test_samples_fit_one_multinomial(self):
        assert cf.ExperimentConfig(samples=2**63 - 1).samples == 2**63 - 1
        with pytest.raises(ValueError, match="^samples must be"):
            cf.ExperimentConfig(samples=2**63)

    def test_bad_read_delay(self):
        with pytest.raises(ValueError):
            cf.ExperimentConfig(read_delay_us=-0.1)

    def test_interference_visibility_range(self):
        cf.ExperimentConfig(interference_visibility=0.0)
        with pytest.raises(ValueError):
            cf.ExperimentConfig(interference_visibility=1.2)

    def test_calibration_weights_positive(self):
        cf.ExperimentConfig(calibration_weights={"0": 1.1, "1": 0.9})
        with pytest.raises(ValueError):
            cf.ExperimentConfig(calibration_weights={"0": 0.0})

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_calibration_weights_finite(self, weight):
        with pytest.raises(ValueError, match="calibration weight '01'"):
            cf.ExperimentConfig(calibration_weights={"00": 1.0, "01": weight})

    def test_infinite_calibration_weight_refused_at_load(self):
        data = json.loads(cf.preset("paper").to_json())
        data["calibration_weights"] = json.loads('{"000": Infinity}')
        with pytest.raises(ValueError, match="calibration weight '000'"):
            cf.ExperimentConfig.from_dict(data)

    def test_unknown_node_id(self):
        cfg = cf.ExperimentConfig()
        with pytest.raises(KeyError):
            cfg.node("IV")

    def test_with_overrides(self):
        cfg = cf.ExperimentConfig().with_overrides(seed=7, samples=42)
        assert cfg.seed == 7
        assert cfg.samples == 42
        assert cfg.scenario == cf.ExperimentConfig().scenario


class TestSerialization:
    def test_json_roundtrip_default(self):
        cfg = cf.ExperimentConfig()
        again = cf.ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_roundtrip_paper_preset(self):
        cfg = cf.preset("paper")
        text = cfg.to_json()
        again = cf.ExperimentConfig.from_dict(__import__("json").loads(text))
        assert again == cfg

    def test_infinite_lifetimes_serialize_as_null(self):
        cfg = cf.ExperimentConfig()
        d = cfg.to_dict()
        assert d["nodes"][0]["tau_mem_us"] is None
        back = cf.ExperimentConfig.from_dict(d)
        assert math.isinf(back.nodes[0].tau_mem_us)

    def test_scenario_params_survive(self):
        params = {"delays_us": [0.0, 1.0, 2.0, 3.0]}
        cfg = cf.ExperimentConfig(scenario="lifetime_sweep", scenario_params=params)
        back = cf.ExperimentConfig.from_dict(cfg.to_dict())
        assert back.scenario_params == params

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        cfg = cf.preset("ideal").with_overrides(seed=3)
        cfg.to_json(p)
        assert cf.ExperimentConfig.from_json(p) == cfg

    def test_file_holds_the_report_json_text(self, tmp_path):
        p = tmp_path / "cfg.json"
        gaussian = {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05}
        cfg = cf.preset("paper").with_overrides(
            envelopes={nid: gaussian for nid in op.NODE_IDS},
            calibration_weights={"000": 1.2},
            scenario="lifetime_sweep",
            scenario_params={"node": "II", "delays_us": [0.0, 1.0, 2.0, 3.0]},
        )
        text = cfg.to_json(p)
        assert text == json.dumps(cfg.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        assert p.read_bytes() == (text + "\n").encode()

    def test_nan_refused_before_any_file_opens(self, tmp_path):
        # no checked config holds a NaN, so one is forced past the checks
        p = tmp_path / "cfg.json"
        cfg = cf.preset("paper")
        object.__setattr__(cfg, "scenario_params", {"foo": math.nan})
        with pytest.raises(ValueError) as err:
            cfg.to_json(p)
        assert str(err.value) == "Out of range float values are not JSON compliant: nan"
        assert not p.exists()

    def test_schema_version_checked(self):
        d = cf.ExperimentConfig().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            cf.ExperimentConfig.from_dict(d)

    def test_schema_version_string_is_shown_as_a_string(self):
        d = cf.ExperimentConfig().to_dict()
        d["schema_version"] = "1"
        with pytest.raises(ValueError) as err:
            cf.ExperimentConfig.from_dict(d)
        assert str(err.value) == "unsupported config schema version '1'"

    @pytest.mark.parametrize("section", ["detector", "timing"])
    def test_unknown_section_key_named(self, section):
        d = cf.ExperimentConfig().to_dict()
        d[section]["bogus"] = 1
        with pytest.raises(ValueError, match=f"unknown {section} key.*'bogus'"):
            cf.ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key", ["efficiency", "window_us"])
    def test_removed_detector_keys_rejected(self, key):
        d = cf.ExperimentConfig().to_dict()
        d["detector"][key] = 1.0
        with pytest.raises(ValueError, match=f"unknown detector key.*'{key}'"):
            cf.ExperimentConfig.from_dict(d)

    def test_detector_has_only_dark_count_prob(self):
        assert cf.ExperimentConfig().to_dict()["detector"] == {"dark_count_prob": 0.0}


class TestPresets:
    def test_ideal_is_noiseless(self):
        cfg = cf.preset("ideal")
        assert cfg.detector.dark_count_prob == 0.0
        for n in cfg.nodes:
            assert n.depol_weight == 0.0
            assert n.excitation_order == 1
            assert math.isinf(n.tau_mem_us)

    def test_paper_preset_flagged_and_noisy(self):
        cfg = cf.preset("paper")
        assert cfg.calibration == "fitted"
        assert cfg.detector.dark_count_prob > 0.0
        assert cfg.nodes[0].p_w == pytest.approx(0.015)
        assert cfg.nodes[0].eta_r0 == pytest.approx(0.40)
        assert cfg.nodes[0].tau_mem_us == pytest.approx(75.0)
        assert cfg.nodes[0].tau_vis_us == pytest.approx(169.2)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            cf.preset("bogus")

    @pytest.mark.parametrize("name", ["ideal", "paper"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"scenario": "ghz6", "seed": 7, "samples": 1_234, "workers": 2, "out_dir": "out"},
            {"read_delay_us": 7.3, "calibration_weights": {"000": 1.5}, "calibration": None},
        ],
    )
    def test_overrides_equal_with_overrides(self, name, overrides):
        built = cf.preset(name, **overrides)
        assert built.to_dict() == cf.preset(name).with_overrides(**overrides).to_dict()

    def test_bad_override_refused_as_with_overrides(self):
        with pytest.raises(ValueError) as once:
            cf.preset("paper", samples=0)
        with pytest.raises(ValueError) as twice:
            cf.preset("paper").with_overrides(samples=0)
        assert str(once.value) == str(twice.value)

    def test_unknown_preset_refused_before_its_overrides(self):
        with pytest.raises(ValueError, match="unknown preset 'bogus'"):
            cf.preset("bogus", samples=0)


class TestEnvelopeSpecs:
    def test_gaussian_spec(self):
        env = op.Envelope.from_spec(
            {"shape": "gaussian", "center_us": 1.0, "width_us": 0.05}
        )
        t = env.times_us
        peak = t[np.argmax(np.abs(env.values))]
        assert peak == pytest.approx(1.0, abs=2e-3)

    def test_square_and_decay_specs(self):
        sq = op.Envelope.from_spec({"shape": "square", "start_us": 0.0, "width_us": 2.0})
        assert sq.times_us[-1] == pytest.approx(2.0)
        ex = op.Envelope.from_spec(
            {"shape": "exponential-decay", "start_us": 0.0, "tau_us": 0.3, "n": 256}
        )
        assert ex.values.size == 256

    def test_csv_spec(self, tmp_path):
        env = op.Envelope.from_spec({"shape": "square", "start_us": 0.0, "width_us": 1.0})
        p = tmp_path / "env.csv"
        rows = np.column_stack([env.times_us, env.values.real, env.values.imag])
        np.savetxt(p, rows, delimiter=",", header="time_us,re,im", comments="")
        again = op.Envelope.from_spec({"csv": str(p)})
        np.testing.assert_allclose(again.values, env.values, atol=1e-12)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="envelope"):
            op.Envelope.from_spec({"shape": "triangle"})

    def test_envelope_keys_of_mixed_types_refused(self):
        spec = {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05}
        with pytest.raises(ValueError, match=r"^envelopes keys must be .*, not \[1, 'I'\]"):
            cf.ExperimentConfig(envelopes={1: spec, "I": spec})

    def test_csv_spec_not_read_at_load(self, tmp_path):
        missing = {"csv": str(tmp_path / "absent.csv")}
        cfg = cf.ExperimentConfig(envelopes={nid: missing for nid in op.NODE_IDS})
        with pytest.raises(OSError):
            op.Envelope.from_spec(cfg.envelopes["I"])

    @pytest.mark.parametrize(
        "spec, text",
        [
            (
                {"shape": "gaussian", "center_us": 0.0, "width_us": 0.1, "widht_us": 3},
                ": missing key(s) [], unknown key(s) ['widht_us']",
            ),
            (
                {"shape": "gaussian", "center_us": 0.0},
                ": missing key(s) ['width_us'], unknown key(s) []",
            ),
            ("spec.csv", " must be an object, not 'spec.csv'"),
            (
                {"csv": "spec.csv", "shape": "gaussian"},
                ": missing key(s) [], unknown key(s) ['shape']",
            ),
            (
                {"shape": "square", "start_us": 0.0, "width_us": 1.0, 1: 0.0, "a": 0.0},
                ": missing key(s) [], unknown key(s) [1, 'a']",
            ),
        ],
        ids=["misspelled_key", "missing_key", "string", "csv_and_shape", "key_of_another_type"],
    )
    def test_spec_refused_as_the_loader_refuses_it(self, spec, text, monkeypatch):
        monkeypatch.setattr(op.Envelope, "from_csv", None)  # a read would fail
        with pytest.raises(ValueError) as direct:
            op.Envelope.from_spec(spec)
        assert str(direct.value) == "envelope spec" + text
        envelopes = {"I": spec, "II": spec, "III": spec}
        with pytest.raises(ValueError) as loaded:
            cf.ExperimentConfig(envelopes=envelopes)
        assert str(loaded.value) == "envelope for node 'I'" + text

    def test_csv_spec_read_without_opening_the_file(self, monkeypatch):
        def no_read(cls, path):
            raise AssertionError(f"{path} was opened")

        monkeypatch.setattr(op.Envelope, "from_csv", classmethod(no_read))
        spec = {"csv": "absent.csv"}
        build, arguments = op.Envelope.read_spec(spec)
        assert build == op.Envelope.from_csv
        assert arguments == {"path": "absent.csv"}
        cf.ExperimentConfig(envelopes=dict.fromkeys(op.NODE_IDS, spec))
        with pytest.raises(AssertionError, match="absent.csv was opened"):
            op.Envelope.from_spec(spec)

    def test_shape_spec_read_as_its_constructor(self):
        spec = {"shape": "exponential-decay", "start_us": 1.0, "tau_us": 0.3, "n": 64}
        build, arguments = op.Envelope.read_spec(spec)
        assert build == op.Envelope.exponential_decay
        assert arguments == {"start_us": 1.0, "tau_us": 0.3, "n": 64}


def test_detector_config_reexport_compatible():
    cfg = cf.ExperimentConfig(detector=DetectorConfig(dark_count_prob=0.01))
    assert cfg.detector.dark_count_prob == 0.01


class TestRules:
    def test_every_config_field_and_key_has_one_rule(self):
        for cls in (NodeConfig, DetectorConfig, cf.TimingConfig, cf.ExperimentConfig):
            for f in dataclasses.fields(cls):
                assert isinstance(f.metadata.get("rule"), rules.Rule), f"{cls.__name__}.{f.name}"
        for scenario, params in cf.SCENARIO_PARAMS.items():
            assert isinstance(params, dict), scenario
            for key, rule in params.items():
                assert isinstance(rule, rules.Rule), f"{scenario} {key}"
        spec_keys = {"shape", "csv", "n"}
        spec_keys |= {key for keys in op.ENVELOPE_SHAPES.values() for key in keys}
        assert set(op.ENVELOPE_RULES) == spec_keys

    @pytest.mark.parametrize(
        "section, key, value, build",
        [
            ("node", "excitation_order", 1.0, lambda v: NodeConfig(excitation_order=v)),
            ("node", "p_w", "0.1", lambda v: NodeConfig(p_w=v)),
            ("node", "p_w", True, lambda v: NodeConfig(p_w=v)),
            ("detector", "dark_count_prob", "0.1", lambda v: DetectorConfig(dark_count_prob=v)),
            ("config", "calibration", 5, lambda v: cf.ExperimentConfig(calibration=v)),
            ("config", "out_dir", 5, lambda v: cf.ExperimentConfig(out_dir=v)),
            ("config", "nodes", None, lambda v: cf.ExperimentConfig(nodes=v)),
        ],
        ids=["order_float", "p_w_string", "p_w_bool", "dark_string", "calibration_int",
             "out_dir_int", "nodes_null"],
    )
    def test_file_and_python_refuse_alike(self, section, key, value, build, tmp_path):
        data = cf.preset("paper").to_dict()
        target = {"config": data, "node": data["nodes"][0], "detector": data["detector"]}[section]
        target[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as from_file:
            cf.ExperimentConfig.from_json(path)
        with pytest.raises(ValueError) as from_python:
            build(value)
        said = str(from_python.value)
        assert said.startswith(f"{key} must be ")
        assert str(from_file.value) == f"{section} key {key!r}{said[len(key):]}"


def _cycle(kind):
    inner = {}
    outer = [1.0, {"a": inner}] if kind is list else {"a": [inner]}
    inner["b"] = outer
    return outer


# payload -> (error type, message) of json.dumps(sort_keys=True, indent=2, allow_nan=False)
NAN = "^Out of range float values are not JSON compliant: "
BAD_PAYLOADS = {
    "nan deep in a list": ({"a": [{"b": [1.0, math.nan]}]}, ValueError, NAN + "nan$"),
    "inf at the top": ([math.inf], ValueError, NAN + "inf$"),
    "-inf in a nested dict": ({"a": {"b": -math.inf, "c": {}}}, ValueError, NAN + "-inf$"),
    "np.int64": ({"a": [np.int64(3)]}, TypeError, "^Object of type int64 is not JSON"),
    "set": ({"a": {"b": {1, 2}}}, TypeError, "^Object of type set is not JSON serializable$"),
    "complex": ([[1j], {"a": 1}], TypeError, "^Object of type complex is not JSON"),
    "cyclic list": (_cycle(list), ValueError, "^Circular reference detected$"),
    "cyclic dict": (_cycle(dict), ValueError, "^Circular reference detected$"),
    "mixed keys, flat": ({"a": {1: 2.0, "b": 3.0}}, TypeError, "not supported between"),
    "mixed keys, nested": ({None: [1], "b": {}}, TypeError, "not supported between"),
}


# scenario -> the scenario_params keys it takes, sorted; and a value each key's rule takes
TAKES = {
    "pair_tomography": ["node"],
    "raman_delay_sweep": ["delays_us", "node"],
    "lifetime_sweep": ["delays_us", "node"],
    "two_node_swap": ["delta_omega_rad_per_us", "point_width_us", "width_us"],
    "ghz6": [],
    "ghz3": [],
}
VALUES = {
    "node": "II",
    "delays_us": [0.0, 1.0, 2.0, 3.0, 4.0],
    "delta_omega_rad_per_us": [1.0],
    "width_us": [0.05],
    "point_width_us": 0.05,
}
FOREIGN = [(s, key) for s in TAKES for key in [*VALUES, "nope"] if key not in TAKES[s]]
MINIMUM = [("raman_delay_sweep", 5), ("lifetime_sweep", 4)]


def build_paths(tmp_path):
    """Each way to build a config, as a call of ``(scenario, scenario_params)``:
    the constructor, ``preset``, ``from_dict``, ``from_json`` and ``with_overrides``."""

    def from_json(scenario, params):
        path = tmp_path / "cfg.json"
        data = cf.ExperimentConfig().to_dict()
        path.write_text(json.dumps({**data, "scenario": scenario, "scenario_params": params}))
        return cf.ExperimentConfig.from_json(path)

    return [
        lambda s, p: cf.ExperimentConfig(scenario=s, scenario_params=p),
        lambda s, p: cf.preset("paper", scenario=s, scenario_params=p),
        lambda s, p: cf.ExperimentConfig.from_dict(
            {**cf.ExperimentConfig().to_dict(), "scenario": s, "scenario_params": p}
        ),
        from_json,
        lambda s, p: cf.preset("ideal").with_overrides(scenario=s, scenario_params=p),
    ]


class TestScenarioParams:
    def test_each_scenario_takes_its_keys(self):
        assert {s: sorted(keys) for s, keys in cf.SCENARIO_PARAMS.items()} == TAKES

    @pytest.mark.parametrize("scenario", TAKES)
    def test_every_key_a_scenario_takes_is_accepted(self, scenario):
        params = {key: VALUES[key] for key in TAKES[scenario]}
        cfg = cf.ExperimentConfig(scenario=scenario, scenario_params=params)
        assert cfg.scenario_params == params

    @pytest.mark.parametrize("scenario, key", FOREIGN, ids=[f"{s}-{k}" for s, k in FOREIGN])
    def test_key_the_scenario_does_not_take_refused_when_built(self, scenario, key):
        with pytest.raises(ValueError) as err:
            cf.ExperimentConfig(scenario=scenario, scenario_params={key: VALUES.get(key, 1)})
        assert str(err.value) == (
            f"unknown scenario_params ['{key}'] for {scenario}; allowed: {TAKES[scenario]}"
        )

    def test_every_build_path_refuses(self, tmp_path):
        expected = "unknown scenario_params ['delays_us'] for two_node_swap; allowed: "
        for build in build_paths(tmp_path):
            with pytest.raises(ValueError) as err:
                build("two_node_swap", {"delays_us": VALUES["delays_us"]})
            assert str(err.value).startswith(expected)
            with pytest.raises(ValueError, match="needs at least 5 points"):
                build("raman_delay_sweep", {"delays_us": [0.0, 1.0]})

    @pytest.mark.parametrize("scenario, n", MINIMUM)
    def test_sweep_needs_its_minimum_point_count(self, scenario, n):
        short = {"delays_us": [float(k) for k in range(n - 1)]}
        with pytest.raises(ValueError) as err:
            cf.ExperimentConfig(scenario=scenario, scenario_params=short)
        assert str(err.value) == (
            f"{scenario} needs at least {n} points in scenario_params key 'delays_us'"
        )
        enough = {"delays_us": [float(k) for k in range(n)]}
        cfg = cf.ExperimentConfig(scenario=scenario, scenario_params=enough)
        assert cfg.scenario_params == enough


class TestReportJson:
    """``report_json`` fails as the stdlib call it stands for fails."""

    @pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
    def test_error_matches_the_stdlib(self, name):
        obj, kind, message = BAD_PAYLOADS[name]
        with pytest.raises(kind, match=message) as want:
            json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(kind) as got:
            cf.report_json(obj)
        assert str(got.value) == str(want.value)

    def test_without_the_c_encoder(self, monkeypatch):
        obj = cf.preset("paper").to_dict()
        want = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert cf.report_json(obj) == want
