"""Tests for experiment configuration, serialization, and presets."""

import json
import math

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim.detection import DetectorConfig
from memnet_sim.node import NodeConfig


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
        cfg = cf.ExperimentConfig(scenario_params={"delays_us": [0.0, 1.0]})
        back = cf.ExperimentConfig.from_dict(cfg.to_dict())
        assert back.scenario_params == {"delays_us": [0.0, 1.0]}

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        cfg = cf.preset("ideal").with_overrides(seed=3)
        cfg.to_json(p)
        assert cf.ExperimentConfig.from_json(p) == cfg

    def test_schema_version_checked(self):
        d = cf.ExperimentConfig().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            cf.ExperimentConfig.from_dict(d)

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


class TestEnvelopeSpecs:
    def test_gaussian_spec(self):
        env = cf.envelope_from_spec(
            {"shape": "gaussian", "center_us": 1.0, "width_us": 0.05}
        )
        t = env.times_us
        peak = t[np.argmax(np.abs(env.values))]
        assert peak == pytest.approx(1.0, abs=2e-3)

    def test_square_and_decay_specs(self):
        sq = cf.envelope_from_spec({"shape": "square", "start_us": 0.0, "width_us": 2.0})
        assert sq.times_us[-1] == pytest.approx(2.0)
        ex = cf.envelope_from_spec(
            {"shape": "exponential-decay", "start_us": 0.0, "tau_us": 0.3, "n": 256}
        )
        assert ex.values.size == 256

    def test_csv_spec(self, tmp_path):
        env = cf.envelope_from_spec({"shape": "square", "start_us": 0.0, "width_us": 1.0})
        p = tmp_path / "env.csv"
        env.to_csv(p)
        again = cf.envelope_from_spec({"csv": str(p)})
        np.testing.assert_allclose(again.values, env.values, atol=1e-12)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="envelope"):
            cf.envelope_from_spec({"shape": "triangle"})

    def test_csv_spec_not_read_at_load(self, tmp_path):
        missing = {"csv": str(tmp_path / "absent.csv")}
        cfg = cf.ExperimentConfig(envelopes={nid: missing for nid in cf.NODE_ORDER})
        with pytest.raises(OSError):
            cf.envelope_from_spec(cfg.envelopes["I"])


def test_detector_config_reexport_compatible():
    cfg = cf.ExperimentConfig(detector=DetectorConfig(dark_count_prob=0.01))
    assert cfg.detector.dark_count_prob == 0.01
