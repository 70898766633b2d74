"""Properties over random valid configurations: lossless JSON round trip,
a report body that does not depend on the worker count, normalized event
tables and a six-fold probability that grows with a node's ``p_w``; and
over configurations with junk in them: a run ends in a report or in one
line of error."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnet_sim import cli
from memnet_sim import config as cf
from memnet_sim import events as ev
from memnet_sim import harness as h
from memnet_sim.config import DetectorConfig, NodeConfig
from memnet_sim.optics import NODE_IDS

GAUSSIAN = {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05}


def unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def lifetime(lo):
    return st.one_of(st.just(math.inf), unit(lo, 1e4))


@st.composite
def nodes(draw, runnable):
    """Three node configs; ``runnable`` keeps every write outcome and the
    herald possible, so every scenario runs to a body."""
    out = []
    for nid in NODE_IDS:
        bounds = (0.2, 0.8) if runnable else (0.0, 1.0)
        out.append(
            NodeConfig(
                node_id=nid,
                p_w=draw(unit(0.005, 0.3) if runnable else unit(0.0, 0.6)),
                eta_r0=draw(unit(0.1, 1.0) if runnable else unit()),
                tau_mem_us=draw(lifetime(20.0 if runnable else 1e-3)),
                tau_vis_us=draw(lifetime(20.0 if runnable else 1e-3)),
                zeeman_period_us=draw(unit(1.0, 20.0)),
                phi0=draw(unit(-10.0, 10.0)),
                excitation_order=draw(st.sampled_from((1, 2))),
                depol_weight=draw(unit(0.0, 0.3) if runnable else unit()),
                branch_weight_down=draw(unit(*bounds)),
            )
        )
    return tuple(out)


@st.composite
def timings(draw):
    trial = draw(unit(0.5, 10.0))
    window = draw(unit(0.1, 5.0))
    loading = draw(unit(0.1, 30.0))
    limit = math.floor(window * 1000.0 / trial)
    return cf.TimingConfig(
        cycle_ms=loading + window + draw(unit(0.0, 10.0)),
        loading_ms=loading,
        memory_window_ms=window,
        trial_us=trial,
        max_trials_per_load=draw(st.integers(1, max(1, limit))),
    )


def envelope_spec():
    width = unit(0.01, 2.0)
    where = unit(-5.0, 5.0)
    n = {"n": st.integers(2, 64)}
    shapes = {
        "gaussian": {"center_us": where, "width_us": width},
        "square": {"start_us": where, "width_us": width},
        "exponential-decay": {"start_us": where, "tau_us": width},
    }
    return st.one_of(
        st.fixed_dictionaries({"shape": st.just(shape), **keys}, optional=n)
        for shape, keys in shapes.items()
    )


def scenario_params(scenario):
    """Any subset of the keys ``scenario`` takes, each with a value its rule takes."""
    numbers = st.lists(unit(-10.0, 10.0), min_size=1, max_size=4)
    widths = st.lists(unit(0.01, 1.0), min_size=1, max_size=3)
    points = {"raman_delay_sweep": 5, "lifetime_sweep": 4}.get(scenario, 1)
    values = {
        "node": st.sampled_from(NODE_IDS),
        "delays_us": st.lists(unit(0.0, 50.0), min_size=points, max_size=8),
        "delta_omega_rad_per_us": numbers,
        "width_us": widths,
        "point_width_us": unit(0.01, 1.0),
    }
    return st.fixed_dictionaries({}, optional={k: values[k] for k in cf.SCENARIO_PARAMS[scenario]})


@st.composite
def configs(draw):
    """Any configuration the loader accepts."""
    patterns = st.text("01", min_size=1, max_size=6)
    scenario = draw(st.sampled_from(cf.SCENARIO_IDS))
    return cf.ExperimentConfig(
        nodes=draw(nodes(runnable=False)),
        detector=DetectorConfig(dark_count_prob=draw(unit())),
        timing=draw(timings()),
        scenario=scenario,
        seed=draw(st.integers(0, 2**64 - 1)),
        samples=draw(st.integers(1, 10**9)),
        workers=draw(st.integers(1, 64)),
        read_delay_us=draw(unit(0.0, 100.0)),
        interference_visibility=draw(unit()),
        envelopes=draw(
            st.none() | st.fixed_dictionaries(dict.fromkeys(NODE_IDS, envelope_spec()))
        ),
        calibration_weights=draw(
            st.none() | st.dictionaries(patterns, unit(0.1, 10.0), max_size=4)
        ),
        scenario_params=draw(scenario_params(scenario)),
        out_dir=draw(st.none() | st.text(min_size=1, max_size=8)),
        calibration=draw(st.none() | st.text(max_size=8)),
    )


@st.composite
def runnable_configs(draw):
    """Small configurations every scenario turns into a body, with each
    scenario's default parameters."""
    return cf.ExperimentConfig(
        nodes=draw(nodes(runnable=True)),
        detector=DetectorConfig(dark_count_prob=draw(unit(0.0, 0.05))),
        scenario=draw(st.sampled_from(cf.SCENARIO_IDS)),
        seed=draw(st.integers(0, 2**64 - 1)),
        samples=draw(st.integers(200, 5_000)),
        read_delay_us=draw(unit(0.0, 5.0)),
        interference_visibility=draw(unit(0.5, 1.0)),
        envelopes=draw(st.none() | st.just(dict.fromkeys(NODE_IDS, GAUSSIAN))),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=configs())
def test_config_survives_a_json_file_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert cf.ExperimentConfig.from_json(path) == cfg


@settings(max_examples=10, deadline=None)
@given(cfg=runnable_configs(), workers=st.integers(2, 8))
def test_body_does_not_change_with_workers(cfg, workers):
    one = h.run_scenario(cfg)
    many = h.run_scenario(cfg.with_overrides(workers=workers))
    assert many.meta["workers"] == workers
    assert many.body_json() == one.body_json()


SETTINGS = {"ghz6": ev.ghz6_settings(), "ghz3": ev.ghz3_settings()}


@settings(max_examples=30, deadline=None)
@given(cfg=runnable_configs(), scenario=st.sampled_from(sorted(SETTINGS)))
def test_event_tables_are_normalized(cfg, scenario):
    for table in ev.build_event_tables(cfg, SETTINGS[scenario]):
        assert 0.0 < table.p_sixfold <= 1.0
        assert table.outcome_distribution().sum() == pytest.approx(1.0, abs=1e-12)
        assert (table.outcome_distribution() >= 0.0).all()
        np.testing.assert_allclose(table.distributions.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    cfg=runnable_configs(),
    scenario=st.sampled_from(sorted(SETTINGS)),
    node=st.integers(0, 2),
    step=unit(0.0, 1.0),
)
def test_p_sixfold_does_not_fall_as_p_w_rises(cfg, scenario, node, step):
    nodes = list(cfg.nodes)
    p_w = nodes[node].p_w
    nodes[node] = dataclasses.replace(nodes[node], p_w=p_w + step * (0.6 - p_w))
    raised = cfg.with_overrides(nodes=tuple(nodes))
    before = ev.build_event_tables(cfg, SETTINGS[scenario])
    after = ev.build_event_tables(raised, SETTINGS[scenario])
    for old, new in zip(before, after):
        assert new.p_sixfold >= old.p_sixfold * (1.0 - 1e-12)


def leaves(data, path=()):
    """Paths to every value of a config dict that is no non-empty object or
    list."""
    if isinstance(data, (dict, list)) and data:
        for key, value in data.items() if isinstance(data, dict) else enumerate(data):
            yield from leaves(value, (*path, key))
    else:
        yield path


PAPER = cf.preset("paper").to_dict()
# a Gaussian, a square and an exponential decay, one with its grid size
ENVELOPES = {
    "I": {"shape": "gaussian", "center_us": 0.0, "width_us": 0.4},
    "II": {"shape": "square", "start_us": -0.5, "width_us": 2.0},
    "III": {"shape": "exponential-decay", "start_us": -0.3, "tau_us": 0.5, "n": 64},
}
SCENARIO_PARAMS = {
    "pair_tomography": {"node": "I"},
    "raman_delay_sweep": {"node": "I", "delays_us": [0.0, 1.3, 2.6, 3.9, 5.2]},
    "lifetime_sweep": {"node": "I", "delays_us": [0.0, 5.28, 10.56, 21.12]},
    "two_node_swap": {"delta_omega_rad_per_us": [0.6, 2.4], "width_us": [0.05], "point_width_us": 0.1},
    "ghz6": {},
    "ghz3": {},
}


def rich(scenario):
    """The ``paper`` config of ``scenario`` with envelopes, calibration weights
    (on ghz3's memory patterns or six-bit ones) and scenario_params."""
    weights = {"110": 1.2, "001": 0.8} if scenario == "ghz3" else {"110001": 1.2, "001110": 0.8}
    params = SCENARIO_PARAMS[scenario]
    return {**PAPER, "envelopes": ENVELOPES, "calibration_weights": weights, "scenario_params": params}


def fuzzed_leaves(data):
    """The leaves a junk edit may hit: node I stands for all three nodes (the
    sweeps read it), and out_dir is left alone, since a string there writes a
    bundle instead of printing the report."""
    skip = (("nodes", 1), ("nodes", 2), ("out_dir",))
    return [path for path in leaves(data) if path[:2] not in skip]


# (scenario, base config): every scenario at paper and with the optional sections
BASES = [(s, base) for s in cf.SCENARIO_IDS for base in (PAPER, rich(s))]
JUNK = st.sampled_from(
    ["0.1", True, None, 10**400, 1e308, -1e308, 1e-320, math.nan, math.inf, -math.inf, [], {}]
)


def junk_edits(case):
    scenario, base = case
    edit = st.tuples(st.sampled_from(fuzzed_leaves(base)), JUNK)
    return st.tuples(st.just(scenario), st.just(base), st.lists(edit, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(BASES).flatmap(junk_edits))
def test_junk_in_a_config_ends_in_a_report_or_one_error_line(case):
    scenario, base, edits = case
    data = json.loads(json.dumps({**base, "scenario": scenario, "samples": 20}))
    for path, value in edits:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        # a warning that escapes fails here: Tier-1 turns warnings into errors
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["--config", str(path)])
    assert rc in (0, 1)
    if rc:
        assert err.getvalue().startswith("memnet-sim: error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert json.loads(out.getvalue())["scenario"] == data["scenario"]


def stdlib_json(obj):
    """The reference text of ``report_json``, or the error it raises."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def writer_json(obj):
    try:
        return cf.report_json(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# escapes, a raw line break, non-ASCII, lone surrogates and text that looks
# like a boundary between two laid-out siblings
AWKWARD = st.sampled_from(['"', "\\", "\n", "é中", "\ud800", "\udfff", "},\n    {", "],\n  ["])
TEXT = st.lists(st.one_of(st.text(max_size=3), AWKWARD), max_size=3).map("".join)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, 1e-05, 1e22, math.nan, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1]), st.integers(-(2**70), 2**70), FLOATS, TEXT
)
# mostly one kind of key per dict, as reports have; a dict of mixed keys
# sorts as the stdlib sorts it or fails as it fails
KEYS = st.sampled_from(
    [TEXT, TEXT, TEXT, st.integers(-5, 5), FLOATS, st.booleans(), st.none(), TEXT | st.integers()]
)


def dicts(values, min_size=0):
    return KEYS.flatmap(lambda keys: st.dictionaries(keys, values, min_size=min_size, max_size=4))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        dicts(children),
        # flat siblings of one kind and unequal lengths, as sweep points are
        st.lists(dicts(SCALARS, min_size=1), min_size=1, max_size=3),
        st.lists(st.lists(SCALARS, min_size=1, max_size=3), min_size=1, max_size=3),
    )


PAYLOADS = st.recursive(SCALARS, containers, max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=PAYLOADS)
def test_report_json_is_the_stdlib_text_byte_for_byte(obj):
    assert writer_json(obj) == stdlib_json(obj)
