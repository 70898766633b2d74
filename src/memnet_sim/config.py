"""Experiment configuration: timing schedule, presets, JSON (de)serialization.

A run is fully described by one ``ExperimentConfig``: the three node
parameter sets, the detector model, the trial schedule, a scenario id and
the sampling/reporting knobs.  Reports are a pure function of
``(config, seed)``, so configs are value types and serialize losslessly to
JSON.

The trial schedule follows the experiment's clock: each cycle of
``cycle_ms`` spends ``loading_ms`` preparing the ensembles and leaves a
``memory_window_ms`` storage window in which at most ``max_trials_per_load``
write trials of ``trial_us`` each are attempted.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

from .detection import DetectorConfig
from .node import NodeConfig
from .optics import Envelope

SCENARIO_IDS = (
    "pair_tomography",
    "raman_delay_sweep",
    "lifetime_sweep",
    "two_node_swap",
    "ghz6",
    "ghz3",
)

NODE_ORDER = ("I", "II", "III")

# scenario -> the scenario_params keys it takes
SCENARIO_PARAMS = {
    "pair_tomography": ("node",),
    "raman_delay_sweep": ("node", "delays_us"),
    "lifetime_sweep": ("node", "delays_us"),
    "two_node_swap": ("delta_omega_rad_per_us", "width_us", "point_width_us"),
    "ghz6": (),
    "ghz3": (),
}

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TimingConfig:
    cycle_ms: float = 21.0
    loading_ms: float = 18.0
    memory_window_ms: float = 3.0
    trial_us: float = 4.7
    max_trials_per_load: int = 622

    def __post_init__(self) -> None:
        for name in ("cycle_ms", "loading_ms", "memory_window_ms", "trial_us"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, not {val}")
        if self.loading_ms + self.memory_window_ms > self.cycle_ms + 1e-9:
            raise ValueError("loading plus memory window exceeds the cycle")
        limit = math.floor(self.memory_window_ms * 1000.0 / self.trial_us)
        if not 1 <= self.max_trials_per_load <= limit:
            raise ValueError(
                f"max_trials_per_load must lie in [1, {limit}] "
                f"for a {self.memory_window_ms} ms window of {self.trial_us} us trials"
            )

    @property
    def trials_per_second(self) -> float:
        """Write trials per wall-clock second, loading overhead included."""
        return self.max_trials_per_load / (self.cycle_ms * 1e-3)


@dataclass(frozen=True)
class ExperimentConfig:
    nodes: tuple[NodeConfig, NodeConfig, NodeConfig] = tuple(
        NodeConfig(node_id=nid) for nid in NODE_ORDER
    )
    detector: DetectorConfig = DetectorConfig()
    timing: TimingConfig = TimingConfig()
    scenario: str = "ghz3"
    seed: int = 0
    samples: int = 10_000
    workers: int = 1
    read_delay_us: float = 0.0
    interference_visibility: float = 1.0
    envelopes: dict | None = None
    calibration_weights: dict | None = None
    scenario_params: dict = field(default_factory=dict)
    out_dir: str | None = None
    calibration: str | None = None

    def __post_init__(self) -> None:
        if len(self.nodes) != 3:
            raise ValueError("exactly three node configs required")
        for cfg, nid in zip(self.nodes, NODE_ORDER):
            if cfg.node_id != nid:
                raise ValueError(f"nodes must be ordered {NODE_ORDER}")
        if self.scenario not in SCENARIO_IDS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIO_IDS}"
            )
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(
                f"seed must be an integer in [0, 2**64), not {self.seed!r}"
            )
        # numpy's multinomial draws at most 2**63 - 1 trials
        if not _is_int(self.samples) or not 1 <= self.samples < 2**63:
            raise ValueError(
                f"samples must be an integer in [1, 2**63 - 1], not {self.samples!r}"
            )
        if not _is_int(self.workers) or self.workers < 1:
            raise ValueError(f"workers must be an integer >= 1, not {self.workers!r}")
        if not (math.isfinite(self.read_delay_us) and self.read_delay_us >= 0.0):
            raise ValueError(
                f"read_delay_us must be non-negative and finite, not {self.read_delay_us}"
            )
        if not 0.0 <= self.interference_visibility <= 1.0:
            raise ValueError("interference_visibility must lie in [0, 1]")
        if self.envelopes is not None:
            _check_envelopes(self.envelopes)
        _check_scenario_params(self.scenario_params)
        if self.calibration_weights is not None:
            for key, val in self.calibration_weights.items():
                if not _is_number(val, positive=True):
                    raise ValueError(
                        f"calibration weight {key!r} must be a positive number, not {val!r}"
                    )
                if not (isinstance(key, str) and key and set(key) <= {"0", "1"}):
                    raise ValueError(
                        f"calibration weight key {key!r} must be an outcome pattern of 0s and 1s"
                    )
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def node(self, node_id: str) -> NodeConfig:
        if node_id not in NODE_ORDER:
            raise KeyError(f"unknown node {node_id!r}")
        return self.nodes[NODE_ORDER.index(node_id)]

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Every field as a JSON value, nested configs as objects and an
        infinite lifetime as null, under the schema version."""
        data = asdict(self)
        data["nodes"] = [
            {
                key: None if key in _INF_IF_NULL and math.isinf(val) else val
                for key, val in nd.items()
            }
            for nd in data["nodes"]
        ]
        return {"schema_version": SCHEMA_VERSION, **data}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_section("config", data, cls, extra=("schema_version",))
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version}")
        nodes = data.get("nodes")
        if not isinstance(nodes, list):
            raise ValueError(f"config key 'nodes' must be a list, not {nodes!r}")
        # a null lifetime is an infinite one
        nodes = [
            {
                key: math.inf if key in _INF_IF_NULL and val is None else val
                for key, val in _check_section("node", nd, NodeConfig).items()
            }
            for nd in nodes
        ]
        detector = _check_section("detector", data.get("detector", {}), DetectorConfig)
        timing = _check_section("timing", data.get("timing", {}), TimingConfig)
        nested = ("schema_version", "nodes", "detector", "timing", "scenario_params")
        kwargs = {key: val for key, val in data.items() if key not in nested}
        return cls(
            nodes=tuple(NodeConfig(**nd) for nd in nodes),
            detector=DetectorConfig(**detector),
            timing=TimingConfig(**timing),
            scenario_params=dict(data.get("scenario_params", {})),
            **kwargs,
        )

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_INF_IF_NULL = ("tau_mem_us", "tau_vis_us")

# JSON type each field annotation's leading type accepts; a bool is none
_JSON_TYPES = {
    "float": (numbers.Real, "a number"),
    "int": (numbers.Integral, "an integer"),
    "str": (str, "a string"),
    "dict": (dict, "an object"),
}


def _check_section(section: str, data, cls, extra=()) -> dict:
    """Return ``data`` once it is a JSON object whose keys are fields of
    ``cls`` (or ``extra``) and whose values have the fields' JSON types.

    A field annotated ``X | None`` also takes null; a lifetime takes null
    as infinity.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, not {data!r}")
    allowed = {f.name for f in fields(cls)} | set(extra)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {section} key(s) {unknown}; allowed: {sorted(allowed)}"
        )
    for f in fields(cls):
        kind, _, rest = f.type.partition(" | ")
        if f.name not in data or kind not in _JSON_TYPES:
            continue
        value = data[f.name]
        if value is None and (rest == "None" or f.name in _INF_IF_NULL):
            continue
        types, what = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"{section} key {f.name!r} must be {what}, not {value!r}"
            )
    return data


def _is_number(value, positive: bool = False) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0.0 or not positive)
    )


def _is_number_list(value, positive: bool = False) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(_is_number(x, positive) for x in value)
    )


# scenario_params key -> (check of its value, what the value must be)
_PARAM_CHECKS = {
    "node": (lambda v: isinstance(v, str) and v in NODE_ORDER, f"one of {list(NODE_ORDER)}"),
    # delays are storage times
    "delays_us": (
        lambda v: _is_number_list(v) and min(v) >= 0.0,
        "a non-empty list of non-negative finite numbers",
    ),
    "delta_omega_rad_per_us": (_is_number_list, "a non-empty list of finite numbers"),
    "width_us": (
        lambda v: _is_number_list(v, positive=True) and all(map(_gaussian_builds, v)),
        "a non-empty list of positive finite numbers, each small enough for a Gaussian grid",
    ),
    "point_width_us": (
        lambda v: _is_number(v, positive=True) and _gaussian_builds(v),
        "a positive finite number small enough for a Gaussian grid",
    ),
}


def _gaussian_builds(width_us) -> bool:
    """Whether the swap scenario's Gaussian envelope of this width has a
    finite grid."""
    try:
        Envelope.gaussian(0.0, width_us)
    except ValueError:
        return False
    return True


def _check_scenario_params(params) -> None:
    """Check the type and range of every scenario parameter a scenario knows.

    Which keys the configured scenario takes, and how many delay points a
    sweep needs, is checked when the scenario starts.
    """
    if not isinstance(params, dict):
        raise ValueError(f"scenario_params must be an object, not {params!r}")
    for key, value in params.items():
        if key in _PARAM_CHECKS:
            valid, what = _PARAM_CHECKS[key]
            if not valid(value):
                raise ValueError(f"scenario_params key {key!r} must be {what}, not {value!r}")


# envelope shape -> (constructor, the spec keys it takes in argument order)
_ENVELOPE_SHAPES = {
    "gaussian": (Envelope.gaussian, ("center_us", "width_us")),
    "square": (Envelope.square, ("start_us", "width_us")),
    "exponential-decay": (Envelope.exponential_decay, ("start_us", "tau_us")),
}


def envelope_from_spec(spec) -> Envelope:
    """Build a temporal envelope from its inline config description.

    Named shapes: ``{"shape": "gaussian", "center_us", "width_us"}``,
    ``{"shape": "square", "start_us", "width_us"}``,
    ``{"shape": "exponential-decay", "start_us", "tau_us"}``, each accepting
    an optional ``n``.  Alternatively ``{"csv": "<path>"}`` loads sampled
    amplitudes.
    """
    if "csv" in spec:
        return Envelope.from_csv(spec["csv"])
    if spec.get("shape") not in _ENVELOPE_SHAPES:
        raise ValueError(f"unknown envelope spec {spec!r}")
    build, keys = _ENVELOPE_SHAPES[spec["shape"]]
    extra = {"n": spec["n"]} if "n" in spec else {}
    return build(*(spec[key] for key in keys), **extra)


def _check_envelopes(envelopes: dict) -> None:
    """Check one envelope spec per node without reading any CSV file.

    A named shape is built once here, so a bad value fails at load with its
    node instead of when (or whether) a scenario uses it.
    """
    if sorted(envelopes) != list(NODE_ORDER):
        raise ValueError(
            f"envelopes keys must be exactly {list(NODE_ORDER)}, not {sorted(envelopes)}"
        )
    for nid, spec in envelopes.items():
        where = f"envelope for node {nid!r}"
        if not isinstance(spec, dict):
            raise ValueError(f"{where} must be an object, not {spec!r}")
        if "csv" in spec:
            types = {"csv": str}
        elif spec.get("shape") in _ENVELOPE_SHAPES:
            keys = _ENVELOPE_SHAPES[spec["shape"]][1]
            types = {"shape": str, "n": numbers.Integral, **dict.fromkeys(keys, numbers.Real)}
        else:
            raise ValueError(
                f"{where} needs a 'csv' path or a 'shape' among {sorted(_ENVELOPE_SHAPES)}"
            )
        missing = sorted(set(types) - set(spec) - {"n"})
        unknown = sorted(set(spec) - set(types))
        if missing or unknown:
            raise ValueError(f"{where}: missing key(s) {missing}, unknown key(s) {unknown}")
        for key, val in spec.items():
            if (
                isinstance(val, bool)
                or not isinstance(val, types[key])
                or (key == "n" and val < 2)
                or (isinstance(val, numbers.Real) and not math.isfinite(val))
            ):
                raise ValueError(f"{where} key {key!r} has a wrong type or value: {val!r}")
        if "shape" in spec:
            try:
                envelope_from_spec(spec)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None


def _nodes(**kwargs) -> tuple[NodeConfig, NodeConfig, NodeConfig]:
    return tuple(NodeConfig(node_id=nid, **kwargs) for nid in NODE_ORDER)


def preset(name: str) -> ExperimentConfig:
    """Named configurations: ``ideal`` (no noise) and ``paper`` (calibrated).

    The ``paper`` preset reproduces the published operating point; its noise
    split between dark counts, pair asymmetry and interference contrast is a
    calibration (flagged ``fitted`` in reports), not a measured decomposition.
    """
    if name == "ideal":
        return ExperimentConfig(
            nodes=_nodes(excitation_order=1),
            detector=DetectorConfig(),
        )
    if name == "paper":
        return ExperimentConfig(
            nodes=_nodes(
                p_w=0.015,
                eta_r0=0.40,
                tau_mem_us=75.0,
                tau_vis_us=169.2,
                depol_weight=0.086,
                branch_weight_down=0.400,
            ),
            detector=DetectorConfig(dark_count_prob=0.0035),
            read_delay_us=0.0,
            interference_visibility=1.0,
            calibration="fitted",
        )
    raise ValueError(f"unknown preset {name!r}; choose from ('ideal', 'paper')")
