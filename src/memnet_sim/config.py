"""Experiment configuration: config classes, presets, JSON (de)serialization.

A run is fully described by one ``ExperimentConfig``: the three node
parameter sets (``NodeConfig``), the detector model (``DetectorConfig``),
the trial schedule (``TimingConfig``), a scenario id and the
sampling/reporting knobs.  Every config class and its rules live here, on
the checker in ``rules``; the envelope spec's format, with its rules,
named shapes and one reader ``Envelope.read_spec``, lives in ``optics``,
and the loader calls that reader once per node.  Reports are a pure
function of ``(config, seed)``, so configs are value types and serialize
losslessly to JSON.  ``report_json`` is the package's one JSON writer, for
configs and reports.

The trial schedule follows the experiment's clock: each cycle of
``cycle_ms`` spends ``loading_ms`` preparing the ensembles and leaves a
``memory_window_ms`` storage window in which at most ``max_trials_per_load``
write trials of ``trial_us`` each are attempted.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import rules as r
from .optics import GAUSSIAN_WIDTH, NODE_IDS, Envelope

SCHEMA_VERSION = 1


def _check_envelopes(envelopes: dict, _) -> bool:
    """Read each node's envelope spec and build its named shape, opening no
    CSV, so a bad value fails at load instead of in a scenario."""
    keys = sorted(envelopes, key=str)
    if keys != list(NODE_IDS):
        raise ValueError(f"envelopes keys must be exactly {list(NODE_IDS)}, not {keys}")
    for nid, spec in envelopes.items():
        where = f"envelope for node {nid!r}"
        build, arguments = Envelope.read_spec(spec, where)
        if build != Envelope.from_csv:  # a CSV is read when a scenario runs
            try:
                build(**arguments)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return True


# a node's id, also a pair scenario's scenario_params key 'node'
IS_NODE_ID = r.must(lambda v: v in NODE_IDS, f"one of {list(NODE_IDS)}")
# the write outcome probabilities are 1 - p_w - p_w**2, p_w and p_w**2
_P_W = r.must(lambda v: v >= 0.0 and v + v * v <= 1.0, "non-negative with p_w + p_w**2 <= 1")
# the sweeps' default delays reach 22 periods, the swap's default detunings 4 * 2 pi / period
_PERIOD_FEEDS = r.must(
    lambda v: math.isfinite(22.0 * v) and math.isfinite(8.0 * math.pi / v),
    "a period whose 22 periods and 8 pi / period are finite",
)


@dataclass(frozen=True)
class NodeConfig:
    """Static parameters of one memory node.

    ``p_w`` is the detected write-out probability per attempt (source
    efficiency times write-arm transmission and detection), ``eta_r0`` the
    zero-delay retrieval efficiency including the read arm.  Time constants
    are in microseconds; ``math.inf`` disables the corresponding decay.
    """

    node_id: str = r.ruled(r.STRING, IS_NODE_ID, default="I")
    p_w: float = r.ruled(r.NUMBER, _P_W, default=0.015)
    eta_r0: float = r.ruled(r.NUMBER, r.UNIT, default=0.40)
    tau_mem_us: float = r.ruled(r.NUMBER, r.POSITIVE, default=math.inf)  # inf: no decay
    tau_vis_us: float = r.ruled(r.NUMBER, r.POSITIVE, default=math.inf)
    zeeman_period_us: float = r.ruled(r.NUMBER, r.POSITIVE_FINITE, _PERIOD_FEEDS, default=5.28)
    phi0: float = r.ruled(r.NUMBER, r.must(r.is_finite, "finite"), default=0.0)
    excitation_order: int = r.ruled(r.INTEGER, r.must(lambda v: v in (1, 2), "1 or 2"), default=2)
    depol_weight: float = r.ruled(r.NUMBER, r.UNIT, default=0.0)
    branch_weight_down: float = r.ruled(r.NUMBER, r.UNIT, default=0.5)

    def __post_init__(self) -> None:
        r.check_fields(self)


@dataclass(frozen=True)
class DetectorConfig:
    """Per-channel dark-count probability in one detection window."""

    dark_count_prob: float = r.ruled(r.NUMBER, r.UNIT, default=0.0)

    def __post_init__(self) -> None:
        r.check_fields(self)


_FITS_CYCLE = (
    lambda window, t: t.loading_ms + window <= t.cycle_ms + 1e-9,
    "loading plus memory window exceeds the cycle: {name} {value!r}",
)
# the trial limit memory_window_ms * 1000 / trial_us, unrounded: n <= floor(x) is n <= x
_LIMIT_FINITE = (
    lambda trial, t: math.isfinite(t.memory_window_ms * 1000.0 / trial),
    "{name} {value!r} overflows the trial limit memory_window_ms * 1000 / trial_us",
)
_FITS_WINDOW = (
    lambda n, t: 1 <= n <= t.memory_window_ms * 1000.0 / t.trial_us,
    "{name} must lie in [1, memory_window_ms * 1000 / trial_us], not {value!r}",
)


@dataclass(frozen=True)
class TimingConfig:
    cycle_ms: float = r.ruled(r.NUMBER, r.POSITIVE_FINITE, default=21.0)
    loading_ms: float = r.ruled(r.NUMBER, r.POSITIVE_FINITE, default=18.0)
    memory_window_ms: float = r.ruled(r.NUMBER, r.POSITIVE_FINITE, _FITS_CYCLE, default=3.0)
    trial_us: float = r.ruled(r.NUMBER, r.POSITIVE_FINITE, _LIMIT_FINITE, default=4.7)
    max_trials_per_load: int = r.ruled(r.INTEGER, _FITS_WINDOW, default=622)

    def __post_init__(self) -> None:
        r.check_fields(self)

    @property
    def trials_per_second(self) -> float:
        """Write trials per wall-clock second, loading overhead included."""
        return self.max_trials_per_load / (self.cycle_ms * 1e-3)


def _at_least(low: float):
    """A test for a finite number of at least ``low``."""
    return lambda v: r.is_real(v) and r.is_finite(v) and v >= low


def _gaussian(width_us) -> bool:  # the swap's modes are Gaussians
    return all(test(width_us, None) for test, _ in GAUSSIAN_WIDTH.kind + GAUSSIAN_WIDTH.checks)


def _list_of(item, what: str, *checks) -> r.Rule:
    """A non-empty list whose every item passes ``item``, then ``checks``."""
    is_list = lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(item, v))
    return r.Rule((), (r.must(is_list, "a non-empty list of " + what), *checks))


def _storage_times(scenario: str, n: int) -> r.Rule:
    """A sweep's delays: at least ``n`` non-negative finite numbers."""
    fewer = (lambda v, _: len(v) >= n, f"{scenario} needs at least {n} points in {{name}}")
    return _list_of(_at_least(0.0), "non-negative finite numbers", fewer)


_GAUSSIAN = "small enough for a Gaussian grid"
_NODE = r.Rule((), (IS_NODE_ID,))

# scenario -> the scenario_params keys it takes with their rules, checked as the config is built
SCENARIO_PARAMS = {
    "pair_tomography": {"node": _NODE},
    "raman_delay_sweep": {"node": _NODE, "delays_us": _storage_times("raman_delay_sweep", 5)},
    "lifetime_sweep": {"node": _NODE, "delays_us": _storage_times("lifetime_sweep", 4)},
    "two_node_swap": {
        "delta_omega_rad_per_us": _list_of(_at_least(-math.inf), "finite numbers"),
        "width_us": _list_of(_gaussian, f"positive finite numbers, each {_GAUSSIAN}"),
        "point_width_us": r.Rule((), (r.must(_gaussian, f"a positive finite number {_GAUSSIAN}"),)),
    },
    "ghz6": {},
    "ghz3": {},
}
SCENARIO_IDS = tuple(SCENARIO_PARAMS)


def _check_params(params: dict, cfg) -> bool:
    allowed = SCENARIO_PARAMS[cfg.scenario]
    unknown = sorted(set(params) - set(allowed), key=str)
    if unknown:
        raise ValueError(
            f"unknown scenario_params {unknown} for {cfg.scenario}; allowed: {sorted(allowed)}"
        )
    for key, value in params.items():
        r.check(f"scenario_params key {key!r}", value, allowed[key])
    return True


def _is_pattern(key) -> bool:
    return isinstance(key, str) and len(key) > 0 and set(key) <= {"0", "1"}


def _witness_bounded(weight, cfg) -> bool:
    """The witness variance sums ``w**2 n (a - r)**2`` over counts ``n`` of
    at most ``samples``, with ``(a - r)**2`` at most 4, and divides by the
    squared weighted total, at most ``(w samples)**2``: all must stay finite."""
    total = float(weight) * cfg.samples
    return math.isfinite(4.0 * total * total)


_WEIGHT = r.Rule(
    (),
    (
        r.must(lambda v: _at_least(0.0)(v) and v > 0.0, "a positive number"),
        (_witness_bounded, "{name} {value!r} overflows the witness variance at this sample count"),
    ),
)
_PATTERN = r.Rule((), (r.must(_is_pattern, "an outcome pattern of 0s and 1s"),))
_NON_EMPTY = r.must(lambda v: v != "", "a non-empty path")  # "" would print the report


def _check_weights(weights: dict, cfg) -> bool:
    for key, value in weights.items():
        r.check(f"calibration weight {key!r}", value, _WEIGHT, cfg)
        r.check(f"calibration weight key {key!r}", key, _PATTERN)
    return True


def _instance_of(cls) -> tuple:
    return r.must(lambda v: isinstance(v, cls), f"a {cls.__name__}")


def _three_in_order(nodes) -> bool:
    return [nd.node_id if isinstance(nd, NodeConfig) else None for nd in nodes] == [*NODE_IDS]


@dataclass(frozen=True)
class ExperimentConfig:
    nodes: tuple[NodeConfig, NodeConfig, NodeConfig] = r.ruled(
        (r.must(lambda v: isinstance(v, (list, tuple)), "a list"),),
        r.must(_three_in_order, f"three NodeConfigs ordered {NODE_IDS}"),
        default=tuple(NodeConfig(node_id=nid) for nid in NODE_IDS),
    )
    detector: DetectorConfig = r.ruled((), _instance_of(DetectorConfig), default=DetectorConfig())
    timing: TimingConfig = r.ruled((), _instance_of(TimingConfig), default=TimingConfig())
    scenario: str = r.ruled(
        r.STRING, r.must(lambda v: v in SCENARIO_IDS, f"one of {SCENARIO_IDS}"), default="ghz3"
    )
    seed: int = r.ruled(
        r.INTEGER, r.must(lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)"), default=0
    )
    # numpy's multinomial draws at most 2**63 - 1 trials
    samples: int = r.ruled(
        r.INTEGER, r.must(lambda v: 1 <= v < 2**63, "an integer in [1, 2**63 - 1]"), default=10_000
    )
    workers: int = r.ruled(r.INTEGER, r.must(lambda v: v >= 1, "an integer >= 1"), default=1)
    read_delay_us: float = r.ruled(
        r.NUMBER, r.must(_at_least(0.0), "non-negative and finite"), default=0.0
    )
    interference_visibility: float = r.ruled(r.NUMBER, r.UNIT, default=1.0)
    envelopes: dict | None = r.ruled(r.OBJECT, (_check_envelopes, ""), optional=True, default=None)
    calibration_weights: dict | None = r.ruled(
        r.OBJECT, (_check_weights, ""), optional=True, default=None
    )
    scenario_params: dict = r.ruled(r.OBJECT, (_check_params, ""), default_factory=dict)
    out_dir: str | None = r.ruled(r.STRING, _NON_EMPTY, optional=True, default=None)
    calibration: str | None = r.ruled(r.STRING, optional=True, default=None)

    def __post_init__(self) -> None:
        r.check_fields(self)
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def node(self, node_id: str) -> NodeConfig:
        if node_id not in NODE_IDS:
            raise KeyError(f"unknown node {node_id!r}")
        return self.nodes[NODE_IDS.index(node_id)]

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Every field as a JSON value, nested configs as objects and an
        infinite lifetime as null, under the schema version."""
        data = _field_values(self)
        data.update({key: _field_values(data[key]) for key in ("detector", "timing")})
        # copies: editing the dict leaves the config as it is
        data.update({key: _json_copy(data[key]) for key in _CONTAINERS})
        data["nodes"] = [_field_values(nd) for nd in self.nodes]
        for nd in data["nodes"]:
            nd.update({key: None for key in _INF_IF_NULL if math.isinf(nd[key])})
        return {"schema_version": SCHEMA_VERSION, **data}

    @classmethod
    def from_dict(cls, data: dict, **overrides) -> "ExperimentConfig":
        """The config ``data`` holds, ``overrides`` (as ``preset`` takes them) built in."""
        data = _check_section("config", data, cls, extra=("schema_version",))
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version!r}")
        sections = {
            "nodes": lambda nodes: tuple(
                NodeConfig(**_check_section("node", nd, NodeConfig)) for nd in nodes
            ),
            "detector": lambda d: DetectorConfig(**_check_section("detector", d, DetectorConfig)),
            "timing": lambda t: TimingConfig(**_check_section("timing", t, TimingConfig)),
            "scenario_params": dict,
        }
        built = {key: sections[key](v) if key in sections else v for key, v in data.items()}
        return cls(**{**built, **overrides})

    def to_json(self, path=None) -> str:
        """The config as ``report_json`` text, also written to ``path`` with a
        closing newline; a value JSON cannot hold raises before any file opens."""
        text = report_json(self.to_dict())
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """The config in file ``path``, ``overrides`` built in; a file that is not
        UTF-8 JSON raises one line that names it, with json's line and column."""
        where = f"config {path}"
        try:
            data = json.loads(r.read_text(path, where))
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"{where} is not JSON: {exc}") from None
        return cls.from_dict(data, **overrides)


def report_json(obj) -> str:
    """A report, report body or config as JSON text: exactly
    ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``.

    That call takes the pure-Python encoder, as ``indent`` is set.  Here
    each container that holds no container is one call of the C encoder,
    whose item separator carries the line break and indent of its level,
    and only the nesting above is joined in Python.  What this does not
    cover (a key that is not a str in a nested dict, a container subclass)
    and every error (NaN, a type JSON cannot hold, a cycle) goes to that
    call, which returns or raises as it would alone.
    """
    if json.encoder.c_make_encoder is not None and type(obj) in _NESTING:
        try:
            return _layout(obj, 0)
        except (TypeError, ValueError, RecursionError):
            pass
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


_LEAVES = frozenset((str, int, float, bool, type(None)))
_NESTING = frozenset((dict, list, tuple))
_STR = frozenset((str,))


def _refuse(obj):
    """The C encoder's ``default``: a type JSON cannot hold is left to the stdlib."""
    raise TypeError(type(obj).__name__)


@functools.cache
def _level(depth: int) -> tuple:
    """The C encoder for the items of a container at ``depth``, and the
    line breaks before its closing bracket and before each of its items."""
    breaks = ["\n" + "  " * d for d in (depth, depth + 1)]
    enc = json.encoder.c_make_encoder(
        None, _refuse, json.encoder.encode_basestring_ascii, None,
        ": ", "," + breaks[1], True, False, False,
    )
    return enc, *breaks


def _layout(obj, depth: int) -> str:
    """A dict, list or tuple as ``json.dumps(..., indent=2)`` writes it at
    ``depth``; TypeError where that text is left to the stdlib."""
    enc, outer, inner = _level(depth)
    values = obj.values() if type(obj) is dict else obj
    if not _LEAVES.issuperset(map(type, values)):
        kinds = set(map(type, values))
        if kinds - _LEAVES <= _NESTING:
            return _nested(obj, depth, kinds)
        if any(issubclass(k, (dict, list, tuple)) for k in kinds):
            raise TypeError("a container the stdlib lays out")
    # leaves only, which the C encoder writes or refuses
    text = "".join(enc(obj, 0))
    return text if len(text) == 2 else f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"


def _nested(obj, depth: int, kinds: set) -> str:
    """A container at ``depth`` holding values of ``kinds``, some containers."""
    enc, outer, inner = _level(depth)
    if type(obj) is dict:
        if not _STR.issuperset(map(type, obj)):
            raise TypeError("a key the stdlib converts")
        key = json.encoder.encode_basestring_ascii
        rows = [
            key(k) + ": " + (_layout(v, depth + 1) if type(v) in _NESTING else "".join(enc(v, 0)))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(rows) + outer + "}"
    if len(kinds) == 1 and all(obj):
        # non-empty containers of one kind, if all flat, in one call: no
        # string holds a raw line break, so each "},<break>{" (or "],<break>[")
        # is a boundary between two of them
        items = itertools.chain.from_iterable(map(dict.values, obj) if dict in kinds else obj)
        if _LEAVES.issuperset(map(type, items)):
            items_enc, _, deeper = _level(depth + 1)
            text = "".join(items_enc(obj, 0))
            first, last = text[1], text[-2]
            boundary = inner + last + "," + inner + first + deeper
            siblings = text[2:-2].replace(last + "," + deeper + first, boundary)
            return "[" + inner + first + deeper + siblings + inner + last + outer + "]"
    rows = [_layout(v, depth + 1) if type(v) in _NESTING else "".join(enc(v, 0)) for v in obj]
    return "[" + inner + ("," + inner).join(rows) + outer + "]"


_INF_IF_NULL = ("tau_mem_us", "tau_vis_us")
_CONTAINERS = ("envelopes", "calibration_weights", "scenario_params")


def _field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json_copy(value):
    """A copy of a config container in JSON values: each tuple a list and each
    numpy scalar the Python number it holds, both of which its rules take."""
    if isinstance(value, dict):
        return {key: _json_copy(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_copy(item) for item in value]
    return value.item() if isinstance(value, np.generic) else value


def _check_section(section: str, data, cls, extra=()) -> dict:
    """A copy of ``data`` once it is a JSON object whose keys are fields of
    ``cls`` (or ``extra``) and whose values are of the kinds the fields'
    rules ask, with a null lifetime read as infinity."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, not {data!r}")
    allowed = {f.name for f in fields(cls)} | set(extra)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {section} key(s) {unknown}; allowed: {sorted(allowed)}")
    data = {k: math.inf if k in _INF_IF_NULL and v is None else v for k, v in data.items()}
    for f in fields(cls):
        if f.name in data:
            r.check(f"{section} key {f.name!r}", data[f.name], f.metadata["rule"], kind_only=True)
    return data


def _nodes(**kwargs) -> tuple[NodeConfig, NodeConfig, NodeConfig]:
    return tuple(NodeConfig(node_id=nid, **kwargs) for nid in NODE_IDS)


# preset name -> its fields, built only when the preset is asked for
PRESETS = {
    "ideal": lambda: dict(nodes=_nodes(excitation_order=1), detector=DetectorConfig()),
    "paper": lambda: dict(
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
    ),
}


def preset(name: str, **overrides) -> ExperimentConfig:
    """Named configurations, ``PRESETS``: ``ideal`` (no noise), ``paper`` (calibrated).

    The ``paper`` preset reproduces the published operating point; its noise
    split between dark counts, pair asymmetry and depolarization is a
    calibration (flagged ``fitted`` in reports), not a measured decomposition.
    ``overrides`` (field values, as ``with_overrides`` takes them) go into
    the preset's one ``ExperimentConfig`` construction, so the config is
    built and validated once and equals
    ``preset(name).with_overrides(**overrides)``.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {tuple(PRESETS)}")
    return ExperimentConfig(**{**PRESETS[name](), **overrides})
