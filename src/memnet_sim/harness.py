"""Scenario orchestration: trial schedules, samplers, reports.

Everything in this module is glue.  The physics lives in the node, optics,
events and witness modules, the fits in ``fit``; the harness turns a
validated ExperimentConfig into count tables and derived estimates and
serializes them.  The runners call ``fit.curve_fit`` as ``curve_fit``:
``harness.curve_fit`` is the name the benchmark's fit span wraps.

Two contracts shape the code:

* Determinism.  Each sampled table (a pair table or a heralded event
  table) draws all its counts with one multinomial from its own
  counter-based Philox stream, keyed by ``(master seed, table index)``;
  ``_TableStreams`` hands the streams out in the fixed order the runners
  take them, and counts the streams and the draws that the report's meta
  block records.  A sum of independent
  multinomials over one probability vector is itself that multinomial, so
  one draw per table has the statistics of any split into smaller draws.
  The report body is therefore a pure function of (config, seed); wall time
  and the ``workers`` setting, which changes neither results nor threading,
  live in the report meta block.
* Conditional sampling.  Six-fold coincidences occur at ~1e-8 per trial, so
  the heralded scenarios draw events directly from the enumerated
  conditional distribution (events module) and carry the herald probability
  as an importance weight instead of simulating raw trials.

Sample budgets: the heralded scenarios (ghz6, ghz3) split ``cfg.samples``
heralded events round-robin over the witness settings; the sweep scenarios
use ``cfg.samples`` raw trials per sweep point; pair_tomography uses
``cfg.samples`` raw trials per basis.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import config as cf
from . import detection as det
from . import events as ev
from . import fit as ft
from . import node as nd
from . import optics as op
from . import quantum as q
from . import witness as w
from .fit import curve_fit

# Spin analyzer bases, columns ordered so that channel 0 corresponds to the
# read photon's R channel (up -> R, down -> L under retrieval). With this
# ordering the correlated coincidences land in the cross-labeled cells,
# matching the sign convention of detection.visibility_raw.
_SPIN_RL = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _spin_super_basis(theta: float) -> np.ndarray:
    """Equatorial spin analyzer aligned for positive visibility at ``theta``."""
    return q.equatorial_basis(theta + math.pi)


def _table_rng(seed: int, table_index: int) -> np.random.Generator:
    # the 128-bit key (seed, table_index), low word first
    return np.random.Generator(np.random.Philox(key=seed + (table_index << 64)))


class _TableStreams:
    """One stream per sampled table, indexed in the order tables take them;
    counts the streams ``taken`` and the trials or heralded events ``draws``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.taken = 0
        self.draws = 0

    def take(self, n: int) -> np.random.Generator:
        """The next table's stream, for a table of ``n`` draws."""
        rng = _table_rng(self.seed, self.taken)
        self.taken += 1
        self.draws += int(n)
        return rng


def _split_budget(n: int, k: int) -> list[int]:
    base, rest = divmod(int(n), k)
    return [base + (1 if i < rest else 0) for i in range(k)]


# values JSON takes as they are, matched by exact type: np.float64 subclasses float
_JSON_LEAVES = frozenset((float, int, str, bool, type(None)))


def _plain(obj):
    """Recursively convert numpy scalars and arrays for JSON emission."""
    if type(obj) in _JSON_LEAVES:
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# Pair coincidence machinery (pair_tomography, raman_delay_sweep,
# lifetime_sweep). One write-read pair per trial; the full joint click
# pattern over the four detectors is enumerated exactly with the detection
# click model, including dark counts, double excitations and retrieval
# failures, then sampled with one multinomial per table and analyzed as a stack.


def _pair_trial_distribution(
    node_cfg: nd.NodeConfig,
    detector: det.DetectorConfig,
    write_basis: np.ndarray,
    read_basis: np.ndarray,
    dt_us,
) -> np.ndarray:
    """Exact 16-cell click distribution of one write-read trial.

    Cell index packs the four click bits ``(w0, w1, r0, r1)`` big-endian.
    Write branches: vacuum (dark-only), single excitation (pair state,
    write-conditioned memory aged by ``dt_us``), double excitation reduced
    to one unpolarized write photon plus a contaminated memory retrieved
    with ``1 - (1 - eta)^2`` and a uniform outcome.  A delay array gives
    one row per delay, read in ``read_basis`` or in a ``(D, 2, 2)`` stack.
    """
    dark = detector.dark_count_prob
    terms = nd.node_terms(node_cfg, write_basis, dt_us)
    p_vac, p_sng, p_dbl = terms.write_probabilities

    def clicks(hits):
        return det.analyzer_clicks(hits, dark)

    no_photon = clicks(det.NO_HITS)
    write_fires = [clicks(det.photon_hits(1.0, np.eye(2)[ch])) for ch in (0, 1)]
    cases = [(p_vac, no_photon, no_photon)]  # (weight, write joint, read joint)

    clean, spoiled = nd.readout(terms, read_basis)
    for ch in (0, 1):
        cases.append((p_sng * terms.born[..., ch], write_fires[ch], clicks(clean[..., ch, :, :])))
    read_dbl = clicks(spoiled)  # a zero weight adds exact zeros
    for ch in (0, 1):
        cases.append((p_dbl * 0.5, write_fires[ch], read_dbl))

    rows = np.shape(dt_us)
    dist = np.zeros(rows + (2, 2, 2, 2))
    for weight, jw, jr in cases:
        weight = np.reshape(weight, np.shape(weight) + (1, 1, 1, 1))
        dist += weight * np.einsum("ab,...cd->...abcd", jw, jr)
    dist = dist.reshape(rows + (16,))
    total = dist.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= 1e-9))
    if bad.size:
        raise AssertionError(f"pair trial distribution row {bad[0]} sums to {total.flat[bad[0]]}")
    return dist / total[..., None]


def _sample_pairs(dists, n: int, streams: _TableStreams) -> det.PairStack:
    """Analyze ``n`` trials of each distribution row, each drawn with one
    multinomial from the next stream."""
    return det.pair_stack([streams.take(n).multinomial(n, dist) for dist in dists])


# ---------------------------------------------------------------------------
# Rate arithmetic


def rate_arithmetic(cfg: cf.ExperimentConfig) -> dict:
    """Closed-form efficiency budget for the six-fold coincidence rate.

    ``joint_write_read`` is the bare product of the per-node overall
    efficiencies ``p_w * eta_r0``. ``sixfold_probability`` folds in the
    polarization routing acceptance (the chance that three mapped write
    photons leave one per station port: 1/4 for balanced pairs), which is
    the per-trial probability of a six-fold coincidence with ideal
    detectors; the published counting rate corresponds to this value.
    """
    return _rate_budget(cfg, ev.herald_model(cfg).acceptance)


def _rate_budget(cfg: cf.ExperimentConfig, acceptance: float) -> dict:
    """``rate_arithmetic`` at a given routing acceptance."""
    p_nodes = [node.p_w * node.eta_r0 for node in cfg.nodes]
    joint = float(np.prod(p_nodes))
    sixfold = joint * acceptance
    tps = cfg.timing.trials_per_second
    return {
        "p_node": [float(p) for p in p_nodes],
        "p_node_mean": float(np.mean(p_nodes)),
        "joint_write_read": joint,
        "pattern_acceptance": acceptance,
        "sixfold_probability": sixfold,
        "trials_per_second": float(tps),
        "rate_per_hour": sixfold * tps * 3600.0,
    }


# ---------------------------------------------------------------------------
# Scenario runners. Each takes the config and the run's table streams and
# returns (body, artifacts, stage_s, meta): artifacts maps a relative output
# path to a payload emit_report knows how to write, stage_s the runner's
# stage wall times and meta its other report meta entries: its own counts
# beyond the streams (counters) and a fitted scenario's diagnostics (fit).
# run_scenario has checked the scenario_params keys before a runner starts.


def _sample_eigen_super(
    cfg: cf.ExperimentConfig, node_cfg: nd.NodeConfig, delays: np.ndarray, streams: _TableStreams
) -> det.PairStack:
    """The two-basis pair tables at each delay: eigen (rows ``0::2``), write
    photon and spin read in R/L, then super (rows ``1::2``), write photon in
    H/V and the spin on the equator at that delay's Zeeman phase; the two
    tables of a delay take consecutive streams."""
    dists_e = _pair_trial_distribution(node_cfg, cfg.detector, q.BASIS_RL, _SPIN_RL, delays)
    super_bases = _spin_super_basis(nd.zeeman_phase(node_cfg, delays))
    dists_s = _pair_trial_distribution(node_cfg, cfg.detector, q.BASIS_Z, super_bases, delays)
    dists = np.stack([dists_e, dists_s], axis=1).reshape(-1, 16)
    return _sample_pairs(dists, cfg.samples, streams)


def _run_pair_tomography(cfg: cf.ExperimentConfig, streams: _TableStreams):
    node_cfg = cfg.node(cfg.scenario_params.get("node", "I"))
    started = time.perf_counter()
    pairs = _sample_eigen_super(cfg, node_cfg, np.array([cfg.read_delay_us], dtype=float), streams)
    stage_s = {"tables": time.perf_counter() - started}

    bases = ("eigen", "super")
    body_tables, visibilities = {}, {}
    for i, (name, fields) in enumerate(zip(bases, pairs.fields.tolist())):
        body_tables[name] = dict(zip(det.CSV_HEADER.split(","), fields))
        vis = visibilities[name] = {"accidentals_clamped": bool(pairs.clamped[i])}
        for k, kind in enumerate(("raw", "corrected")):
            seen = pairs.coincidences[k, i] > 0.0  # no coincidences, no visibility
            vis[kind] = float(pairs.visibility[k, i]) if seen else None
            vis[f"{kind}_sigma"] = float(pairs.sigma[k, i]) if seen else None
        vis["no_coincidences"] = vis["raw"] is None

    clip = lambda v: min(max(v, -1.0), 1.0)
    fidelities = {}
    for kind in ("raw", "corrected"):
        v_e, v_s = visibilities["eigen"][kind], visibilities["super"][kind]
        # a basis without coincidences leaves the fidelity undefined
        fidelities[kind] = (
            None
            if v_e is None or v_s is None
            else w.bell_fidelity_from_visibilities(clip(v_e), clip(v_s))
        )
    body = {
        "node": node_cfg.node_id,
        "trials_per_basis": cfg.samples,
        "tables": body_tables,
        "visibilities": visibilities,
        "bell_fidelity": fidelities,
    }
    artifacts = {
        f"counts/pair_{name}.csv": ("coincidence", pairs.fields[i : i + 1])
        for i, name in enumerate(bases)
    }
    return body, artifacts, stage_s, {}


def _sweep_delays(cfg: cf.ExperimentConfig, default, minimum: int) -> np.ndarray:
    """A sweep's storage times: scenario_params key 'delays_us', else
    ``default()``, built only then (finite by the zeeman_period_us rule);
    fewer than ``minimum`` points are refused."""
    params = cfg.scenario_params
    delays = np.asarray(params["delays_us"] if "delays_us" in params else default(), dtype=float)
    if delays.size < minimum:
        raise ValueError(
            f"{cfg.scenario} needs at least {minimum} points in scenario_params key 'delays_us'"
        )
    return delays


def _run_raman_delay_sweep(cfg: cf.ExperimentConfig, streams: _TableStreams):
    node_cfg = cfg.node(cfg.scenario_params.get("node", "I"))
    period = node_cfg.zeeman_period_us
    delays = _sweep_delays(cfg, lambda: np.linspace(0.0, 3.0 * period, 33), 5)

    started = time.perf_counter()
    dists = _pair_trial_distribution(
        node_cfg, cfg.detector, q.BASIS_Z, _spin_super_basis(node_cfg.phi0), delays
    )
    pairs = _sample_pairs(dists, cfg.samples, streams)
    n_RL, n_LR, n_LL, n_RR, *_, n = pairs.fields.T
    parallel, cross = n_RL + n_LR, n_LL + n_RR
    points = np.stack([delays, parallel / n, cross / n, parallel, cross, n], axis=1)
    header = ["delay_us", "ncop_parallel", "ncop_cross", "n_parallel", "n_cross", "n_trials"]
    rows = [dict(zip(header, point)) for point in points.tolist()]

    built = time.perf_counter()
    ncop = points[:, 1]
    # the fit evaluates the model at the delays only
    x = np.stack([delays, nd.memory_coherence(node_cfg, delays)])
    p0 = [0.5 * (ncop.max() - ncop.min()), period, 0.0, float(ncop.mean())]
    estimate = dict.fromkeys(("period_us", "period_sigma_us", "amplitude", "phase_rad", "floor"))
    try:
        result = curve_fit(ft.raman_model, ft.raman_jacobian, x, ncop, p0)
    except RuntimeError:
        result = None
    # too few counts, or no spin coherence, leave the oscillation
    # unresolved: report nulls, not a period fitted to noise
    amplitude_z, resolved = None, False
    if result is not None:
        sigmas = np.sqrt(np.diag(result.pcov)).tolist()
        amplitude_z, resolved = ft.gate(abs(float(result.popt[0])), sigmas[0], ft.AMPLITUDE_Z)
    if resolved:
        amplitude, period_fit, phase, floor = result.popt.tolist()
        estimate.update(period_us=abs(period_fit), period_sigma_us=sigmas[1], amplitude=amplitude)
        estimate.update(phase_rad=phase, floor=floor)
    stage_s = {"tables": built - started, "fit": time.perf_counter() - built}

    body = {
        "node": node_cfg.node_id,
        "samples_per_point": cfg.samples,
        "points": rows,
        "fit": {**estimate, "resolved": resolved, "configured_period_us": period},
    }
    artifacts = {
        "sweeps/raman_delay.csv": ("rows", header, points),
        "counts/raman_delay_tables.csv": ("coincidence", pairs.fields),
    }
    return body, artifacts, stage_s, {"fit": ft.diagnostics(result, amplitude_z=amplitude_z)}


def _run_lifetime_sweep(cfg: cf.ExperimentConfig, streams: _TableStreams):
    node_cfg = cfg.node(cfg.scenario_params.get("node", "I"))
    delays = _sweep_delays(cfg, lambda: node_cfg.zeeman_period_us * np.arange(23), 4)

    started = time.perf_counter()
    pairs = _sample_eigen_super(cfg, node_cfg, delays, streams)
    eigen, super_ = slice(0, None, 2), slice(1, None, 2)
    writes = pairs.fields[eigen, 4] + pairs.fields[eigen, 5]  # n_woR + n_woL
    header = [
        "delay_us", "eta_raw", "eta_corrected", "visibility_raw", "visibility_corrected",
        "n_write_heralds", "n_coincidences", "n_super_coincidences",
    ]
    # efficiencies from the eigen tables, visibilities from the super tables
    columns = [*pairs.efficiency[:, eigen], *pairs.visibility[:, super_], writes]
    corrected_sums = [pairs.coincidences[1, eigen], pairs.coincidences[1, super_]]
    points = np.stack([delays, *columns, *corrected_sums], axis=1)
    rows = [dict(zip(header, point)) for point in points.tolist()]

    built = time.perf_counter()
    problem = ft.decay_problem(delays, points[:, 2], writes)
    try:
        result = None if problem is None else curve_fit(ft.decay_model, ft.decay_jacobian, *problem)
    except RuntimeError:
        result = None
    # an unresolved decay (e.g. an ideal memory): no lifetime, eta0 the mean
    eta0_fit, tau_fit, tau_sigma = float(np.mean(points[:, 2])), None, None
    decay_z, resolved = None, False
    if result is not None:
        k, k_sigma = float(result.popt[1]), math.sqrt(result.pcov[1, 1])
        decay_z, resolved = ft.gate(k, k_sigma, ft.DECAY_Z)
    if resolved:
        eta0_fit, tau_fit, tau_sigma = float(result.popt[0]), 1.0 / k, k_sigma / (k * k)

    # single-parameter amplitude fit of the visibility envelope; the decay
    # constant is the calibrated tau_vis of the node
    tau_vis = node_cfg.tau_vis_us
    v0, v0_sigma = ft.visibility_amplitude(
        points[:, 4], nd.memory_coherence(node_cfg, delays), points[:, 7]
    )
    crossing = crossing_sigma = None
    if math.isfinite(tau_vis) and v0 * math.sqrt(2.0) > 1.0:
        crossing = tau_vis * math.log(v0 * math.sqrt(2.0))
        crossing_sigma = tau_vis * v0_sigma / v0
    stage_s = {"tables": built - started, "fit": time.perf_counter() - built}

    body = {
        "node": node_cfg.node_id,
        "samples_per_point": cfg.samples,
        "points": rows,
        "fit": {
            "lifetime_us": tau_fit,
            "lifetime_sigma_us": tau_sigma,
            "eta0": eta0_fit,
            "visibility0": v0,
            "visibility0_sigma": v0_sigma,
            "tau_vis_us": tau_vis if math.isfinite(tau_vis) else None,
            "visibility_crossing_us": crossing,
            "visibility_crossing_sigma_us": crossing_sigma,
        },
    }
    artifacts = {
        # every point column but n_super_coincidences
        "sweeps/lifetime.csv": ("rows", header[:7], points[:, :7]),
        "counts/lifetime_eigen.csv": ("coincidence", pairs.fields[eigen]),
        "counts/lifetime_super.csv": ("coincidence", pairs.fields[super_]),
    }
    return body, artifacts, stage_s, {"fit": ft.diagnostics(result, decay_z=decay_z)}


def _run_two_node_swap(cfg: cf.ExperimentConfig, streams: _TableStreams):
    params = cfg.scenario_params
    node_cfg = cfg.node("I")
    dw0 = 2.0 * math.pi / node_cfg.zeeman_period_us
    dws = params.get("delta_omega_rad_per_us", dw0 * np.array([0.25, 0.5, 1.0, 2.0, 4.0]))
    dws = np.asarray(dws, dtype=float).tolist()
    widths = np.asarray(params.get("width_us", [0.02, 0.05, 0.1, 0.2, 0.4]), dtype=float).tolist()
    point_width = float(params.get("point_width_us", 0.05))
    header = ["delta_omega_rad_per_us", "width_us", "fidelity_flip", "fidelity_noflip"]

    def rows(width, detunings):
        f = op.Envelope.gaussian(0.0, width)  # both nodes emit the same Gaussian mode
        return [
            [dw, width, *(op.averaged_swap_fidelity(flip, f, f, dw) for flip in (True, False))]
            for dw in detunings
        ]

    started = time.perf_counter()
    [point_row] = rows(point_width, [dw0])
    grid_rows = [row for width in widths for row in rows(width, dws)]
    # swap fidelities are closed-form integrals: no random stream is drawn
    stage_s = {"integrals": time.perf_counter() - started}
    *_, flips, noflips = np.array(grid_rows).T
    body = {
        "point": dict(zip(header, point_row)),
        "grid": grid_rows,
        "flip_min": float(flips.min()),
        "flip_max": float(flips.max()),
        "noflip_min": float(noflips.min()),
        "noflip_max": float(noflips.max()),
        "ordering_holds": bool(np.all(noflips < flips)),
    }
    artifacts = {"sweeps/two_node_swap.csv": ("rows", header, grid_rows)}
    integrals = 2 * (1 + len(grid_rows))  # flip and no-flip per row
    return body, artifacts, stage_s, {"counters": {"integrals": integrals}}


def _run_ghz(
    cfg: cf.ExperimentConfig,
    streams: _TableStreams,
    spec: w.GhzSpec,
    make_settings,
):
    """Heralded GHZ witness: sample each setting's event table, then estimate.

    ``make_settings`` builds the witness settings.  A witness on the
    memories alone (ghz3) sums each setting's pattern counts over the
    station port bits and reports the herald patterns those bits carry.
    """
    weights = w.weight_array(spec, cfg.calibration_weights)
    settings = make_settings()
    started = time.perf_counter()
    model = ev.herald_model(cfg)
    tables = ev.build_event_tables(cfg, settings, model)
    built = time.perf_counter()
    budgets = _split_budget(cfg.samples, len(tables))
    counts = [table.sample(n, streams.take(n)) for table, n in zip(tables, budgets)]
    sampled_at = time.perf_counter()

    nodes = len(op.NODE_IDS)  # station ports, and memories
    memories_only = spec.n_qubits == nodes

    def keep(arr):  # (ports, memories) bits -> the bits the witness reads
        return arr.reshape(2**nodes, -1).sum(axis=0) if memories_only else arr

    sampled = {s.setting_id: keep(arr) for s, arr in zip(settings, counts)}
    # a budget below the setting count leaves tables empty, and an empty
    # table leaves its ratio estimate undefined: report null, not an error
    empty = [sid for sid, arr in sampled.items() if not arr.any()]
    fid = sigma = populations = None
    if not empty:
        fid, sigma = w.fidelity_from_counts(spec, sampled, weights)
    if w.POPULATION_SETTING not in empty:
        p0, p1 = w.populations_from_counts(
            spec, sampled[w.POPULATION_SETTING], weights
        )
        populations = {"pattern0": p0, "pattern1": p1}
    fid_exact = w.fidelity_from_distributions(
        spec, {t.setting_id: keep(t.outcome_distribution()) for t in tables}
    )
    setting_counts = {
        sid: w.pattern_table(arr, spec.n_qubits) for sid, arr in sampled.items()
    }

    body = {
        "heralded_samples": cfg.samples,
        "setting_counts": setting_counts,
        "empty_settings": empty,
        "fidelity": {"estimate": fid, "sigma": sigma, "exact": fid_exact},
        "populations": populations,
        "event_tables": {
            t.setting_id: {
                "p_sixfold": t.p_sixfold,
                "clean_probability": t.clean_probability,
                "clean_fraction": t.clean_probability / t.p_sixfold,
            }
            for t in tables
        },
        "conditional_success_estimate": ev.conditional_success_estimate(model),
        "rate": _rate_budget(cfg, model.acceptance),
    }
    stage_s = {
        "table_build": built - started,
        "sampling": sampled_at - built,
        "estimate": time.perf_counter() - sampled_at,
    }
    artifacts = {f"counts/{cfg.scenario}_settings.csv": ("settings", setting_counts)}
    if memories_only:
        herald_counts = np.sum([arr.reshape(2**nodes, -1).sum(axis=1) for arr in counts], axis=0)
        heralds = w.pattern_table(herald_counts, nodes, zeros=True)
        body["herald_pattern_counts"] = heralds
        artifacts[f"counts/{cfg.scenario}_heralds.csv"] = (
            "settings",
            {"herald_patterns": heralds},
        )
    event_classes = sum(t.probabilities.size for t in tables)
    return body, artifacts, stage_s, {"counters": {"event_classes": event_classes}}


_RUNNERS = {
    "pair_tomography": _run_pair_tomography,
    "raman_delay_sweep": _run_raman_delay_sweep,
    "lifetime_sweep": _run_lifetime_sweep,
    "two_node_swap": _run_two_node_swap,
    "ghz6": functools.partial(
        _run_ghz, spec=ev.GHZ6_SPEC, make_settings=ev.ghz6_settings
    ),
    "ghz3": functools.partial(
        _run_ghz, spec=ev.GHZ3_SPEC, make_settings=ev.ghz3_settings
    ),
}


@dataclass
class RunReport:
    """Scenario result: a deterministic body plus execution metadata.

    ``body`` is a pure function of (config, seed); ``body_json()`` is the
    byte-exact serialization the determinism contract applies to.  Wall
    time, worker count and software version live in ``meta``, as do every
    scenario's stage wall times (``stage_s``) and counters (``counters``):
    ``tables`` plus ``fit`` for the pair scenarios, ``integrals`` for
    two_node_swap, and ``table_build``, ``sampling`` and ``estimate`` for
    ghz6/ghz3; ``counters.rng_streams`` and ``counters.draws`` are the
    run's ``_TableStreams`` counts, ghz6/ghz3 add
    ``counters.event_classes`` and two_node_swap ``counters.integrals``,
    the swap integrals it evaluated.  The two fitted scenarios add
    ``fit`` (``fit.diagnostics``), with ``amplitude_z`` for
    raman_delay_sweep and ``decay_z`` for lifetime_sweep.
    ``artifacts`` maps relative output paths to payloads for ``emit_report``.
    """

    scenario: str
    seed: int
    body: dict
    meta: dict
    artifacts: dict = field(default_factory=dict, repr=False)

    def body_json(self) -> str:
        return report_json(self.body)

    def payload(self) -> dict:
        """The report as report.json and stdout carry it."""
        return {
            "schema_version": cf.SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "body": self.body,
            "meta": self.meta,
        }


def run_scenario(cfg: cf.ExperimentConfig) -> RunReport:
    """Execute the configured scenario and assemble its report.

    Heralded scenarios (ghz6, ghz3) interpret ``cfg.samples`` as the total
    number of heralded events, split round-robin over witness settings;
    sweep scenarios use it per sweep point and pair_tomography per basis.
    """
    allowed = cf.SCENARIO_PARAMS[cfg.scenario]
    unknown = set(cfg.scenario_params) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown scenario_params {sorted(unknown)} for {cfg.scenario}; "
            f"allowed: {sorted(allowed)}"
        )
    started = time.perf_counter()
    streams = _TableStreams(cfg.seed)
    body, artifacts, stage_s, own_meta = _RUNNERS[cfg.scenario](cfg, streams)

    config_echo = cfg.to_dict()
    # execution details must not influence the deterministic body
    for volatile in ("workers", "out_dir"):
        config_echo.pop(volatile, None)
    full_body = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "config": config_echo,
        **body,
    }
    meta = {
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "workers": cfg.workers,
        "stage_s": stage_s,
        **own_meta,
        "counters": {
            **own_meta.get("counters", {}),
            "rng_streams": streams.taken,
            "draws": streams.draws,
        },
    }
    return RunReport(
        scenario=cfg.scenario,
        seed=cfg.seed,
        body=_plain(full_body),
        meta=meta,
        artifacts=artifacts,
    )


def report_json(obj) -> str:
    """A report or report body as JSON text: sorted keys, two-space indent,
    and no NaN or infinity."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write report.json plus the scenario's counts/ and sweeps/ CSV files."""
    from pathlib import Path

    # serialized whole before any file opens: a value JSON cannot hold
    # raises here and leaves no truncated report.json behind
    text = report_json(report.payload())
    out = Path(out_dir)
    paths = [out / rel for rel in report.artifacts]
    for folder in dict.fromkeys([out, *(path.parent for path in paths)]):
        folder.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")

    writers = {
        "coincidence": det.write_coincidence_csv,
        "settings": w.write_setting_counts_csv,
        "rows": det.write_csv,
    }
    for path, (kind, *data) in zip(paths, report.artifacts.values()):
        writers[kind](path, *data)
    return [str(report_path), *map(str, paths)]

