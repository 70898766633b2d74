"""Scenario orchestration: trial schedules, samplers, reports.

Everything in this module is glue.  The physics lives in the node, optics,
events and witness modules; the harness turns a validated ExperimentConfig
into count tables and derived estimates and serializes them.

Two contracts shape the code:

* Determinism.  Each sampled table (a pair table or a heralded event
  table) draws all its counts with one multinomial from its own
  counter-based Philox stream, keyed by ``(master seed, table index)``;
  table indices are allocated in a fixed code order.  A sum of independent
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
import itertools
import json
import math
import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import config as cf
from . import detection as det
from . import events as ev
from . import node as nd
from . import optics as op
from . import quantum as q
from . import witness as w

# per-table random streams, see _table_streams
_Streams = Iterator[np.random.Generator]

# Spin analyzer bases, columns ordered so that channel 0 corresponds to the
# read photon's R channel (up -> R, down -> L under retrieval). With this
# ordering the correlated coincidences land in the cross-labeled cells,
# matching the sign convention of detection.visibility_raw.
_SPIN_RL = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# standard errors by which the fitted decay rate must exceed zero before
# lifetime_sweep reports a memory lifetime
_DECAY_Z = 3.0
# standard errors by which the fitted oscillation amplitude must exceed zero
# before raman_delay_sweep reports its period
_AMPLITUDE_Z = 5.0


def _spin_super_basis(theta: float) -> np.ndarray:
    """Equatorial spin analyzer aligned for positive visibility at ``theta``."""
    return q.equatorial_basis(theta + math.pi)


def _table_rng(seed: int, table_index: int) -> np.random.Generator:
    # the 128-bit key (seed, table_index), low word first
    return np.random.Generator(np.random.Philox(key=seed + (table_index << 64)))


def _table_streams(seed: int) -> _Streams:
    """One stream per sampled table, indexed in the order tables take them."""
    return (_table_rng(seed, index) for index in itertools.count())


def curve_fit(*args, **kwargs):
    """``scipy.optimize.curve_fit`` with ``OptimizeWarning`` ignored.

    scipy is imported on the first call, so only the scenarios that fit a
    curve pay for loading it.  A fit without a covariance estimate comes
    back with an infinite one, which the callers treat as unresolved.
    """
    from scipy.optimize import OptimizeWarning, curve_fit as scipy_curve_fit

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        return scipy_curve_fit(*args, **kwargs)


def _record(telemetry: dict | None, stage_s: dict, **counters) -> None:
    """Put a run's stage wall times and counters into ``telemetry``, if given."""
    if telemetry is not None:
        telemetry["stage_s"] = stage_s
        telemetry["counters"] = counters


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

    if p_dbl > 0.0:
        read_dbl = clicks(spoiled)
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


def _sample_pairs(dists, n: int, streams: _Streams) -> det.PairStack:
    """Analyze ``n`` trials of each distribution row, each drawn with one
    multinomial from the next stream."""
    return det.pair_stack([next(streams).multinomial(n, dist) for dist in dists])


# ---------------------------------------------------------------------------
# Rate arithmetic


def rate_arithmetic(
    cfg: cf.ExperimentConfig, _terms: list[nd.NodeTerms] | None = None
) -> dict:
    """Closed-form efficiency budget for the six-fold coincidence rate.

    ``joint_write_read`` is the bare product of the per-node overall
    efficiencies ``p_w * eta_r0``. ``sixfold_probability`` folds in the
    polarization routing acceptance (the chance that three mapped write
    photons leave one per station port: 1/4 for balanced pairs), which is
    the per-trial probability of a six-fold coincidence with ideal
    detectors; the published counting rate corresponds to this value.
    ``_terms`` reuses the station node terms a table build already derived.
    """
    terms = ev._station_terms(cfg) if _terms is None else _terms
    p_nodes = [node.p_w * node.eta_r0 for node in cfg.nodes]
    joint = float(np.prod(p_nodes))
    acceptance = float(op.routing_acceptance([t.pair for t in terms]))
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
# Scenario runners. Each returns (body_dict, artifacts) where artifacts maps
# a relative output path to a payload emit_report knows how to write.


def _scenario_params(cfg: cf.ExperimentConfig) -> dict:
    """The scenario's parameters, after rejecting keys it does not take;
    the config has already checked each value."""
    params = dict(cfg.scenario_params)
    allowed = cf.SCENARIO_PARAMS[cfg.scenario]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown scenario_params {sorted(unknown)} for {cfg.scenario}; "
            f"allowed: {sorted(allowed)}"
        )
    return params


def _run_pair_tomography(
    cfg: cf.ExperimentConfig, streams: _Streams, telemetry: dict | None = None
):
    params = _scenario_params(cfg)
    node_cfg = cfg.node(params.get("node", "I"))
    dt = cfg.read_delay_us
    theta = nd.zeeman_phase(node_cfg, dt)

    bases = {
        "eigen": (q.BASIS_RL, _SPIN_RL),
        "super": (q.BASIS_Z, _spin_super_basis(theta)),
    }
    started = time.perf_counter()
    dists = [
        _pair_trial_distribution(node_cfg, cfg.detector, wb, rb, dt)
        for wb, rb in bases.values()
    ]
    pairs = _sample_pairs(dists, cfg.samples, streams)
    _record(
        telemetry,
        {"tables": time.perf_counter() - started},
        rng_streams=len(dists),
        draws=len(dists) * cfg.samples,
    )

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
    return body, artifacts


def _run_raman_delay_sweep(
    cfg: cf.ExperimentConfig, streams: _Streams, telemetry: dict | None = None
):
    params = _scenario_params(cfg)
    node_cfg = cfg.node(params.get("node", "I"))
    period = node_cfg.zeeman_period_us
    delays = np.asarray(
        params.get("delays_us", np.linspace(0.0, 3.0 * period, 33)), dtype=float
    )
    if delays.size < 5:
        raise ValueError(
            "raman_delay_sweep needs at least 5 points in scenario_params key 'delays_us'"
        )

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
    tau_vis = node_cfg.tau_vis_us

    def model(t, amp, period_fit, phase, floor):
        envelope = np.exp(-t / tau_vis) if math.isfinite(tau_vis) else 1.0
        return amp * envelope * np.cos(2.0 * np.pi * t / period_fit + phase) + floor

    p0 = [0.5 * (ncop.max() - ncop.min()), period, 0.0, float(ncop.mean())]
    fit = dict.fromkeys(
        ("period_us", "period_sigma_us", "amplitude", "phase_rad", "floor")
    )
    try:
        popt, pcov = curve_fit(model, delays, ncop, p0=p0, maxfev=20000)
    except RuntimeError:
        popt, pcov = None, None
    # too few counts, or no spin coherence, leave the oscillation
    # unresolved: report nulls, not a period fitted to noise
    resolved = (
        pcov is not None
        and bool(np.all(np.isfinite(pcov)))
        and abs(float(popt[0])) >= _AMPLITUDE_Z * math.sqrt(max(pcov[0, 0], 0.0))
    )
    if resolved:
        fit.update(
            period_us=float(abs(popt[1])),
            period_sigma_us=float(math.sqrt(max(pcov[1, 1], 0.0))),
            amplitude=float(popt[0]),
            phase_rad=float(popt[2]),
            floor=float(popt[3]),
        )
    _record(
        telemetry,
        {"tables": built - started, "fit": time.perf_counter() - built},
        rng_streams=len(dists),
        draws=len(dists) * cfg.samples,
    )

    body = {
        "node": node_cfg.node_id,
        "samples_per_point": cfg.samples,
        "points": rows,
        "fit": {**fit, "resolved": resolved, "configured_period_us": period},
    }
    artifacts = {
        "sweeps/raman_delay.csv": ("rows", header, points),
        "counts/raman_delay_tables.csv": ("coincidence", pairs.fields),
    }
    return body, artifacts


def _run_lifetime_sweep(
    cfg: cf.ExperimentConfig, streams: _Streams, telemetry: dict | None = None
):
    params = _scenario_params(cfg)
    node_cfg = cfg.node(params.get("node", "I"))
    period = node_cfg.zeeman_period_us
    delays = np.asarray(
        params.get("delays_us", period * np.arange(23)), dtype=float
    )
    if delays.size < 4:
        raise ValueError(
            "lifetime_sweep needs at least 4 points in scenario_params key 'delays_us'"
        )

    started = time.perf_counter()
    dists_e = _pair_trial_distribution(node_cfg, cfg.detector, q.BASIS_RL, _SPIN_RL, delays)
    # the superposition analyzer follows each delay's Zeeman phase
    super_bases = _spin_super_basis(nd.zeeman_phase(node_cfg, delays))
    dists_s = _pair_trial_distribution(node_cfg, cfg.detector, q.BASIS_Z, super_bases, delays)
    # the eigen and the super table of each delay take consecutive streams
    dists = np.stack([dists_e, dists_s], axis=1).reshape(-1, 16)
    pairs = _sample_pairs(dists, cfg.samples, streams)
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
    eta0_fit, tau_fit, tau_sigma = _fit_lifetime(delays, points[:, 2], writes)

    # single-parameter amplitude fit of the visibility envelope; the decay
    # constant is the calibrated tau_vis of the node
    tau_vis = node_cfg.tau_vis_us
    decay = (
        np.exp(-delays / tau_vis) if math.isfinite(tau_vis) else np.ones_like(delays)
    )
    v_arr = points[:, 4]
    n_coinc = np.maximum(points[:, 7], 1.0)
    # each point's binomial variance (1 - v^2) / n at the model value
    # v = v0 * decay, not at its own noisy visibility, which would weigh
    # upward fluctuations more; start n-weighted, refit until v0 settles
    weights, v0 = n_coinc, None
    for _ in range(50):
        denom = float(np.sum(weights * decay * decay))
        v0, previous = float(np.sum(weights * decay * v_arr) / denom), v0
        if previous is not None and abs(v0 - previous) <= 1e-12 * abs(v0):
            break
        weights = n_coinc / np.clip(1.0 - (v0 * decay) ** 2, 1e-6, 1.0)
    v0_sigma = float(1.0 / math.sqrt(denom))
    # accidental subtraction adds noise beyond the binomial term the weights
    # assume, so calibrate the quoted sigma against the residual scatter
    if len(v_arr) > 1:
        chi2 = float(np.sum(weights * (v_arr - v0 * decay) ** 2))
        v0_sigma *= math.sqrt(max(chi2 / (len(v_arr) - 1), 1.0))
    if math.isfinite(tau_vis) and v0 * math.sqrt(2.0) > 1.0:
        crossing = tau_vis * math.log(v0 * math.sqrt(2.0))
        crossing_sigma = tau_vis * v0_sigma / v0
    else:
        crossing = None
        crossing_sigma = None
    _record(
        telemetry,
        {"tables": built - started, "fit": time.perf_counter() - built},
        rng_streams=len(dists),
        draws=len(dists) * cfg.samples,
    )

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
    return body, artifacts


def _fit_lifetime(t_arr, eta_arr, n_writes):
    """Fit ``eta0 * exp(-k t)`` and return ``(eta0, tau, tau_sigma)``.

    Each point carries its binomial error ``sqrt(eta (1 - eta) / n)`` over
    its ``n`` write heralds, with ``eta`` kept ``1/(2n)`` from 0 and 1 so
    that a point of exact efficiency still has a nonzero error.  The
    lifetime ``tau = 1/k`` is reported only when the data resolves a decay,
    that is when ``k`` lies at least ``_DECAY_Z`` standard errors above
    zero; otherwise (e.g. an ideal memory) ``tau`` and its sigma are None
    and ``eta0`` is the mean efficiency.
    """
    ok = n_writes > 0
    t, eta, n = t_arr[ok], eta_arr[ok], n_writes[ok]
    unresolved = (float(np.mean(eta_arr)), None, None)
    if t.size < 3 or np.ptp(t) <= 0.0:
        return unresolved
    p = np.clip(eta, 0.5 / n, 1.0 - 0.5 / n)
    sigma = np.sqrt(p * (1.0 - p) / n)
    try:
        popt, pcov = curve_fit(
            lambda t, eta0, k: eta0 * np.exp(-k * t),
            t,
            eta,
            p0=[max(eta[0], 1e-3), 1.0 / np.ptp(t)],
            sigma=sigma,
            absolute_sigma=True,
            maxfev=20000,
        )
    except RuntimeError:
        return unresolved
    k, k_sigma = float(popt[1]), float(math.sqrt(max(pcov[1, 1], 0.0)))
    if not (math.isfinite(k_sigma) and k_sigma > 0.0 and k >= _DECAY_Z * k_sigma):
        return unresolved
    return float(popt[0]), 1.0 / k, k_sigma / (k * k)


def _run_two_node_swap(
    cfg: cf.ExperimentConfig, streams: _Streams, telemetry: dict | None = None
):
    params = _scenario_params(cfg)
    node_cfg = cfg.node("I")
    dw0 = 2.0 * math.pi / node_cfg.zeeman_period_us
    dws = np.asarray(
        params.get(
            "delta_omega_rad_per_us", dw0 * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        ),
        dtype=float,
    )
    widths = np.asarray(
        params.get("width_us", [0.02, 0.05, 0.1, 0.2, 0.4]), dtype=float
    )
    point_width = float(params.get("point_width_us", 0.05))

    def envelopes(width: float):
        f = op.Envelope.gaussian(0.0, width)
        return f, f

    started = time.perf_counter()
    f, g = envelopes(point_width)
    point = {
        "delta_omega_rad_per_us": dw0,
        "width_us": point_width,
        "fidelity_flip": op.averaged_swap_fidelity(True, f, g, dw0),
        "fidelity_noflip": op.averaged_swap_fidelity(False, f, g, dw0),
    }

    grid_rows = []
    for width in widths:
        f, g = envelopes(float(width))
        for dw in dws:
            grid_rows.append(
                [
                    float(dw),
                    float(width),
                    op.averaged_swap_fidelity(True, f, g, float(dw)),
                    op.averaged_swap_fidelity(False, f, g, float(dw)),
                ]
            )

    # swap fidelities are closed-form integrals: no random stream is drawn
    _record(
        telemetry,
        {"integrals": time.perf_counter() - started},
        rng_streams=0,
        draws=0,
        integrals=2 * (1 + len(grid_rows)),  # flip and no-flip per point
    )
    flips = np.array([r[2] for r in grid_rows])
    noflips = np.array([r[3] for r in grid_rows])
    body = {
        "point": point,
        "grid": grid_rows,
        "flip_min": float(flips.min()),
        "flip_max": float(flips.max()),
        "noflip_min": float(noflips.min()),
        "noflip_max": float(noflips.max()),
        "ordering_holds": bool(np.all(noflips < flips)),
    }
    header = ["delta_omega_rad_per_us", "width_us", "fidelity_flip", "fidelity_noflip"]
    artifacts = {"sweeps/two_node_swap.csv": ("rows", header, grid_rows)}
    return body, artifacts


def _sample_event_tables(cfg, tables, streams: _Streams) -> list[np.ndarray]:
    budgets = _split_budget(cfg.samples, len(tables))
    return [table.sample(n, next(streams)) for table, n in zip(tables, budgets)]


def _memory_marginal(counts: np.ndarray) -> np.ndarray:
    """Sum 64 port+memory pattern counts over the three station port bits."""
    return counts.reshape(8, 8).sum(axis=0)


def _run_ghz(
    cfg: cf.ExperimentConfig,
    streams: _Streams,
    spec: w.GhzSpec,
    make_settings,
    reducer=None,
    telemetry: dict | None = None,
):
    """Heralded GHZ witness: sample each setting's event table, then estimate.

    ``make_settings`` builds the witness settings.  ``reducer`` maps each
    setting's 64 pattern counts onto the qubits of ``spec``; when it drops
    the station ports (ghz3), their herald patterns are reported as well.
    ``telemetry``, when given, receives the stage wall times and counters.
    """
    _scenario_params(cfg)
    weights = w.weight_array(spec, cfg.calibration_weights)
    settings = make_settings()
    started = time.perf_counter()
    branches = ev._write_branches(cfg)
    tables = ev.build_event_tables(cfg, settings, _branches=branches)
    built = time.perf_counter()
    counts = _sample_event_tables(cfg, tables, streams)
    sampled_at = time.perf_counter()

    keep = reducer if reducer is not None else (lambda arr: arr)
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
        "conditional_success_estimate": ev.conditional_success_estimate(
            cfg, _branches=branches
        ),
        "rate": rate_arithmetic(cfg, _terms=branches.terms),
    }
    _record(
        telemetry,
        {
            "table_build": built - started,
            "sampling": sampled_at - built,
            "estimate": time.perf_counter() - sampled_at,
        },
        event_classes=sum(t.probabilities.size for t in tables),
        rng_streams=len(counts),
        draws=int(sum(arr.sum() for arr in counts)),
    )
    artifacts = {f"counts/{cfg.scenario}_settings.csv": ("settings", setting_counts)}
    if reducer is not None:
        herald_counts = np.sum(
            [arr.reshape(8, 8).sum(axis=1) for arr in counts], axis=0
        )
        heralds = w.pattern_table(herald_counts, 3, zeros=True)
        body["herald_pattern_counts"] = heralds
        artifacts[f"counts/{cfg.scenario}_heralds.csv"] = (
            "settings",
            {"herald_patterns": heralds},
        )
    return body, artifacts


_RUNNERS = {
    "pair_tomography": _run_pair_tomography,
    "raman_delay_sweep": _run_raman_delay_sweep,
    "lifetime_sweep": _run_lifetime_sweep,
    "two_node_swap": _run_two_node_swap,
    "ghz6": functools.partial(
        _run_ghz, spec=ev.GHZ6_SPEC, make_settings=ev.ghz6_settings
    ),
    "ghz3": functools.partial(
        _run_ghz,
        spec=ev.GHZ3_SPEC,
        make_settings=ev.ghz3_settings,
        reducer=_memory_marginal,
    ),
}


@dataclass
class RunReport:
    """Scenario result: a deterministic body plus execution metadata.

    ``body`` is a pure function of (config, seed); ``body_json()`` is the
    byte-exact serialization the determinism contract applies to.  Wall
    time, worker count and software version live in ``meta``, as do every
    scenario's stage wall times (``stage_s``) and counters (``counters``):
    ``tables`` plus ``fit`` for the pair scenarios (the first fit of a
    process includes loading scipy), ``integrals`` for two_node_swap, and
    ``table_build``, ``sampling`` and ``estimate`` for ghz6/ghz3;
    ``counters.rng_streams`` counts the streams drawn, ``counters.draws``
    the trials or heralded events drawn from them, ghz6/ghz3 add
    ``counters.event_classes`` and two_node_swap ``counters.integrals``,
    the swap integrals it evaluated.
    ``artifacts`` maps relative output paths to payloads for ``emit_report``.
    """

    scenario: str
    seed: int
    body: dict
    meta: dict
    artifacts: dict = field(default_factory=dict, repr=False)

    def body_json(self) -> str:
        return json.dumps(self.body, sort_keys=True, indent=2, allow_nan=False)

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
    if cfg.scenario not in _RUNNERS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    started = time.perf_counter()
    telemetry: dict = {}  # the runner's stage times and counters
    body, artifacts = _RUNNERS[cfg.scenario](
        cfg, _table_streams(cfg.seed), telemetry=telemetry
    )

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
        **telemetry,
    }
    return RunReport(
        scenario=cfg.scenario,
        seed=cfg.seed,
        body=_plain(full_body),
        meta=meta,
        artifacts=artifacts,
    )


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write report.json plus the scenario's counts/ and sweeps/ CSV files."""
    from pathlib import Path

    # serialized whole before any file opens: a value JSON cannot hold
    # raises here and leaves no truncated report.json behind
    text = json.dumps(report.payload(), sort_keys=True, indent=2, allow_nan=False)
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

