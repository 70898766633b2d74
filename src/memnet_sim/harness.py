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
from scipy.optimize import OptimizeWarning, curve_fit

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


def _spin_super_basis(theta: float) -> np.ndarray:
    """Equatorial spin analyzer aligned for positive visibility at ``theta``."""
    return q.equatorial_basis(theta + math.pi)


def _table_rng(seed: int, table_index: int) -> np.random.Generator:
    key = np.array([seed, table_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _table_streams(seed: int) -> _Streams:
    """One stream per sampled table, indexed in the order tables take them."""
    return (_table_rng(seed, index) for index in itertools.count())


def _split_budget(n: int, k: int) -> list[int]:
    base, rest = divmod(int(n), k)
    return [base + (1 if i < rest else 0) for i in range(k)]


def _plain(obj):
    """Recursively convert numpy scalars and arrays for JSON emission."""
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
# failures, and then sampled with one multinomial per table.


def _pair_trial_distribution(
    node_cfg: nd.NodeConfig,
    detector: det.DetectorConfig,
    write_basis: np.ndarray,
    read_basis: np.ndarray,
    dt_us: float,
) -> np.ndarray:
    """Exact 16-cell click distribution of one write-read trial.

    Cell index packs the four click bits ``(w0, w1, r0, r1)`` big-endian.
    Write branches: vacuum (dark-only), single excitation (pair state,
    write-conditioned memory aged by ``dt_us``), double excitation reduced
    to one unpolarized write photon plus a contaminated memory retrieved
    with ``1 - (1 - eta)^2`` and a uniform outcome.
    """
    dark = detector.dark_count_prob
    terms = nd.node_terms(node_cfg, write_basis, dt_us)
    p_vac, p_sng, p_dbl = terms.write_probabilities

    def clicks(hits):
        return det.analyzer_clicks(hits, dark)

    no_photon = clicks(det.NO_HITS)
    write_fires = [clicks(det.photon_hits(1.0, np.eye(2)[ch])) for ch in (0, 1)]
    cases = [(p_vac, no_photon, no_photon)]  # (weight, write joint, read joint)

    for ch, (prob, spin) in enumerate(zip(terms.born, terms.spins)):
        r_probs = np.clip(ev._born2(read_basis, spin), 0.0, 1.0)
        read = clicks(det.photon_hits(terms.eta, r_probs))
        cases.append((p_sng * prob, write_fires[ch], read))

    if p_dbl > 0.0:
        read_dbl = clicks(det.photon_hits(terms.eta_dbl, (0.5, 0.5)))
        for ch in (0, 1):
            cases.append((p_dbl * 0.5, write_fires[ch], read_dbl))

    dist = np.zeros((2, 2, 2, 2))
    for weight, jw, jr in cases:
        dist += weight * np.einsum("ab,cd->abcd", jw, jr)
    dist = dist.reshape(16)
    total = dist.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise AssertionError(f"pair trial distribution sums to {total}")
    return dist / total


def _counts_to_table(counts16: np.ndarray) -> det.CoincidenceTable:
    c = counts16.reshape(2, 2, 2, 2)  # click bits (w0, w1, r0, r1)
    return det.CoincidenceTable(
        n_RL=float(c[1, 0, 0, 1]),
        n_LR=float(c[0, 1, 1, 0]),
        n_LL=float(c[0, 1, 0, 1]),
        n_RR=float(c[1, 0, 1, 0]),
        n_woR=float(c[1].sum()),
        n_woL=float(c[:, 1].sum()),
        n_roR=float(c[:, :, 1].sum()),
        n_roL=float(c[..., 1].sum()),
        N=float(c.sum()),
    )


def _sample_pair_table(
    dist16: np.ndarray, n: int, streams: _Streams
) -> det.CoincidenceTable:
    return _counts_to_table(next(streams).multinomial(n, dist16))


def _visibility(table: det.CoincidenceTable):
    """Visibility and its binomial sigma, or ``(None, None)`` without coincidences."""
    n_coinc = table.coincidence_sum()
    if n_coinc <= 0.0:
        return None, None
    v = det.visibility_raw(table)
    return v, math.sqrt(max(1.0 - v * v, 0.0) / n_coinc) or 1.0 / n_coinc


def _table_dict(t: det.CoincidenceTable) -> dict:
    return {name: getattr(t, name) for name in det.CSV_HEADER.split(",")}


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
    p_nodes = [node.p_w * node.eta_r0 for node in cfg.nodes]
    joint = float(np.prod(p_nodes))
    acceptance = float(ev._routing_acceptance(ev._station_terms(cfg)))
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


def _run_pair_tomography(cfg: cf.ExperimentConfig, streams: _Streams):
    params = _scenario_params(cfg)
    node_cfg = cfg.node(params.get("node", "I"))
    dt = cfg.read_delay_us
    theta = nd.zeeman_phase(node_cfg, dt)

    bases = {
        "eigen": (q.BASIS_RL, _SPIN_RL),
        "super": (q.BASIS_Z, _spin_super_basis(theta)),
    }
    body_tables = {}
    visibilities = {}
    csv_tables = {}
    for name, (wb, rb) in bases.items():
        dist = _pair_trial_distribution(node_cfg, cfg.detector, wb, rb, dt)
        table = _sample_pair_table(dist, cfg.samples, streams)
        corrected, clamped = det.subtract_accidentals(table)
        v_raw, raw_sigma = _visibility(table)
        v_corr, corr_sigma = _visibility(corrected)
        visibilities[name] = {
            "raw": v_raw,
            "raw_sigma": raw_sigma,
            "corrected": v_corr,
            "corrected_sigma": corr_sigma,
            "accidentals_clamped": clamped,
            "no_coincidences": v_raw is None,
        }
        body_tables[name] = _table_dict(table)
        csv_tables[name] = table

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
        "counts/pair_eigen.csv": ("coincidence", [csv_tables["eigen"]]),
        "counts/pair_super.csv": ("coincidence", [csv_tables["super"]]),
    }
    return body, artifacts


def _run_raman_delay_sweep(cfg: cf.ExperimentConfig, streams: _Streams):
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

    write_basis = q.BASIS_Z
    read_basis = _spin_super_basis(node_cfg.phi0)
    rows = []
    tables = []
    for dt in delays:
        dist = _pair_trial_distribution(
            node_cfg, cfg.detector, write_basis, read_basis, float(dt)
        )
        table = _sample_pair_table(dist, cfg.samples, streams)
        tables.append(table)
        n = table.N
        rows.append(
            {
                "delay_us": float(dt),
                "ncop_parallel": (table.n_RL + table.n_LR) / n,
                "ncop_cross": (table.n_LL + table.n_RR) / n,
                "n_parallel": table.n_RL + table.n_LR,
                "n_cross": table.n_LL + table.n_RR,
                "n_trials": n,
            }
        )

    ncop = np.array([r["ncop_parallel"] for r in rows])
    tau_vis = node_cfg.tau_vis_us

    def model(t, amp, period_fit, phase, floor):
        envelope = np.exp(-t / tau_vis) if math.isfinite(tau_vis) else 1.0
        return amp * envelope * np.cos(2.0 * np.pi * t / period_fit + phase) + floor

    p0 = [0.5 * (ncop.max() - ncop.min()), period, 0.0, float(ncop.mean())]
    fit = dict.fromkeys(
        ("period_us", "period_sigma_us", "amplitude", "phase_rad", "floor")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        try:
            popt, pcov = curve_fit(model, delays, ncop, p0=p0, maxfev=20000)
        except RuntimeError:
            popt, pcov = None, None
    # too few counts leave the oscillation unresolved: report nulls, not noise
    resolved = pcov is not None and bool(np.all(np.isfinite(pcov)))
    if resolved:
        fit.update(
            period_us=float(abs(popt[1])),
            period_sigma_us=float(math.sqrt(max(pcov[1, 1], 0.0))),
            amplitude=float(popt[0]),
            phase_rad=float(popt[2]),
            floor=float(popt[3]),
        )

    body = {
        "node": node_cfg.node_id,
        "samples_per_point": cfg.samples,
        "points": rows,
        "fit": {**fit, "resolved": resolved, "configured_period_us": period},
    }
    header = ["delay_us", "ncop_parallel", "ncop_cross", "n_parallel", "n_cross", "n_trials"]
    artifacts = {
        "sweeps/raman_delay.csv": ("rows", header, [[r[h] for h in header] for r in rows]),
        "counts/raman_delay_tables.csv": ("coincidence", tables),
    }
    return body, artifacts


def _run_lifetime_sweep(cfg: cf.ExperimentConfig, streams: _Streams):
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

    rows = []
    eigen_tables = []
    super_tables = []
    for dt in delays:
        dt = float(dt)
        dist_e = _pair_trial_distribution(
            node_cfg, cfg.detector, q.BASIS_RL, _SPIN_RL, dt
        )
        t_eigen = _sample_pair_table(dist_e, cfg.samples, streams)
        theta = nd.zeeman_phase(node_cfg, dt)
        dist_s = _pair_trial_distribution(
            node_cfg, cfg.detector, q.BASIS_Z, _spin_super_basis(theta), dt
        )
        t_super = _sample_pair_table(dist_s, cfg.samples, streams)
        eigen_tables.append(t_eigen)
        super_tables.append(t_super)

        corr_e, _ = det.subtract_accidentals(t_eigen)
        corr_s, _ = det.subtract_accidentals(t_super)
        writes = corr_e.n_woR + corr_e.n_woL
        eta_raw = t_eigen.coincidence_sum() / max(t_eigen.n_woR + t_eigen.n_woL, 1.0)
        eta_corr = corr_e.coincidence_sum() / max(writes, 1.0)
        v_raw = _visibility(t_super)[0] or 0.0
        v_corr = _visibility(corr_s)[0] or 0.0
        rows.append(
            {
                "delay_us": dt,
                "eta_raw": eta_raw,
                "eta_corrected": eta_corr,
                "visibility_raw": v_raw,
                "visibility_corrected": v_corr,
                "n_write_heralds": writes,
                "n_coincidences": corr_e.coincidence_sum(),
                "n_super_coincidences": corr_s.coincidence_sum(),
            }
        )

    t_arr = delays
    eta_arr = np.array([r["eta_corrected"] for r in rows])
    eta0_fit, tau_fit, tau_sigma = _fit_lifetime(
        t_arr, eta_arr, np.array([r["n_write_heralds"] for r in rows])
    )

    # single-parameter amplitude fit of the visibility envelope; the decay
    # constant is the calibrated tau_vis of the node
    tau_vis = node_cfg.tau_vis_us
    decay = (
        np.exp(-t_arr / tau_vis) if math.isfinite(tau_vis) else np.ones_like(t_arr)
    )
    v_arr = np.array([r["visibility_corrected"] for r in rows])
    n_coinc = np.array([max(r["n_super_coincidences"], 1.0) for r in rows])
    weights = n_coinc / np.clip(1.0 - v_arr**2, 1e-6, 1.0)
    denom = float(np.sum(weights * decay * decay))
    v0 = float(np.sum(weights * decay * v_arr) / denom)
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
    header = [
        "delay_us",
        "eta_raw",
        "eta_corrected",
        "visibility_raw",
        "visibility_corrected",
        "n_write_heralds",
        "n_coincidences",
    ]
    artifacts = {
        "sweeps/lifetime.csv": ("rows", header, [[r[h] for h in header] for r in rows]),
        "counts/lifetime_eigen.csv": ("coincidence", eigen_tables),
        "counts/lifetime_super.csv": ("coincidence", super_tables),
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
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


def _run_two_node_swap(cfg: cf.ExperimentConfig, streams: _Streams):
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


def _setting_counts(
    settings, counts: list[np.ndarray], n_bits: int
) -> dict[str, w.SettingCounts]:
    out = {}
    for spec, arr in zip(settings, counts):
        table = {
            np.binary_repr(i, n_bits): int(c) for i, c in enumerate(arr) if c
        }
        out[spec.setting_id] = w.SettingCounts(
            spec.setting_id, table, total=float(arr.sum())
        )
    return out


def _exact_setting_counts(tables, n_bits: int, reducer=None) -> dict:
    scale = 1e12
    out = {}
    for table in tables:
        dist = table.outcome_distribution()
        if reducer is not None:
            dist = reducer(dist)
        counts = {
            np.binary_repr(i, n_bits): scale * p
            for i, p in enumerate(dist)
            if p > 1e-15
        }
        out[table.setting_id] = w.SettingCounts(table.setting_id, counts)
    return out


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
    settings = make_settings()
    started = time.perf_counter()
    branches = ev._write_branches(cfg)
    tables = ev.build_event_tables(cfg, settings, _branches=branches)
    built = time.perf_counter()
    counts = _sample_event_tables(cfg, tables, streams)
    sampled_at = time.perf_counter()

    kept = counts if reducer is None else [reducer(arr) for arr in counts]
    sampled = _setting_counts(settings, kept, spec.n_qubits)
    # a budget below the setting count leaves tables empty, and an empty
    # table leaves its ratio estimate undefined: report null, not an error
    empty = [sid for sid, sc in sampled.items() if sc.sum() == 0]
    fid = sigma = populations = None
    if not empty:
        fid, sigma = w.fidelity_from_counts(
            spec, sampled, weights=cfg.calibration_weights
        )
    if w.POPULATION_SETTING not in empty:
        p0, p1 = w.populations_from_counts(
            spec, sampled[w.POPULATION_SETTING], weights=cfg.calibration_weights
        )
        populations = {"pattern0": p0, "pattern1": p1}
    exact = _exact_setting_counts(tables, spec.n_qubits, reducer)
    fid_exact, _ = w.fidelity_from_counts(spec, exact)

    body = {
        "heralded_samples": cfg.samples,
        "setting_counts": {sid: dict(sc.counts) for sid, sc in sampled.items()},
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
        "rate": rate_arithmetic(cfg),
    }
    if telemetry is not None:
        telemetry["stage_s"] = {
            "table_build": built - started,
            "sampling": sampled_at - built,
            "estimate": time.perf_counter() - sampled_at,
        }
        telemetry["counters"] = {
            "event_classes": sum(t.probabilities.size for t in tables),
            "rng_streams": len(counts),
        }
    artifacts = {
        f"counts/{cfg.scenario}_settings.csv": ("settings", list(sampled.values())),
    }
    if reducer is not None:
        herald_counts = np.sum(
            [arr.reshape(8, 8).sum(axis=1) for arr in counts], axis=0
        )
        heralds = w.SettingCounts(
            "herald_patterns",
            {np.binary_repr(i, 3): int(c) for i, c in enumerate(herald_counts)},
            total=float(herald_counts.sum()),
        )
        body["herald_pattern_counts"] = dict(heralds.counts)
        artifacts[f"counts/{cfg.scenario}_heralds.csv"] = ("settings", [heralds])
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
    time, worker count and software version live in ``meta``, as do the
    ghz6/ghz3 stage times (``stage_s``) and counters (``counters``).
    ``artifacts`` maps relative output paths to payloads for ``emit_report``.
    """

    scenario: str
    seed: int
    body: dict
    meta: dict
    artifacts: dict = field(default_factory=dict, repr=False)

    def body_json(self) -> str:
        return json.dumps(self.body, sort_keys=True, indent=2, allow_nan=False)


def run_scenario(cfg: cf.ExperimentConfig) -> RunReport:
    """Execute the configured scenario and assemble its report.

    Heralded scenarios (ghz6, ghz3) interpret ``cfg.samples`` as the total
    number of heralded events, split round-robin over witness settings;
    sweep scenarios use it per sweep point and pair_tomography per basis.
    """
    if cfg.scenario not in _RUNNERS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    started = time.perf_counter()
    telemetry: dict = {}  # stage times and counters of the heralded runner
    extra = {"telemetry": telemetry} if cfg.scenario in ("ghz6", "ghz3") else {}
    body, artifacts = _RUNNERS[cfg.scenario](cfg, _table_streams(cfg.seed), **extra)

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

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    written = []
    report_path = out / "report.json"
    payload = {
        "schema_version": cf.SCHEMA_VERSION,
        "scenario": report.scenario,
        "seed": report.seed,
        "body": report.body,
        "meta": report.meta,
    }
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    written.append(str(report_path))

    for rel, payload in report.artifacts.items():
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        kind = payload[0]
        if kind == "coincidence":
            det.write_coincidence_csv(path, payload[1])
        elif kind == "settings":
            w.write_setting_counts_csv(path, payload[1])
        elif kind == "rows":
            _, header, rows = payload
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(det.csv_number(v) for v in row))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            raise ValueError(f"unknown artifact kind {kind!r}")
        written.append(str(path))
    return written

