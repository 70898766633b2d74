"""Scenario orchestration: trial schedules, samplers, reports.

Most of this module is glue from a validated ExperimentConfig to count
tables, estimates and their serialization.  Two parts are physics: the
exact clicks of one write-read trial (``_pair_trial_distribution``) and the
six-fold rate budget (``_rate_budget``).  The fitted analyses call
``fit.curve_fit`` as ``curve_fit``, the name the benchmark's fit span wraps.

Two contracts shape the code:

* Determinism.  Each sampled table (a pair table or a heralded event
  table) draws all its counts with one multinomial from its own
  counter-based Philox stream, keyed by ``(master seed, table index)``.
  ``_TableStreams`` hands the streams out in the fixed order the drawing
  parts take them, from one generator per run re-keyed for each table, the same
  streams as a new generator per table, and counts the streams and draws
  the report's meta block records.  A sum of independent multinomials
  over one probability vector is itself that multinomial, so
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

Each scenario is a draw-free part, ``draw_free``, then a drawing part that
reads what it built.  A sampled scenario's ``limit`` is its estimators run,
through the same code as on the drawn counts, on the exact distributions
the counts are drawn from.  Ratio estimates (ghz) take the
distributions as they are; the pair estimators see table size only through
floors and clips (``pair_stack``'s one write herald, ``decay_problem``'s
``1/(2n)``, ``visibility_amplitude``'s one coincidence), so they take
``LIMIT_TRIALS`` times them, which leaves those below rounding.
"""

from __future__ import annotations

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
from .config import report_json
from .fit import curve_fit

# Spin analyzer bases, columns ordered so that channel 0 corresponds to the
# read photon's R channel (up -> R, down -> L under retrieval). With this
# ordering the correlated coincidences land in the cross-labeled cells,
# matching the sign convention of detection.visibility_raw.
_SPIN_RL = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _spin_super_basis(theta: float) -> np.ndarray:
    """Equatorial spin analyzer aligned for positive visibility at ``theta``."""
    return q.equatorial_basis(theta + math.pi)


class _TableStreams:
    """One stream per sampled table, indexed in the order tables take them;
    counts the streams ``taken`` and the trials or heralded events ``draws``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.taken = 0
        self.draws = 0
        self._rng = self._fresh = None

    def open(self) -> None:
        """Build the run's one Philox generator, as a drawing part does before
        its first stage timer: a process's first ``np.random`` lookup imports."""
        if self._rng is None:
            self._rng = np.random.Generator(np.random.Philox(key=self.seed))
            self._fresh = self._rng.bit_generator.state  # key [seed, 0], nothing drawn

    def take(self, n: int) -> np.random.Generator:
        """The next table's stream, for a table of ``n`` draws: the run's one
        Philox generator (``open``), re-keyed to ``(seed, table index)`` at
        counter 0 with an empty buffer, so that it draws as a new
        ``Philox(key=seed + (index << 64))``.  Valid until the next ``take``."""
        self.open()
        self._fresh["state"]["key"][1] = self.taken
        self._rng.bit_generator.state = self._fresh
        self.taken += 1
        self.draws += int(n)
        return self._rng


def _split_budget(n: int, k: int) -> list[int]:
    base, rest = divmod(int(n), k)
    return [base + (1 if i < rest else 0) for i in range(k)]


# ---------------------------------------------------------------------------
# Pair coincidence machinery (pair_tomography, raman_delay_sweep,
# lifetime_sweep). One write-read pair per trial, its click pattern over the
# four detectors enumerated exactly, then sampled with one multinomial per
# table and analyzed as a stack.


def _pair_trial_distribution(
    node_cfg: cf.NodeConfig,
    detector: cf.DetectorConfig,
    write_basis: np.ndarray,
    read_basis: np.ndarray,
    dt_us,
) -> np.ndarray:
    """Exact 16-cell click distribution of one write-read trial, memory aged
    by ``dt_us``: a term per branch of ``node.WRITE_BRANCHES``.

    Cell index packs the four click bits ``(w0, w1, r0, r1)`` big-endian.  A
    delay array gives one row per delay, read in ``read_basis`` or in a
    ``(D, 2, 2)`` stack; a stack of write bases adds axes that broadcast
    against the delay axes.
    """
    dark = detector.dark_count_prob
    terms = nd.node_terms(node_cfg, write_basis, dt_us)
    no_photon = det.analyzer_clicks(det.NO_HITS, dark)
    fires = det.analyzer_clicks(det.photon_hits(1.0, np.eye(2)), dark)  # per channel
    reads = det.analyzer_clicks(nd.readout(terms, read_basis), dark)  # per memory kind
    chances = terms.photon_chances
    rows = terms.born.shape[:-1]
    dist = np.zeros(rows + (2, 2, 2, 2))
    for p_write, branches in zip(terms.write_probabilities, nd.WRITE_BRANCHES):
        for outcome, kind in branches:
            weight = (p_write * chances[..., kind])[..., None, None, None, None]
            jw = no_photon if outcome is None else fires[outcome]
            dist += weight * np.einsum("ab,...cd->...abcd", jw, reads[..., kind, :, :])
    dist = dist.reshape(rows + (16,))
    total = dist.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= 1e-9))
    if bad.size:
        raise AssertionError(f"pair trial distribution row {bad[0]} sums to {total.flat[bad[0]]}")
    return dist / total[..., None]


# trials per table of a pair limit (see the module docstring)
LIMIT_TRIALS = 2**40


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
# Scenarios. A drawing part takes the config, what its draw-free part built
# and the run's table streams, and returns (body keys, artifacts, stage_s,
# meta): artifacts maps a relative output path to a payload emit_report
# knows how to write, and meta holds its counters beyond the streams and a
# fit's diagnostics. A pair analysis returns (keys, limit keys, artifacts,
# meta). The config took only the scenario_params its scenario takes.


def _eigen_super(node_cfg: cf.NodeConfig, detector: cf.DetectorConfig, delays: np.ndarray):
    """The two-basis pair distributions at each delay: eigen (rows ``0::2``),
    write photon and spin read in R/L, then super (rows ``1::2``), write
    photon in H/V and the spin on the equator at that delay's Zeeman phase,
    so that the two tables of a delay take consecutive streams.  Both come
    from one ``(D, 2)`` distribution stack: each delay ages the pair once."""
    super_bases = _spin_super_basis(nd.zeeman_phase(node_cfg, delays))
    reads = np.stack([np.broadcast_to(_SPIN_RL, super_bases.shape), super_bases], axis=1)
    writes = np.stack([q.BASIS_RL, q.BASIS_Z])
    dists = _pair_trial_distribution(node_cfg, detector, writes, reads, delays[:, None])
    return dists.reshape(-1, 16)


def _pair_estimates(node_cfg: cf.NodeConfig, delays: np.ndarray, pairs: det.PairStack):
    """pair_tomography's analysis: the eigen/super tables, visibilities, with
    sigmas and flags, and Bell fidelities."""
    bases = ("eigen", "super")
    visibilities = {}
    for i, name in enumerate(bases):
        vis = visibilities[name] = {"accidentals_clamped": bool(pairs.clamped[i])}
        for k, kind in enumerate(("raw", "corrected")):
            seen = pairs.coincidences[k, i] > 0.0  # no coincidences, no visibility
            vis[kind] = float(pairs.visibility[k, i]) if seen else None
            vis[f"{kind}_sigma"] = float(pairs.sigma[k, i]) if seen else None
        vis["no_coincidences"] = vis["raw"] is None
    clip = lambda v: min(max(v, -1.0), 1.0)
    fidelities = dict.fromkeys(("raw", "corrected"))
    for kind in fidelities:
        v_e, v_s = visibilities["eigen"][kind], visibilities["super"][kind]
        # a basis without coincidences leaves the fidelity undefined
        if v_e is not None and v_s is not None:
            fidelities[kind] = w.bell_fidelity_from_visibilities(clip(v_e), clip(v_s))
    header = det.CSV_HEADER.split(",")
    keys = {
        "tables": {name: dict(zip(header, row)) for name, row in zip(bases, pairs.fields.tolist())},
        "visibilities": visibilities,
        "bell_fidelity": fidelities,
    }
    limit_vis = {n: {k: v[k] for k in ("raw", "corrected")} for n, v in visibilities.items()}
    limit = {"visibilities": limit_vis, "bell_fidelity": fidelities}
    artifacts = {
        f"counts/pair_{name}.csv": ("coincidence", pairs.fields[i : i + 1])
        for i, name in enumerate(bases)
    }
    return keys, limit, artifacts, {}


def _raman_fit(node_cfg: cf.NodeConfig, delays: np.ndarray, pairs: det.PairStack):
    """raman_delay_sweep's analysis: its points and the fit, with the fit's
    diagnostics and its gate's z for ``meta.fit``."""
    period = node_cfg.zeeman_period_us
    n_RL, n_LR, n_LL, n_RR, *_, n = pairs.fields.T
    parallel, cross = n_RL + n_LR, n_LL + n_RR
    points = np.stack([delays, parallel / n, cross / n, parallel, cross, n], axis=1)
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
    fit = {**estimate, "resolved": resolved, "configured_period_us": period}
    header = ["delay_us", "ncop_parallel", "ncop_cross", "n_parallel", "n_cross", "n_trials"]
    keys = {"points": [dict(zip(header, point)) for point in points.tolist()], "fit": fit}
    limit = {"fit": {k: fit[k] for k in ("period_us", "amplitude", "phase_rad", "floor")}}
    artifacts = {
        "sweeps/raman_delay.csv": ("rows", header, points),
        "counts/raman_delay_tables.csv": ("coincidence", pairs.fields),
    }
    return keys, limit, artifacts, {"fit": ft.diagnostics(result, amplitude_z=amplitude_z)}


_LIFETIME_HEADER = [
    "delay_us", "eta_raw", "eta_corrected", "visibility_raw", "visibility_corrected",
    "n_write_heralds", "n_coincidences", "n_super_coincidences",
]


def _lifetime_fit(node_cfg: cf.NodeConfig, delays: np.ndarray, pairs: det.PairStack):
    """lifetime_sweep's analysis of its eigen/super pair stack: its points
    (``_LIFETIME_HEADER``) and fits, with the decay fit's diagnostics and its
    gate's z for ``meta.fit``."""
    eigen, super_ = slice(0, None, 2), slice(1, None, 2)
    writes = pairs.fields[eigen, 4] + pairs.fields[eigen, 5]  # n_woR + n_woL
    # efficiencies from the eigen tables, visibilities from the super tables
    columns = [*pairs.efficiency[:, eigen], *pairs.visibility[:, super_], writes]
    corrected_sums = [pairs.coincidences[1, eigen], pairs.coincidences[1, super_]]
    points = np.stack([delays, *columns, *corrected_sums], axis=1)

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
    if v0 is not None and math.isfinite(tau_vis) and v0 * math.sqrt(2.0) > 1.0:
        crossing = tau_vis * math.log(v0 * math.sqrt(2.0))
        crossing_sigma = tau_vis * v0_sigma / v0
    fit = {
        "lifetime_us": tau_fit,
        "lifetime_sigma_us": tau_sigma,
        "eta0": eta0_fit,
        "visibility0": v0,
        "visibility0_sigma": v0_sigma,
        "tau_vis_us": tau_vis if math.isfinite(tau_vis) else None,
        "visibility_crossing_us": crossing,
        "visibility_crossing_sigma_us": crossing_sigma,
    }
    keys = {"points": [dict(zip(_LIFETIME_HEADER, point)) for point in points.tolist()], "fit": fit}
    estimates = ("lifetime_us", "eta0", "visibility0", "visibility_crossing_us")
    limit = {"fit": {k: fit[k] for k in estimates}}
    artifacts = {
        # every point column but n_super_coincidences
        "sweeps/lifetime.csv": ("rows", _LIFETIME_HEADER[:7], points[:, :7]),
        "counts/lifetime_eigen.csv": ("coincidence", pairs.fields[0::2]),
        "counts/lifetime_super.csv": ("coincidence", pairs.fields[1::2]),
    }
    return keys, limit, artifacts, {"fit": ft.diagnostics(result, decay_z=decay_z)}


# pair scenario -> (budget key, default delays from the config and node,
# distribution rows at the delays, analysis); a sweep's rule keeps its node's
# Zeeman period, and so its default delays, finite
_PAIR_SCENARIOS = {
    "pair_tomography": (
        "trials_per_basis", lambda cfg, node_cfg: [cfg.read_delay_us], _eigen_super, _pair_estimates
    ),
    "raman_delay_sweep": (
        "samples_per_point",
        lambda cfg, node_cfg: np.linspace(0.0, 3.0 * node_cfg.zeeman_period_us, 33),
        # write photon in H/V, the spin on the equator at phi0
        lambda node_cfg, detector, delays: _pair_trial_distribution(
            node_cfg, detector, q.BASIS_Z, _spin_super_basis(node_cfg.phi0), delays
        ),
        _raman_fit,
    ),
    "lifetime_sweep": (
        "samples_per_point",
        lambda cfg, node_cfg: node_cfg.zeeman_period_us * np.arange(23),
        _eigen_super,
        _lifetime_fit,
    ),
}


def _pair_draw_free(cfg: cf.ExperimentConfig):
    """A pair scenario's node, budget and ``limit`` (its analysis of ``LIMIT_TRIALS``
    trials per row at the expected counts), and its node, delays and distribution rows."""
    node_cfg = cfg.node(cfg.scenario_params.get("node", "I"))
    budget, default_delays, distributions, analyse = _PAIR_SCENARIOS[cfg.scenario]
    delays = cfg.scenario_params.get("delays_us")
    delays = np.asarray(default_delays(cfg, node_cfg) if delays is None else delays, dtype=float)
    dists = distributions(node_cfg, cfg.detector, delays)
    limit = analyse(node_cfg, delays, det.pair_stack(det.pair_fields(dists) * LIMIT_TRIALS))[1]
    keys = {"node": node_cfg.node_id, budget: cfg.samples, "limit": limit}
    return keys, (node_cfg, delays, dists)


def _draw_pairs(cfg: cf.ExperimentConfig, drawn_from, streams: _TableStreams):
    """``samples`` trials of each distribution row, each drawn with one
    multinomial from the next stream, analyzed as one stack; a fitted
    analysis (one with ``meta.fit``) times its fit."""
    node_cfg, delays, dists = drawn_from
    n = cfg.samples
    streams.open()
    started = time.perf_counter()
    pairs = det.pair_stack(det.pair_fields([streams.take(n).multinomial(n, d) for d in dists]))
    built = time.perf_counter()
    keys, _, artifacts, meta = _PAIR_SCENARIOS[cfg.scenario][-1](node_cfg, delays, pairs)
    stage_s = {"tables": built - started}
    if "fit" in meta:
        stage_s["fit"] = time.perf_counter() - built
    return keys, artifacts, stage_s, meta


_SWAP_HEADER = ["delta_omega_rad_per_us", "width_us", "fidelity_flip", "fidelity_noflip"]


def _swap_draw_free(cfg: cf.ExperimentConfig):
    """two_node_swap's whole body, as no draw enters it, and its grid rows."""
    params = cfg.scenario_params
    node_cfg = cfg.node("I")
    dw0 = 2.0 * math.pi / node_cfg.zeeman_period_us
    dws = params.get("delta_omega_rad_per_us", dw0 * np.array([0.25, 0.5, 1.0, 2.0, 4.0]))
    dws = np.asarray(dws, dtype=float).tolist()
    widths = np.asarray(params.get("width_us", [0.02, 0.05, 0.1, 0.2, 0.4]), dtype=float).tolist()
    point_width = float(params.get("point_width_us", 0.05))

    # one Gaussian per distinct width: the default point width is a grid width too
    distinct = dict.fromkeys((point_width, *widths))
    modes = {width: op.Envelope.gaussian(0.0, width) for width in distinct}

    def rows(width, detunings):
        f = modes[width]  # both nodes emit the same Gaussian mode
        return [
            [dw, width, *(op.averaged_swap_fidelity(flip, f, f, dw) for flip in (True, False))]
            for dw in detunings
        ]

    [point_row] = rows(point_width, [dw0])
    grid_rows = [row for width in widths for row in rows(width, dws)]
    *_, flips, noflips = np.array(grid_rows).T
    body = {
        "point": dict(zip(_SWAP_HEADER, point_row)),
        "grid": grid_rows,
        "flip_min": float(flips.min()),
        "flip_max": float(flips.max()),
        "noflip_min": float(noflips.min()),
        "noflip_max": float(noflips.max()),
        "ordering_holds": bool(np.all(noflips < flips)),
    }
    return body, grid_rows


def _swap_outputs(cfg: cf.ExperimentConfig, grid_rows, streams: _TableStreams):
    """two_node_swap's drawing part, which draws nothing: its CSV and integral count."""
    artifacts = {"sweeps/two_node_swap.csv": ("rows", _SWAP_HEADER, grid_rows)}
    # flip and no-flip per row, the point's included
    return {}, artifacts, {}, {"counters": {"integrals": 2 * (1 + len(grid_rows))}}


_NODES = len(op.NODE_IDS)  # station ports, and memories


def _witness_bits(spec: w.GhzSpec, arr: np.ndarray) -> np.ndarray:
    """(ports, memories) pattern bits -> the bits ``spec``'s witness reads: a
    witness on the memories alone (ghz3) sums over the station port bits."""
    return arr.reshape(2**_NODES, -1).sum(axis=0) if spec.n_qubits == _NODES else arr


def _populations(spec: w.GhzSpec, tables: dict, weights: np.ndarray) -> dict:
    p0, p1 = w.populations_from_counts(spec, tables[w.POPULATION_SETTING], weights)
    return {"pattern0": p0, "pattern1": p1}


# heralded scenario -> (witness spec, its settings)
_GHZ = {"ghz6": (ev.GHZ6_SPEC, ev.ghz6_settings), "ghz3": (ev.GHZ3_SPEC, ev.ghz3_settings)}


def _ghz_draw_free(cfg: cf.ExperimentConfig):
    """A heralded GHZ witness's exact keys, off its herald model and its settings'
    event tables, and the spec, calibration weights and tables its draws read."""
    spec, make_settings = _GHZ[cfg.scenario]
    weights = w.weight_array(spec, cfg.calibration_weights)
    model = ev.herald_model(cfg)
    tables = ev.build_event_tables(cfg, make_settings(), model)
    # the estimators on the exact distributions: weighted, the limits (see witness)
    exact = {t.setting_id: _witness_bits(spec, t.outcome_distribution()) for t in tables}
    fid_exact = w.fidelity_from_counts(spec, exact)[0]  # unweighted
    # weights of 1.0 multiply exactly: without calibration weights the limit is fid_exact
    weighted = cfg.calibration_weights
    fid_limit = w.fidelity_from_counts(spec, exact, weights)[0] if weighted else fid_exact
    keys = {
        "heralded_samples": cfg.samples,
        "fidelity": {"exact": fid_exact},
        "limit": {"fidelity": fid_limit, "populations": _populations(spec, exact, weights)},
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
    return keys, (spec, weights, tables)


def _draw_ghz(cfg: cf.ExperimentConfig, drawn_from, streams: _TableStreams):
    """Sample each setting's event table, then estimate.  A witness on the
    memories alone (ghz3) also reports the herald patterns its port bits carry."""
    spec, weights, tables = drawn_from
    streams.open()
    started = time.perf_counter()
    budgets = _split_budget(cfg.samples, len(tables))
    counts = [table.sample(n, streams.take(n)) for table, n in zip(tables, budgets)]
    sampled_at = time.perf_counter()
    sampled = {t.setting_id: _witness_bits(spec, arr) for t, arr in zip(tables, counts)}
    # a budget below the setting count leaves tables empty, and an empty
    # table leaves its ratio estimate undefined: report null, not an error
    empty = [sid for sid, arr in sampled.items() if not arr.any()]
    fid, sigma = (None, None) if empty else w.fidelity_from_counts(spec, sampled, weights)
    setting_counts = {sid: w.pattern_table(arr, spec.n_qubits) for sid, arr in sampled.items()}
    populations = None if w.POPULATION_SETTING in empty else _populations(spec, sampled, weights)
    keys = {
        "setting_counts": setting_counts,
        "empty_settings": empty,
        "fidelity": {"estimate": fid, "sigma": sigma},
        "populations": populations,
    }
    stage_s = {"sampling": sampled_at - started, "estimate": time.perf_counter() - sampled_at}
    artifacts = {f"counts/{cfg.scenario}_settings.csv": ("settings", setting_counts)}
    if spec.n_qubits == _NODES:
        herald_counts = np.sum([arr.reshape(2**_NODES, -1).sum(axis=1) for arr in counts], axis=0)
        heralds = w.pattern_table(herald_counts, _NODES, zeros=True)
        keys["herald_pattern_counts"] = heralds
        artifacts[f"counts/{cfg.scenario}_heralds.csv"] = ("settings", {"herald_patterns": heralds})
    event_classes = sum(t.probabilities.size for t in tables)
    return keys, artifacts, stage_s, {"counters": {"event_classes": event_classes}}


# scenario -> (draw-free part, the stage that times it, drawing part)
_SCENARIOS = {
    **dict.fromkeys(_PAIR_SCENARIOS, (_pair_draw_free, "tables", _draw_pairs)),
    "two_node_swap": (_swap_draw_free, "integrals", _swap_outputs),
    **dict.fromkeys(_GHZ, (_ghz_draw_free, "table_build", _draw_ghz)),
}


def draw_free(cfg: cf.ExperimentConfig) -> tuple[dict, object]:
    """The body keys of ``cfg``'s run that no draw enters, and what its draws
    read, with no table stream opened or taken.

    The keys are the config echo (without ``workers`` and ``out_dir``) and a
    sampled scenario's ``limit`` and node or budget; ghz6/ghz3 add
    ``fidelity.exact``, ``event_tables``, ``conditional_success_estimate``
    and ``rate``, and two_node_swap's are its whole body.  The draws read
    the pair distribution rows, or the ghz event tables, each built once.
    """
    keys, drawn_from = _SCENARIOS[cfg.scenario][0](cfg)
    # execution details must not influence the deterministic body
    config_echo = {k: v for k, v in cfg.to_dict().items() if k not in ("workers", "out_dir")}
    envelope = {"scenario": cfg.scenario, "seed": cfg.seed, "samples": cfg.samples}
    return {**envelope, "config": config_echo, **keys}, drawn_from


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
    """Execute the configured scenario and assemble its report: the
    draw-free part, timed as the stage ``_SCENARIOS`` names, then the
    drawing part; ``cfg.samples`` is read as the module docstring says."""
    started = time.perf_counter()
    fixed, drawn_from = draw_free(cfg)
    fixed_s = time.perf_counter() - started
    _, stage, draw = _SCENARIOS[cfg.scenario]
    streams = _TableStreams(cfg.seed)
    drawn, artifacts, stage_s, own_meta = draw(cfg, drawn_from, streams)
    stage_s[stage] = fixed_s + stage_s.get(stage, 0.0)
    # a key both parts fill (ghz's fidelity) holds the keys of both
    body = {**fixed, **{k: {**fixed[k], **v} if k in fixed else v for k, v in drawn.items()}}
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
        scenario=cfg.scenario, seed=cfg.seed, body=body, meta=meta, artifacts=artifacts
    )


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

