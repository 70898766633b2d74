"""Heralded six-fold events: exact enumeration, conditional sampling, raw trials.

A six-fold coincidence is three station clicks (one per interferometer
output port) plus three read-out clicks (one per memory analyzer), each
"click" meaning exactly one of the two detector channels fired.  At
realistic excitation probabilities such events occur at ~1e-8 per trial,
so the simulator never loops over trials for the entangling scenarios.
Instead it enumerates the finite set of event classes exactly:

* per node, the write attempt leaves vacuum, a single excitation with its
  photon, or a double excitation (one stray photon, a spoiled memory);
  ``node.node_terms`` supplies each node's pair, already aged by the read
  delay, with its H/V routing probabilities and conditional spins;
* photons route through the polarization network by their H/V component,
  which collapses every branch except the all-single HHH/VVV sector, the
  only pair of polarization triples that land one photon on each port;
* the surviving coherent sector is the station's heralded state in
  factored form (``optics.station_branches``): four branch terms, each a
  product of three spin blocks of the aged pairs, while every other class
  is a product of per-port and per-memory outcome distributions;
* detector dark counts fill empty ports and empty analyzers, and bunched
  ports fake single clicks in equatorial analysis bases.

Each event class contributes (probability, outcome distribution over the
64 click patterns).  Summing gives the herald probability per trial, the
importance weight attached to every conditionally drawn sample; one
multinomial over the table's mixed outcome distribution is exact
conditional sampling.  The table build enumerates the write branches once
per config as index arrays, gathers per-port and per-memory click tables
onto them, and takes one outer product over the ``(B, 6, 2)`` factor stack;
the coherent sector is measured term by term, each term an outer product
of six per-qubit factors, so no six-qubit state is ever built, and then
marginalized over the memories whose retrieval failed.  The brute-force
path (`raw_trial_counts`) simulates unconditional trials with per-trial
Bernoulli draws and exists to validate the table at excitation
probabilities high enough for six-folds to show up in reasonable time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import detection as det
from . import node as nd
from . import optics as op
from . import quantum as q
from . import witness as w
from .config import ExperimentConfig, envelope_from_spec

GHZ6_SPEC = w.GhzSpec.parse("HHH↓↓↑", "VVV↑↑↓")
GHZ3_SPEC = w.GhzSpec.parse("↓↓↑", "↑↑↓")

_UNIFORM2 = np.array([0.5, 0.5])
_N_OUTCOMES = 64

VACUUM, SINGLE, DOUBLE = 0, 1, 2


@dataclass(frozen=True, eq=False)
class SettingSpec:
    """Measurement context for one witness setting.

    ``port_bases`` and ``memory_bases`` hold one 2x2 basis (columns are the
    outcome kets, outcome 0 first) per station port and per memory analyzer.
    ``feedforward`` applies the herald-conditioned spin-I flip: patterns
    with an odd number of outcome-1 port clicks measure the flipped state.
    """

    setting_id: str
    port_bases: tuple[np.ndarray, np.ndarray, np.ndarray]
    memory_bases: tuple[np.ndarray, np.ndarray, np.ndarray]
    feedforward: bool = False


def ghz6_settings() -> tuple[SettingSpec, ...]:
    """Seven joint photon+memory settings for the six-qubit witness."""
    bases = w.setting_bases(GHZ6_SPEC)
    out = []
    for sid in GHZ6_SPEC.setting_ids():
        mats = bases[sid]
        out.append(SettingSpec(sid, tuple(mats[:3]), tuple(mats[3:])))
    return tuple(out)


def ghz3_settings() -> tuple[SettingSpec, ...]:
    """Four memory settings with fixed D/A station analysis and feed-forward."""
    bases = w.setting_bases(GHZ3_SPEC)
    ports = (q.BASIS_DA, q.BASIS_DA, q.BASIS_DA)
    return tuple(
        SettingSpec(sid, ports, tuple(bases[sid]), feedforward=True)
        for sid in GHZ3_SPEC.setting_ids()
    )


def _born2(basis: np.ndarray, state) -> np.ndarray:
    """Outcome probabilities of one qubit, or of a stack, in ``basis`` (columns = kets)."""
    mat = np.asarray(state)
    if mat.ndim == 1:
        return np.abs(basis.conj().T @ mat) ** 2
    rotated = basis.conj().swapaxes(-1, -2) @ mat @ basis
    return np.real(rotated.diagonal(0, -2, -1))


def _station_terms(cfg: ExperimentConfig) -> list[nd.NodeTerms]:
    """Node terms at the read delay, each write photon measured in the H/V
    frame it leaves its waveplate in (``born[0]`` routes as H, ``born[1]``
    as V)."""
    return [
        nd.node_terms(n, op.polarization_map(n.node_id).conj().T, cfg.read_delay_us)
        for n in cfg.nodes
    ]


def _coherent_sector(
    cfg: ExperimentConfig, terms: list[nd.NodeTerms]
) -> tuple[float, tuple[op.BranchTerm, ...]]:
    """The all-single HHH/VVV sector: its probability, P(all nodes single)
    times P(one photon per port), and the station's branch terms of the
    heralded state, memories already aged."""
    envelopes = {nid: envelope_from_spec(s) for nid, s in (cfg.envelopes or {}).items()}
    success, branch_terms = op.station_branches(
        [t.pair for t in terms],
        envelopes=envelopes or None,
        delta_omega_rad_per_us=2.0 * math.pi / cfg.nodes[0].zeeman_period_us,
        extra_coherence=cfg.interference_visibility,
    )
    p_all_single = math.prod(t.write_probabilities[SINGLE] for t in terms)
    return p_all_single * success, branch_terms


def _single_click(hits: np.ndarray, dark: float):
    """(probability of exactly one click, outcome distribution given that)
    of one 2x2 hit distribution, or of each in a ``(..., 2, 2)`` stack."""
    clicks = det.analyzer_clicks(hits, dark)
    one = np.stack([clicks[..., 1, 0], clicks[..., 0, 1]], axis=-1)
    total = one.sum(axis=-1, keepdims=True)
    fired = total > 0.0
    return total[..., 0], np.where(fired, one / np.where(fired, total, 1.0), 0.5)


# port loads: the H(0)/V(1) photons routed to one station port, in node order
_PORT_LOADS = ((), (0,), (1,), (0, 1), (1, 0))
# memory kinds: vacuum, spoiled (double), then a clean memory collapsed by
# its photon's H or V routing at _SINGLE_KIND + pol
_VACUUM_KIND, _DOUBLE_KIND, _SINGLE_KIND = 0, 1, 2


def _port_outcomes(port_bases, dark: float):
    """``_single_click`` of each station port under each of ``_PORT_LOADS``.

    Colliding photons always carry opposite polarizations, so a bunched
    port fires a single channel only when both Born draws coincide, which
    is impossible in the H/V basis and a coin flip in any equatorial basis.
    """
    hits = []
    for basis in port_bases:
        born_h, born_v = (_born2(basis, ket) for ket in np.eye(2))
        bunched = det.bunched_hits(born_h, born_v)
        singles = [det.photon_hits(1.0, born) for born in (born_h, born_v)]
        hits.append([det.NO_HITS, *singles, bunched, bunched])
    return _single_click(np.array(hits), dark)


def _memory_outcomes(memory_bases, terms: list[nd.NodeTerms], dark: float):
    """``_single_click`` of each memory analyzer under each memory kind.

    A clean memory is read in the state its photon's routing collapsed it
    to; a spoiled memory reads out uniformly.
    """
    hits = []
    for term, basis in zip(terms, memory_bases):
        clean = [
            det.photon_hits(term.eta, _born2(basis, term.spins[pol]))
            for pol in (0, 1)
        ]
        hits.append([det.NO_HITS, det.photon_hits(term.eta_dbl, _UNIFORM2), *clean])
    return _single_click(np.array(hits), dark)


def _hit_and_fill(dark: float) -> tuple[float, float]:
    """Exactly-one-click chances of a surely hit analyzer and of an empty one,
    the coherent sector's factors (its outcomes come from the branch terms)."""
    hit_one, _ = _single_click(det.photon_hits(1.0, _UNIFORM2), dark)
    fill, _ = _single_click(det.NO_HITS, dark)
    return float(hit_one), float(fill)


_POL_NAME = ("H", "V")
_ROUTE_H = np.array([op.ROUTE[(k, "H")] for k in range(3)])
_ROUTE_V = np.array([op.ROUTE[(k, "V")] for k in range(3)])


@dataclass(frozen=True)
class _Branches:
    """The incoherent write branches of one config, one row per branch:
    its probability, its ``_PORT_LOADS`` index per port and its memory kind
    per node, with the node terms they came from."""

    terms: list[nd.NodeTerms]
    probability: np.ndarray  # (B,)
    port_load: np.ndarray  # (B, 3)
    memory_kind: np.ndarray  # (B, 3)


def _write_branches(cfg: ExperimentConfig) -> _Branches:
    """Enumerate write outcomes for the three nodes and the polarization
    collapse of every photon, skipping the two all-single assignments that
    route one photon per port; those stay coherent and are handled jointly.
    """
    terms = _station_terms(cfg)
    probs, loads, kinds = [], [], []
    for combo in itertools.product((VACUUM, SINGLE, DOUBLE), repeat=3):
        base = math.prod(t.write_probabilities[c] for t, c in zip(terms, combo))
        if base <= 0.0:
            continue
        photon_nodes = [k for k in range(3) if combo[k] != VACUUM]
        for pols in itertools.product((0, 1), repeat=len(photon_nodes)):
            if combo == (SINGLE, SINGLE, SINGLE) and pols in ((0, 0, 0), (1, 1, 1)):
                continue
            prob = base
            ports: list[list[int]] = [[], [], []]
            kind = [_VACUUM_KIND] * 3
            for k, pol in zip(photon_nodes, pols):
                ports[op.ROUTE[(k, _POL_NAME[pol])]].append(pol)
                if combo[k] == SINGLE:
                    prob *= terms[k].born[pol]
                    kind[k] = _SINGLE_KIND + pol
                else:
                    prob *= 0.5
                    kind[k] = _DOUBLE_KIND
            probs.append(prob)
            loads.append([_PORT_LOADS.index(tuple(p)) for p in ports])
            kinds.append(kind)
    return _Branches(terms, np.array(probs), np.array(loads), np.array(kinds))


def _times_clicks(prob: np.ndarray, clicks: np.ndarray, index) -> np.ndarray:
    """Multiply each branch by the click probability of units 0, 1, 2 in turn."""
    for unit in range(3):
        prob = prob * clicks[unit, index[:, unit]]
    return prob


def _coherent_dist(
    branch_terms: tuple[op.BranchTerm, ...], setting: SettingSpec, flip: bool
) -> np.ndarray:
    """``(64,)`` distribution of the coherent sector with every memory read:
    each term is the outer product of ``conj(P[b]) * P[b']`` per port basis
    ``P`` and ``diag(M^dagger s M)`` per memory block ``s`` and basis ``M``.
    ``flip`` applies the feed-forward Z to spin I's block."""
    dist = 0.0
    for term in branch_terms:
        factors = [np.conj(p[term.row]) * p[term.col] for p in setting.port_bases]
        for k, (block, m) in enumerate(zip(term.blocks, setting.memory_bases)):
            if flip and k == 0:  # Z s Z flips the signs of the coherences
                block = block * np.array([[1.0, -1.0], [-1.0, 1.0]])
            factors.append(np.sum(m.conj() * (block @ m), axis=0))
        out = term.weight
        for factor in factors:
            out = np.multiply.outer(out, factor)
        dist = dist + out
    return np.real(dist).reshape(-1)


def _coherent_subset_dists(
    branch_terms: tuple[op.BranchTerm, ...], setting: SettingSpec
) -> np.ndarray:
    """``(8, 64)`` click distributions of the coherent sector by retrieval
    mask (bit ``k`` set when memory ``k`` returned its photon).  A memory
    that returned none is summed out and its dark-count click filled in
    uniformly.

    One measurement of all six qubits serves every mask, since measuring a
    qubit and discarding the result is a partial trace.  With feed-forward
    on, herald patterns with an odd number of outcome-1 port clicks are
    drawn from the flipped terms; port marginals agree between the two
    variants, so the spliced distribution stays normalized, and the splice,
    which reads only port bits, commutes with the memory sums.
    """
    dist = _coherent_dist(branch_terms, setting, flip=False)
    if setting.feedforward:
        flipped = _coherent_dist(branch_terms, setting, flip=True)
        herald = np.arange(dist.size) >> 3
        parity = (((herald >> 2) & 1) + ((herald >> 1) & 1) + (herald & 1)) % 2
        dist = np.where(parity == 1, flipped, dist)
    joint = dist.reshape([2] * 6)
    rows = []
    for mask in range(8):
        lost = tuple(3 + k for k in range(3) if not mask >> k & 1)
        marginal = joint.sum(axis=lost, keepdims=True) * 0.5 ** len(lost)
        rows.append(np.broadcast_to(marginal, joint.shape).reshape(-1))
    return np.array(rows)


@dataclass(frozen=True)
class EventTable:
    """Exact herald decomposition for one measurement setting.

    ``probabilities[i]`` is the per-trial chance of a six-fold coincidence
    through event class ``i``; ``distributions[i]`` is that class's outcome
    distribution over the 64 click patterns (3 port bits then 3 memory
    bits, big-endian).  ``clean_probability`` is the slice flowing through
    the coherent all-single sector with every retrieval real.
    """

    setting_id: str
    probabilities: np.ndarray
    distributions: np.ndarray
    clean_probability: float

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        d = np.asarray(self.distributions, dtype=float)
        if p.ndim != 1 or d.shape != (p.size, _N_OUTCOMES):
            raise ValueError("mismatched table shapes")
        if np.any(p < 0.0) or np.any(d < -1e-12):
            raise ValueError("negative probabilities in event table")
        if np.max(np.abs(d.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("event-class distributions must be normalized")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "distributions", np.clip(d, 0.0, None))

    @property
    def p_sixfold(self) -> float:
        """Herald probability per trial: the importance weight."""
        return float(self.probabilities.sum())

    def outcome_distribution(self) -> np.ndarray:
        """P(click pattern | six-fold), length 64."""
        return self.probabilities @ self.distributions / self.p_sixfold

    def expected_counts(self, n_trials: float) -> np.ndarray:
        """Mean unconditional pattern counts after ``n_trials`` raw trials."""
        return n_trials * (self.probabilities @ self.distributions)

    def sample(self, n_heralds: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_heralds`` heralded outcomes; returns 64 pattern counts.

        One multinomial over ``outcome_distribution()``.  Drawing the event
        class first and then the pattern within it is a mixture whose
        marginal over the 64 patterns is exactly that distribution, so this
        is exact sampling from the conditional distribution, not an
        approximation.
        """
        dist = self.outcome_distribution()
        return rng.multinomial(n_heralds, dist / dist.sum())


def build_event_tables(
    cfg: ExperimentConfig,
    settings: tuple[SettingSpec, ...] | list[SettingSpec],
    _branches: _Branches | None = None,
) -> list[EventTable]:
    """Build the exact event table for each setting, sharing node terms.

    The write branches are enumerated once per config as index arrays.  Per
    setting, each port's and memory's click probability and distribution
    is tabulated once, gathered onto the branches by fancy indexing, and
    the ``(B, 6, 2)`` factor stack becomes the class distributions in one
    outer product.  The coherent sector's branch terms are measured once per
    setting, as outer products of per-qubit factors, and marginalized over
    the memories that returned no photon.  Class order:
    incoherent branches, then the coherent sector by retrieval subset.
    """
    branches = _write_branches(cfg) if _branches is None else _branches
    terms = branches.terms
    p_coherent, branch_terms = _coherent_sector(cfg, terms)
    dark = cfg.detector.dark_count_prob
    hit_one, fill = _hit_and_fill(dark)
    units = np.arange(3)
    # the coherent sector by retrieval mask, as in _coherent_subset_dists
    retrieved = (np.arange(8)[:, None] >> units) & 1 == 1
    coherent = np.full(8, p_coherent * hit_one**3)
    for k, term in enumerate(terms):
        real, lost = term.eta * hit_one, (1.0 - term.eta) * fill
        coherent = coherent * np.where(retrieved[:, k], real, lost)
    live = coherent > 0.0
    tables = []
    for setting in settings:
        port_p, port_d = _port_outcomes(setting.port_bases, dark)
        mem_p, mem_d = _memory_outcomes(setting.memory_bases, terms, dark)
        prob = _times_clicks(branches.probability, port_p, branches.port_load)
        prob = _times_clicks(prob, mem_p, branches.memory_kind)
        keep = prob > 0.0
        factors = np.concatenate(
            [
                port_d[units, branches.port_load[keep]],
                mem_d[units, branches.memory_kind[keep]],
            ],
            axis=1,
        )
        dists = factors[:, 0]
        for j in range(1, 6):
            dists = dists[:, :, None] * factors[:, j, None, :]
            dists = dists.reshape(-1, 2 ** (j + 1))
        probs = np.concatenate([prob[keep], coherent[live]])
        if probs.size == 0:
            raise ValueError(
                f"no six-fold coincidences possible for setting {setting.setting_id}"
            )
        dists = np.concatenate(
            [dists, _coherent_subset_dists(branch_terms, setting)[live]]
        )
        tables.append(
            EventTable(setting.setting_id, probs, dists, float(coherent[-1]))
        )
    return tables


def build_event_table(cfg: ExperimentConfig, setting: SettingSpec) -> EventTable:
    return build_event_tables(cfg, [setting])[0]


def conditional_success_estimate(
    cfg: ExperimentConfig, _branches: _Branches | None = None
) -> float:
    """Chance that a station herald left all three memories truly entangled.

    Conditioned on exactly one click per station port under D/A analysis,
    this is the probability that every node holds a single excitation and
    the photons interfered one-per-port, excluding double-excitation and
    dark-count false heralds.  Computed in closed form from the event
    classes; no sampling error.  ``_branches`` reuses the write branches a
    table build already enumerated.  Raises ValueError when no station
    herald is possible at all.
    """
    branches = _write_branches(cfg) if _branches is None else _branches
    terms = branches.terms
    dark = cfg.detector.dark_count_prob
    hit_one, _ = _hit_and_fill(dark)
    p_all_single = math.prod(t.write_probabilities[SINGLE] for t in terms)
    acceptance = op.routing_acceptance([t.pair for t in terms])
    numerator = p_all_single * acceptance * hit_one**3
    port_p, _ = _port_outcomes((q.BASIS_DA, q.BASIS_DA, q.BASIS_DA), dark)
    false = _times_clicks(branches.probability, port_p, branches.port_load)
    # accumulate left to right, branch by branch after the numerator
    denom = np.add.accumulate(np.concatenate([[numerator], false]))[-1]
    if denom <= 0.0:
        raise ValueError("no station heralds possible for the success estimate")
    return numerator / denom


def raw_trial_counts(
    cfg: ExperimentConfig,
    setting: SettingSpec,
    n_trials: int,
    rng: np.random.Generator,
    chunk_size: int = 100_000,
) -> np.ndarray:
    """Brute-force unconditional trials; returns 64 six-fold pattern counts.

    Every stochastic element is drawn per trial: write outcomes, photon
    polarizations, Born routing of each detector, dark counts on every
    channel, and retrieval successes.  Only the coherent-sector outcome
    distributions are shared with the table builder (they are the quantum
    content); all combinatorics and click logic run independently, which is
    what makes this a meaningful cross-check of `build_event_tables`.
    Single-threaded; intended for validation, not production sampling.
    """
    terms = _station_terms(cfg)
    _, branch_terms = _coherent_sector(cfg, terms)
    dark = cfg.detector.dark_count_prob
    write_p = np.array([t.write_probabilities for t in terms])  # (3, 3)
    pol_p1 = np.array([t.born[1] for t in terms])
    # chance a collapsed clean memory reads out as channel 1, by node and pol
    mem_p1 = np.array(
        [
            [_born2(setting.memory_bases[k], t.spins[p])[1] for p in (0, 1)]
            for k, t in enumerate(terms)
        ]
    )
    port_p1 = np.array(
        [[_born2(setting.port_bases[port], np.eye(2)[p])[1] for p in (0, 1)]
         for port in range(3)]
    )
    etas = np.array([t.eta for t in terms])
    etas_dbl = np.array([t.eta_dbl for t in terms])
    coherent_dists = _coherent_subset_dists(branch_terms, setting)

    counts = np.zeros(_N_OUTCOMES, dtype=np.int64)
    remaining = n_trials
    while remaining > 0:
        n = min(chunk_size, remaining)
        remaining -= n
        u = rng.random((n, 3))
        writes = (u > write_p[None, :, 0]).astype(np.int8) + (
            u > write_p[None, :, 0] + write_p[None, :, 1]
        ).astype(np.int8)
        # 0 vacuum, 1 single, 2 double
        has_photon = writes != VACUUM
        pols = np.where(
            writes == SINGLE,
            (rng.random((n, 3)) < pol_p1[None, :]).astype(np.int8),
            (rng.random((n, 3)) < 0.5).astype(np.int8),
        )
        all_single = (writes == SINGLE).all(axis=1)
        # pairs are independent across nodes, so the all-H/all-V chance of
        # these marginal draws equals the coherent-sector weight exactly
        coherent = all_single & (pols == pols[:, :1]).all(axis=1)

        photon_hits = np.zeros((n, 3, 2), dtype=bool)
        rows = np.arange(n)
        for k in range(3):
            port = np.where(pols[:, k] == 0, _ROUTE_H[k], _ROUTE_V[k])
            ch = (
                rng.random(n) < port_p1[port, pols[:, k]]
            ).astype(np.int8)
            mask = has_photon[:, k] & ~coherent
            photon_hits[rows[mask], port[mask], ch[mask]] = True

        mem_hits = np.zeros((n, 3, 2), dtype=bool)
        real_mask = np.zeros((n, 3), dtype=bool)
        for k in range(3):
            r = rng.random(n)
            real = np.where(writes[:, k] == DOUBLE, r < etas_dbl[k], r < etas[k])
            real &= writes[:, k] != VACUUM
            real_mask[:, k] = real
            ch = np.where(
                writes[:, k] == DOUBLE,
                rng.random(n) < 0.5,
                rng.random(n) < mem_p1[k, pols[:, k]],
            ).astype(np.int8)
            mask = real & ~coherent
            mem_hits[rows[mask], k, ch[mask]] = True

        # coherent trials: port channels and real-memory outcomes are drawn
        # jointly from the station state, grouped by which retrievals fired;
        # a memory that returned no photon leaves its analyzer to dark counts
        retrieved = real_mask @ (1 << np.arange(3))
        for mask in np.unique(retrieved[coherent]):
            sel = np.nonzero(coherent & (retrieved == mask))[0]
            dist = coherent_dists[mask]
            draws = rng.choice(_N_OUTCOMES, size=sel.size, p=dist / dist.sum())
            for k in range(3):
                photon_hits[sel, k, (draws >> (5 - k)) & 1] = True
                if mask >> k & 1:
                    mem_hits[sel, k, (draws >> (2 - k)) & 1] = True

        clicks_w = photon_hits | (rng.random((n, 3, 2)) < dark)
        clicks_r = mem_hits | (rng.random((n, 3, 2)) < dark)
        ok = (clicks_w.sum(axis=2) == 1).all(axis=1)
        ok &= (clicks_r.sum(axis=2) == 1).all(axis=1)
        if not ok.any():
            continue
        # channel-1 bits of ports 0-2 then memories 0-2, big-endian
        bits = np.concatenate([clicks_w[ok], clicks_r[ok]], axis=1)[:, :, 1]
        pattern = bits @ (1 << np.arange(5, -1, -1))
        counts += np.bincount(pattern, minlength=_N_OUTCOMES)
    return counts
