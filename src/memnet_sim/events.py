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
conditional sampling.  The structure of the write branches (which ports
each branch loads, which kind of memory it leaves) is enumerated once at
import as index arrays; per config only their probabilities are formed.
All settings of one build are handled together: their bases are stacked
into ``(S, 3, 2, 2)`` port and memory arrays, per-port and per-memory click
tables are computed for every setting at once and gathered onto the
branches, and one outer product over the ``(S, B, 6, 2)`` factor stack
gives every class distribution.  The coherent sector is measured term by
term for the whole stack, each term an outer product of six per-qubit
factors, so no six-qubit state is ever built, and then marginalized over
the memories whose retrieval failed.  The brute-force
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


def _stack_bases(settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The settings' ``(S, 3, 2, 2)`` port and memory basis stacks and their
    ``(S,)`` feed-forward flags."""
    return (
        np.array([s.port_bases for s in settings], dtype=complex),
        np.array([s.memory_bases for s in settings], dtype=complex),
        np.array([s.feedforward for s in settings], dtype=bool),
    )


# port loads: the H(0)/V(1) photons routed to one station port, in node order
_PORT_LOADS = ((), (0,), (1,), (0, 1), (1, 0))
# memory kinds: vacuum, spoiled (double), then a clean memory collapsed by
# its photon's H or V routing at _SINGLE_KIND + pol
_VACUUM_KIND, _DOUBLE_KIND, _SINGLE_KIND = 0, 1, 2


def _port_outcomes(port_bases: np.ndarray, dark: float):
    """``_single_click`` of each station port of a ``(..., 3, 2, 2)`` basis
    stack under each of ``_PORT_LOADS``: ``(..., 3, 5)`` click chances and
    ``(..., 3, 5, 2)`` distributions.

    Colliding photons always carry opposite polarizations, so a bunched
    port fires a single channel only when both Born draws coincide, which
    is impossible in the H/V basis and a coin flip in any equatorial basis.
    """
    # an H (V) photon takes each outcome with the squared modulus of the
    # basis' first (second) row
    born_h, born_v = np.moveaxis(np.abs(port_bases) ** 2, -2, 0)
    bunched = det.bunched_hits(born_h, born_v)
    single_h, single_v = det.photon_hits(1.0, born_h), det.photon_hits(1.0, born_v)
    empty = np.broadcast_to(det.NO_HITS, bunched.shape)
    hits = np.stack([empty, single_h, single_v, bunched, bunched], axis=-3)
    return _single_click(hits, dark)


def _memory_outcomes(memory_bases: np.ndarray, terms: list[nd.NodeTerms], dark: float):
    """``_single_click`` of each memory analyzer of a ``(..., 3, 2, 2)``
    basis stack under each memory kind: ``(..., 3, 4)`` click chances and
    ``(..., 3, 4, 2)`` distributions, each node's read-out from
    ``node.readout``."""
    reads = [nd.readout(t, memory_bases[..., k, :, :]) for k, t in enumerate(terms)]
    clean = np.stack([c for c, _ in reads], axis=-4)  # (..., node, pol, 2, 2)
    spoiled = np.stack([s for _, s in reads])  # (node, 2, 2)
    shape = clean.shape[:-3]
    hits = np.concatenate(
        [
            np.broadcast_to(det.NO_HITS, shape + (1, 2, 2)),
            np.broadcast_to(spoiled[:, None], shape + (1, 2, 2)),
            clean,
        ],
        axis=-3,
    )
    return _single_click(hits, dark)


def _hit_and_fill(dark: float) -> tuple[float, float]:
    """Exactly-one-click chances of a surely hit analyzer and of an empty one,
    the coherent sector's factors (its outcomes come from the branch terms)."""
    hit_one, _ = _single_click(det.photon_hits(1.0, (0.5, 0.5)), dark)
    fill, _ = _single_click(det.NO_HITS, dark)
    return float(hit_one), float(fill)


_POL_NAME = ("H", "V")
_ROUTE_H = np.array([op.ROUTE[(k, "H")] for k in range(3)])
_ROUTE_V = np.array([op.ROUTE[(k, "V")] for k in range(3)])


def _branch_structure() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every incoherent write branch of three nodes, one row each: the write
    outcome per node, the ``_PORT_LOADS`` index per port and the memory kind
    per node, which also picks the node's factor in the branch probability.
    The two all-single assignments that route one photon per port are
    skipped; they stay coherent and are handled jointly.
    """
    combos, loads, kinds = [], [], []
    for combo in itertools.product((VACUUM, SINGLE, DOUBLE), repeat=3):
        photon_nodes = [k for k in range(3) if combo[k] != VACUUM]
        for pols in itertools.product((0, 1), repeat=len(photon_nodes)):
            if combo == (SINGLE, SINGLE, SINGLE) and pols in ((0, 0, 0), (1, 1, 1)):
                continue
            ports: list[list[int]] = [[], [], []]
            kind = [_VACUUM_KIND] * 3
            for k, pol in zip(photon_nodes, pols):
                ports[op.ROUTE[(k, _POL_NAME[pol])]].append(pol)
                kind[k] = _SINGLE_KIND + pol if combo[k] == SINGLE else _DOUBLE_KIND
            combos.append(combo)
            loads.append([_PORT_LOADS.index(tuple(p)) for p in ports])
            kinds.append(kind)
    return np.array(combos), np.array(loads), np.array(kinds)


_BRANCH_COMBO, _BRANCH_PORT_LOAD, _BRANCH_MEMORY_KIND = _branch_structure()


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
    """The write branches of ``cfg``: each row of ``_branch_structure`` with
    its probability, the write outcomes' product times, node by node, the
    photon's routing chance (its Born probability for a single, 1/2 for a
    double, 1 for vacuum).  Combinations that cannot occur are dropped.
    """
    terms = _station_terms(cfg)
    write_p = np.array([t.write_probabilities for t in terms])
    # factor by memory kind: vacuum, double, single H, single V
    factor = np.array([[1.0, 0.5, *t.born] for t in terms])
    base = _times_clicks(1.0, write_p, _BRANCH_COMBO)
    prob = _times_clicks(base, factor, _BRANCH_MEMORY_KIND)
    possible = base > 0.0
    return _Branches(
        terms, prob[possible], _BRANCH_PORT_LOAD[possible], _BRANCH_MEMORY_KIND[possible]
    )


def _times_clicks(prob: np.ndarray, clicks: np.ndarray, index) -> np.ndarray:
    """Multiply each branch by the value (a click probability) of units 0,
    1, 2 in turn; ``clicks`` is ``(..., 3, kinds)`` and the result
    ``(..., B)``."""
    for unit in range(3):
        prob = prob * clicks[..., unit, index[:, unit]]
    return prob


def _outer_product(factors) -> np.ndarray:
    """``(64, R)`` outer products of six ``(2, R)`` factors, factor 0 the
    most significant bit, each cell multiplied left to right."""
    out = factors[0]
    for factor in factors[1:]:
        out = (out[:, None, :] * factor[None, :, :]).reshape(2 * len(out), -1)
    return out


def _coherent_dist(
    branch_terms: tuple[op.BranchTerm, ...],
    ports: np.ndarray,
    memories: np.ndarray,
    flip: np.ndarray,
) -> np.ndarray:
    """``(S, 64)`` distributions of the coherent sector with every memory
    read, one per setting of the ``(S, 3, 2, 2)`` basis stacks: each branch
    term is the outer product of ``conj(P[b]) * P[b']`` per port basis ``P``
    and ``diag(M^dagger s M)`` per memory block ``s`` and basis ``M``, and
    the terms are summed in order.  ``flip`` (``(S,)``) applies the
    feed-forward Z to spin I's block."""
    rows = [t.row for t in branch_terms]
    cols = [t.col for t in branch_terms]
    blocks = np.array([t.blocks for t in branch_terms])  # (T, 3, 2, 2)
    weights = np.array([t.weight for t in branch_terms], dtype=complex)
    # Z s Z flips the signs of the coherences
    z_signs = np.where(flip[:, None, None], np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0)
    # (S, 3, T, 2) -> three (T, S, 2) port factors
    factors = list((np.conj(ports[:, :, rows]) * ports[:, :, cols]).transpose(1, 2, 0, 3))
    for k in range(3):
        block = blocks[:, k, None] * z_signs if k == 0 else blocks[:, k, None]
        m = memories[:, k]
        factors.append(np.sum(m.conj() * (block @ m), axis=-2))
    factors[0] = weights[:, None, None] * factors[0]
    n_terms, n = len(branch_terms), len(ports)
    outer = _outer_product([f.reshape(-1, 2).T for f in factors]).reshape(-1, n_terms, n)
    dist = 0.0
    for t in range(n_terms):
        dist = dist + outer[:, t]
    return np.ascontiguousarray(np.real(dist).T)


def _coherent_subset_dists(
    branch_terms: tuple[op.BranchTerm, ...],
    ports: np.ndarray,
    memories: np.ndarray,
    feedforward: np.ndarray,
) -> np.ndarray:
    """``(S, 8, 64)`` click distributions of the coherent sector by setting
    and retrieval mask (bit ``k`` set when memory ``k`` returned its
    photon), from the settings' stacked bases and feed-forward flags.  A
    memory that returned none is summed out and its dark-count click filled
    in uniformly.

    One measurement of all six qubits serves every mask, since measuring a
    qubit and discarding the result is a partial trace.  Feed-forward
    settings are measured a second time with spin I flipped, in the same
    stack; their herald patterns with an odd number of outcome-1 port clicks
    are drawn from the flipped terms.  Port marginals agree between the two
    variants, so the spliced distribution stays normalized, and the splice,
    which reads only port bits, commutes with the memory sums.
    """
    n = len(feedforward)
    ff = np.flatnonzero(feedforward)
    measured = _coherent_dist(
        branch_terms,
        np.concatenate([ports, ports[ff]]),
        np.concatenate([memories, memories[ff]]),
        np.arange(n + ff.size) >= n,
    )
    dist = measured[:n]
    herald = np.arange(_N_OUTCOMES) >> 3
    odd = (((herald >> 2) & 1) + ((herald >> 1) & 1) + (herald & 1)) % 2 == 1
    dist[ff] = np.where(odd, measured[n:], dist[ff])
    joint = dist.reshape((n,) + (2,) * 6)
    out = np.empty((n, 8) + joint.shape[1:])
    for mask in range(8):
        lost = tuple(4 + k for k in range(3) if not mask >> k & 1)
        out[:, mask] = joint.sum(axis=lost, keepdims=True) * 0.5 ** len(lost)
    return out.reshape(n, 8, _N_OUTCOMES)


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
    """Build the exact event table for each setting, all settings at once.

    The write branches are enumerated once per config, from index arrays
    fixed at import.  The settings' bases are stacked into ``(S, 3, 2, 2)``
    port and memory arrays; each port's and memory's click probability and
    distribution is tabulated for every setting in one pass, gathered onto
    the branches by fancy indexing, and the ``(S, B, 6, 2)`` factor stack
    becomes the class distributions in one outer product.  The coherent
    sector's branch terms are measured for every setting in one stack, as
    outer products of per-qubit factors, and marginalized over the memories
    that returned no photon.  Per setting only the zero-probability classes
    are dropped.  Class order: incoherent branches, then the coherent sector
    by retrieval subset.
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
    if not settings:
        return []
    ports, memories, feedforward = _stack_bases(settings)
    port_p, port_d = _port_outcomes(ports, dark)
    mem_p, mem_d = _memory_outcomes(memories, terms, dark)
    prob = _times_clicks(branches.probability, port_p, branches.port_load)
    prob = _times_clicks(prob, mem_p, branches.memory_kind)  # (S, B)
    factors = np.concatenate(
        [port_d[:, units, branches.port_load], mem_d[:, units, branches.memory_kind]],
        axis=2,
    )  # (S, B, 6, 2), multiplied out with the S * B class rows innermost
    factors = np.ascontiguousarray(factors.reshape(-1, 6, 2).transpose(1, 2, 0))
    dists = _outer_product(factors).T.reshape(prob.shape + (_N_OUTCOMES,))
    subsets = _coherent_subset_dists(branch_terms, ports, memories, feedforward)
    tables = []
    for setting, p, d, sub in zip(settings, prob, dists, subsets):
        keep = p > 0.0
        probs = np.concatenate([p[keep], coherent[live]])
        if probs.size == 0:
            raise ValueError(
                f"no six-fold coincidences possible for setting {setting.setting_id}"
            )
        tables.append(
            EventTable(
                setting.setting_id,
                probs,
                np.concatenate([d[keep], sub[live]]),
                float(coherent[-1]),
            )
        )
    return tables


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
    port_p, _ = _port_outcomes(np.array([q.BASIS_DA, q.BASIS_DA, q.BASIS_DA]), dark)
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
            [nd.born2(setting.memory_bases[k], t.spins[p])[1] for p in (0, 1)]
            for k, t in enumerate(terms)
        ]
    )
    port_p1 = np.abs(np.array(setting.port_bases)[:, :, 1]) ** 2  # (port, pol)
    etas = np.array([t.eta for t in terms])
    etas_dbl = np.array([t.eta_dbl for t in terms])
    coherent_dists = _coherent_subset_dists(branch_terms, *_stack_bases([setting]))[0]

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
