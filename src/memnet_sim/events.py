"""Heralded six-fold events: exact enumeration, conditional sampling, raw trials.

A six-fold coincidence is three station clicks (one per interferometer
output port) plus three read-out clicks (one per memory analyzer), each
"click" meaning exactly one of the two detector channels fired.  At
realistic excitation probabilities such events occur at ~1e-8 per trial,
so the simulator never loops over trials for the entangling scenarios.
Instead it enumerates the finite set of event classes exactly:

* per node, the write attempt branches as ``node.WRITE_BRANCHES`` states
  it; one ``node.node_terms`` call supplies every node's aged pair, H/V
  routing chances and conditional spins, the node the leading axis;
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
``4**N`` click patterns, N the station's node count).  Summing gives the
herald probability per trial, the importance weight attached to every
conditionally drawn sample; one multinomial over the table's mixed outcome
distribution is exact conditional sampling.  The write branches (the ports
each loads, the memory kind each leaves) are enumerated once at import as
index arrays; everything per config is one ``HeraldModel`` (node terms at
the read delay, branch probabilities, routing acceptance, coherent sector by
retrieval mask), which the tables, the success estimate, the rate budget and
the raw trials all read.  ``build_event_tables`` reads a build's settings
as one stack and builds no joint state.  The brute-force path
(``raw_trial_counts``) simulates unconditional trials with per-trial
Bernoulli draws to validate the table at excitation probabilities high
enough for six-folds to show up in reasonable time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import detection as det
from . import node as nd
from . import optics as op
from . import quantum as q
from . import witness as w
from .config import ExperimentConfig

# the station's nodes, which are also its ports; a click pattern holds a
# bit per port and per memory
_N = len(op.NODE_IDS)
_N_MASKS = 2**_N  # retrieval masks: bit k set when memory k returned its photon
_N_OUTCOMES = 4**_N

GHZ6_SPEC = w.GhzSpec.parse("HHH↓↓↑", "VVV↑↑↓")
# the memory half of GHZ6_SPEC: the state a station herald leaves in the memories
GHZ3_SPEC = w.GhzSpec(_N, GHZ6_SPEC.pattern0[_N:], GHZ6_SPEC.pattern1[_N:])
# the station's herald analysis: D/A on every port, and as one (N, 2, 2) stack
_HERALD_PORTS = (q.BASIS_DA,) * _N
_HERALD_PORT_STACK = np.array(_HERALD_PORTS)
# (N, 2, 2): each node's write basis, its waveplate's H/V frame
_WRITE_FRAMES = np.array([op.polarization_map(nid).conj().T for nid in op.NODE_IDS])


@dataclass(frozen=True, eq=False)
class SettingSpec:
    """Measurement context for one witness setting.

    ``port_bases`` and ``memory_bases`` hold one 2x2 basis (columns are the
    outcome kets, outcome 0 first) per station port and per memory analyzer.
    ``feedforward`` applies the herald-conditioned spin-I flip: patterns
    with an odd number of outcome-1 port clicks measure the flipped state.
    """

    setting_id: str
    port_bases: tuple[np.ndarray, ...]
    memory_bases: tuple[np.ndarray, ...]
    feedforward: bool = False


def ghz6_settings() -> tuple[SettingSpec, ...]:
    """Seven joint photon+memory settings for the six-qubit witness."""
    bases = w.setting_bases(GHZ6_SPEC)
    return tuple(
        SettingSpec(sid, tuple(bases[sid][:_N]), tuple(bases[sid][_N:]))
        for sid in GHZ6_SPEC.setting_ids()
    )


def ghz3_settings() -> tuple[SettingSpec, ...]:
    """Four memory settings with fixed D/A station analysis and feed-forward."""
    bases = w.setting_bases(GHZ3_SPEC)
    return tuple(
        SettingSpec(sid, _HERALD_PORTS, tuple(bases[sid]), feedforward=True)
        for sid in GHZ3_SPEC.setting_ids()
    )


def _single_click(hits: np.ndarray, dark: float):
    """(probability of exactly one click, outcome distribution given that)
    of one 2x2 hit distribution, or of each in a ``(..., 2, 2)`` stack."""
    clicks = det.analyzer_clicks(hits, dark)
    one = np.stack([clicks[..., 1, 0], clicks[..., 0, 1]], axis=-1)
    total = one.sum(axis=-1, keepdims=True)
    fired = total > 0.0
    return total[..., 0], np.where(fired, one / np.where(fired, total, 1.0), 0.5)


def _stack_bases(settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The settings' ``(S, N, 2, 2)`` port and memory basis stacks and their
    ``(S,)`` feed-forward flags."""
    return (
        np.array([s.port_bases for s in settings], dtype=complex),
        np.array([s.memory_bases for s in settings], dtype=complex),
        np.array([s.feedforward for s in settings], dtype=bool),
    )


# port loads: the H(0)/V(1) photons routed to one station port, in node order
_PORT_LOADS = ((), (0,), (1,), (0, 1), (1, 0))


def _port_outcomes(port_bases: np.ndarray, dark: float):
    """``_single_click`` of each station port of a ``(..., N, 2, 2)`` basis
    stack under each of ``_PORT_LOADS``: ``(..., N, 5)`` click chances and
    ``(..., N, 5, 2)`` distributions.

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


def _branch_structure() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every incoherent write branch of the nodes, one row each, in the order
    of ``node.WRITE_BRANCHES`` taken node by node: the write outcome per
    node, the ``_PORT_LOADS`` index per port and the memory kind per node,
    which also picks the node's photon chance.  The all-single assignments
    that route one photon per port (``optics.ONE_PER_PORT``) stay coherent
    and are skipped here."""
    combos, loads, kinds = [], [], []
    for combo in itertools.product(range(len(nd.WRITE_BRANCHES)), repeat=_N):
        for branch in itertools.product(*(nd.WRITE_BRANCHES[c] for c in combo)):
            pols = tuple(pol for pol, _ in branch)
            if combo == (nd.SINGLE,) * _N and pols in op.ONE_PER_PORT:
                continue
            ports: list[list[int]] = [[] for _ in range(_N)]
            for k, pol in enumerate(pols):
                if pol is not None:
                    ports[op.ROUTE[(k, "HV"[pol])]].append(pol)
            combos.append(combo)
            loads.append([_PORT_LOADS.index(tuple(p)) for p in ports])
            kinds.append([kind for _, kind in branch])
    return np.array(combos), np.array(loads), np.array(kinds)


_BRANCH_COMBO, _BRANCH_PORT_LOAD, _BRANCH_MEMORY_KIND = _branch_structure()
_MASK_BITS = (np.arange(_N_MASKS)[:, None] >> np.arange(_N)) & 1


def _times_clicks(prob: np.ndarray, clicks: np.ndarray, index) -> np.ndarray:
    """Multiply each branch by the value (a click probability) of units 0,
    1, ... in turn; ``clicks`` is ``(..., N, kinds)`` and the result
    ``(..., B)``."""
    for unit in range(_N):
        prob = prob * clicks[..., unit, index[:, unit]]
    return prob


@dataclass(frozen=True, eq=False)
class HeraldModel:
    """The per-config part of the heralded six-fold model, each piece once:
    the dark-count chance; the node terms at the read delay, one
    ``NodeTerms`` whose leading axis is the node, write photons in their
    waveplates' H/V frame (``born[k, 0]``: node k's photon routes as H); the
    incoherent write branches, one row each; ``acceptance``, the chance of
    one photon per port; ``herald``, the chance the coherent all-single
    HHH/VVV sector clicks once on every port; and ``coherent``, its
    six-fold probability by retrieval mask (bit ``k``: memory ``k`` read)."""

    dark: float
    terms: nd.NodeTerms  # node axis leading
    branch_probability: np.ndarray  # (B,)
    branch_port_load: np.ndarray  # (B, N)
    branch_memory_kind: np.ndarray  # (B, N)
    acceptance: float
    herald: float
    coherent: np.ndarray  # (_N_MASKS,)


def herald_model(cfg: ExperimentConfig) -> HeraldModel:
    """The herald model of ``cfg``.  A write branch's probability is the
    write outcomes' product times each node's ``photon_chances`` at its
    memory kind; impossible branches are dropped.  The coherent sector is
    P(all single) times the acceptance times a sure hit per port, then per
    memory a retrieval (a hit) or a loss (a dark fill)."""
    terms = nd.node_terms(cfg.nodes, _WRITE_FRAMES, cfg.read_delay_us)
    base = _times_clicks(1.0, terms.write_probabilities, _BRANCH_COMBO)
    prob = _times_clicks(base, terms.photon_chances, _BRANCH_MEMORY_KIND)
    dark = cfg.detector.dark_count_prob
    hit_one = float(_single_click(det.photon_hits(1.0, (0.5, 0.5)), dark)[0])
    fill = float(_single_click(det.NO_HITS, dark)[0])
    acceptance = float(op.routing_acceptance(terms.pair))
    p_all_single = math.prod(terms.write_probabilities[:, nd.SINGLE])
    herald = p_all_single * acceptance * hit_one**_N
    # memory k lost (column 0) or read (column 1), as bit k of each mask says
    fates = np.stack([(1.0 - terms.eta) * fill, terms.eta * hit_one], axis=-1)
    coherent = _times_clicks(np.full(_N_MASKS, herald), fates, _MASK_BITS)
    possible = base > 0.0
    branches = prob[possible], _BRANCH_PORT_LOAD[possible], _BRANCH_MEMORY_KIND[possible]
    return HeraldModel(dark, terms, *branches, acceptance, herald, coherent)


def _station_branch_terms(cfg: ExperimentConfig, terms) -> tuple[op.BranchTerm, ...]:
    """The station's branch terms of the heralded state, memories already
    aged; raises ValueError when the post-selection has zero probability."""
    envelopes = {nid: op.Envelope.from_spec(s) for nid, s in (cfg.envelopes or {}).items()}
    _, branch_terms = op.station_branches(
        terms.pair,
        envelopes=envelopes or None,
        delta_omega_rad_per_us=2.0 * math.pi / cfg.nodes[0].zeeman_period_us,
        extra_coherence=cfg.interference_visibility,
    )
    return branch_terms


def _outer_product(factors) -> np.ndarray:
    """``(2**F, R)`` outer products of F ``(2, R)`` factors, factor 0 the
    most significant bit, each cell multiplied left to right."""
    out = factors[0]
    for factor in factors[1:]:
        out = (out[:, None, :] * factor[None, :, :]).reshape(2 * len(out), -1)
    return out


def _coherent_subset_dists(
    branch_terms: tuple[op.BranchTerm, ...],
    ports: np.ndarray,
    memories: np.ndarray,
    feedforward: np.ndarray,
) -> np.ndarray:
    """``(S, _N_MASKS, _N_OUTCOMES)`` click distributions of the coherent sector by setting
    and retrieval mask (bit ``k`` set when memory ``k`` returned its
    photon), from the settings' stacked bases and feed-forward flags.  A
    memory that returned none is summed out and its dark-count click filled
    in uniformly.

    One measurement of all six qubits serves every mask, since measuring a
    qubit and discarding the result is a partial trace: each branch term is
    the outer product of ``conj(P[b]) * P[b']`` per port basis ``P`` and
    ``diag(M^dagger s M)`` per memory block ``s`` and basis ``M``, summed in
    order.  Feed-forward settings are measured again in the same stack with
    memory I's basis taken as ``Z M``, which measures the state its Z flip
    leaves, for their herald patterns with an odd number of outcome-1 port
    clicks.  Port marginals agree between the two, so the splice stays
    normalized, and it reads only port bits, so it commutes with the memory
    sums.
    """
    n = len(feedforward)
    ff = np.flatnonzero(feedforward)
    flipped = memories[ff].copy()
    flipped[:, 0] = q.PAULI_Z @ flipped[:, 0]
    ports = np.concatenate([ports, ports[ff]])
    memories = np.concatenate([memories, flipped])
    rows = [t.row for t in branch_terms]
    cols = [t.col for t in branch_terms]
    blocks = np.array([t.blocks for t in branch_terms])  # (T, N, 2, 2)
    weights = np.array([t.weight for t in branch_terms], dtype=complex)
    # (S, N, T, 2) -> N (T, S, 2) port factors
    factors = list((np.conj(ports[:, :, rows]) * ports[:, :, cols]).transpose(1, 2, 0, 3))
    for k in range(_N):
        m = memories[:, k]
        factors.append(np.sum(m.conj() * (blocks[:, k, None] @ m), axis=-2))
    factors[0] = weights[:, None, None] * factors[0]
    n_terms = len(branch_terms)
    outer = _outer_product([f.reshape(-1, 2).T for f in factors]).reshape(-1, n_terms, len(ports))
    measured = 0.0
    for t in range(n_terms):
        measured = measured + outer[:, t]
    measured = np.ascontiguousarray(np.real(measured).T)
    dist = measured[:n]
    herald = np.arange(_N_OUTCOMES) >> _N
    odd = sum((herald >> bit) & 1 for bit in range(_N)) % 2 == 1
    dist[ff] = np.where(odd, measured[n:], dist[ff])
    joint = dist.reshape((n,) + (2,) * (2 * _N))
    out = np.empty((n, _N_MASKS) + joint.shape[1:])
    for mask in range(_N_MASKS):
        lost = tuple(1 + _N + k for k in range(_N) if not mask >> k & 1)
        out[:, mask] = joint.sum(axis=lost, keepdims=True) * 0.5 ** len(lost)
    return out.reshape(n, _N_MASKS, _N_OUTCOMES)


@dataclass(frozen=True, eq=False)
class EventTable:
    """Exact herald decomposition for one measurement setting.

    ``probabilities[i]`` is the per-trial chance of a six-fold coincidence
    through event class ``i``; ``distributions[i]`` is that class's outcome
    distribution over the ``_N_OUTCOMES`` click patterns (the port bits
    then the memory bits, big-endian).  ``clean_probability`` is the slice flowing through
    the coherent all-single sector with every retrieval real.  The herald
    probability and the mixed outcome distribution are each computed once,
    on first use, and kept on the table.
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
        # one reduction per check; a NaN passes, as a comparison with it is
        # false, and an empty table reaches the normalization check's max
        if p.min(initial=0.0) < 0.0 or d.min(initial=0.0) < -1e-12:
            raise ValueError("negative probabilities in event table")
        if np.abs(d.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("event-class distributions must be normalized")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "distributions", np.clip(d, 0.0, None))

    @functools.cached_property
    def p_sixfold(self) -> float:
        """Herald probability per trial: the importance weight."""
        return float(self.probabilities.sum())

    @functools.cached_property
    def _mixture(self) -> np.ndarray:
        mixture = self.probabilities @ self.distributions / self.p_sixfold
        mixture.flags.writeable = False
        return mixture

    def outcome_distribution(self) -> np.ndarray:
        """P(click pattern | six-fold), one entry per click pattern; the
        table's one read-only array."""
        return self._mixture

    def expected_counts(self, n_trials: float) -> np.ndarray:
        """Mean unconditional pattern counts after ``n_trials`` raw trials."""
        return n_trials * (self.probabilities @ self.distributions)

    def sample(self, n_heralds: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_heralds`` heralded outcomes; returns the pattern counts.

        One multinomial over ``outcome_distribution()``.  Drawing the event
        class first and then the pattern within it is a mixture whose
        marginal over the patterns is exactly that distribution, so this
        is exact sampling from the conditional distribution, not an
        approximation.
        """
        dist = self.outcome_distribution()
        return rng.multinomial(n_heralds, dist / dist.sum())


def build_event_tables(
    cfg: ExperimentConfig,
    settings: tuple[SettingSpec, ...] | list[SettingSpec],
    model: HeraldModel | None = None,
) -> list[EventTable]:
    """Build the exact event table for each setting, all settings at once.

    ``model`` is ``herald_model(cfg)``, made here when not given: callers
    that only want tables pass the config alone, and a heralded run, which
    also reads the success estimate and rate budget off the model, passes
    the one it built.  The station's branch terms are worked out only here,
    so a config whose post-selection has zero probability fails here.
    The settings' bases are stacked into ``(S, N, 2, 2)`` port and memory
    arrays; each port's and memory's click probability and distribution is
    tabulated for every setting in one pass and gathered onto the model's
    write branches by fancy indexing; each setting's ``(B, 2N, 2)`` factors,
    cut to the classes it keeps, become its class distributions in one outer
    product.  The coherent sector's branch terms are measured for every
    setting in one stack, as outer products of per-qubit factors, and
    marginalized over the memories that returned no photon.  Per setting
    only the zero-probability classes are dropped.  Class order: incoherent
    branches, then the coherent sector by retrieval subset.
    """
    model = herald_model(cfg) if model is None else model
    branch_terms = _station_branch_terms(cfg, model.terms)
    if not settings:
        return []
    live = model.coherent > 0.0
    units = np.arange(_N)
    ports, memories, feedforward = _stack_bases(settings)
    port_p, port_d = _port_outcomes(ports, model.dark)
    mem_p, mem_d = _single_click(nd.readout(model.terms, memories), model.dark)  # by kind
    loads, kinds = model.branch_port_load, model.branch_memory_kind
    prob = _times_clicks(model.branch_probability, port_p, loads)
    prob = _times_clicks(prob, mem_p, kinds)  # (S, B)
    # (S, B, 2N, 2): each class row's factors, by setting
    factors = np.concatenate([port_d[:, units, loads], mem_d[:, units, kinds]], axis=2)
    subsets = _coherent_subset_dists(branch_terms, ports, memories, feedforward)
    tables = []
    for setting, p, f, sub in zip(settings, prob, factors, subsets):
        keep = p > 0.0
        probs = np.concatenate([p[keep], model.coherent[live]])
        if probs.size == 0:
            raise ValueError(
                f"no six-fold coincidences possible for setting {setting.setting_id}"
            )
        # the kept rows' factors as one contiguous (2N, 2, K) stack: a
        # strided stack multiplies out about three times slower
        kept = np.ascontiguousarray(f[keep].transpose(1, 2, 0))
        dists = np.concatenate([_outer_product(kept).T, sub[live]])
        tables.append(EventTable(setting.setting_id, probs, dists, float(model.coherent[-1])))
    return tables


def conditional_success_estimate(model: HeraldModel) -> float:
    """Chance that a station herald left all three memories truly entangled.

    Conditioned on exactly one click per station port under D/A analysis,
    this is the probability that every node holds a single excitation and
    the photons interfered one-per-port, excluding double-excitation and
    dark-count false heralds.  Computed in closed form from the herald
    model of ``herald_model``; no sampling error.  Raises ValueError when
    no station herald is possible at all.
    """
    port_p, _ = _port_outcomes(_HERALD_PORT_STACK, model.dark)
    false = _times_clicks(model.branch_probability, port_p, model.branch_port_load)
    # accumulate left to right, branch by branch after the coherent herald
    denom = np.add.accumulate(np.concatenate([[model.herald], false]))[-1]
    if denom <= 0.0:
        raise ValueError("no station heralds possible for the success estimate")
    return float(model.herald / denom)


# trials per array pass of raw_trial_counts; the chunking fixes its draw order
_RAW_CHUNK = 100_000


def raw_trial_counts(
    cfg: ExperimentConfig,
    setting: SettingSpec,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Brute-force unconditional trials; returns the six-fold pattern counts.

    Every stochastic element is drawn per trial: write outcomes, photon
    polarizations, Born routing of each detector, dark counts on every
    channel, and retrieval successes.  Only the coherent-sector outcome
    distributions are shared with the table builder (they are the quantum
    content); all combinatorics and click logic run independently, which is
    what makes this a meaningful cross-check of `build_event_tables`.
    Single-threaded; intended for validation, not production sampling.
    """
    model = herald_model(cfg)
    terms, dark = model.terms, model.dark
    branch_terms = _station_branch_terms(cfg, terms)
    write_p = terms.write_probabilities  # (node, outcome)
    # chance a collapsed clean memory reads out as channel 1, by node and pol
    mem_p1 = nd.born2(
        np.array(setting.memory_bases)[:, None], np.stack(terms.spins, axis=-3)
    )[..., 1]
    port_p1 = np.abs(np.array(setting.port_bases)[:, :, 1]) ** 2  # (port, pol)
    coherent_dists = _coherent_subset_dists(branch_terms, *_stack_bases([setting]))[0]

    counts = np.zeros(_N_OUTCOMES, dtype=np.int64)
    remaining = n_trials
    while remaining > 0:
        n = min(_RAW_CHUNK, remaining)
        remaining -= n
        u = rng.random((n, _N))
        writes = (u > write_p[None, :, 0]).astype(np.int8) + (
            u > write_p[None, :, 0] + write_p[None, :, 1]
        ).astype(np.int8)
        # 0 vacuum, 1 single, 2 double
        has_photon = writes != nd.VACUUM
        pols = np.where(
            writes == nd.SINGLE,
            (rng.random((n, _N)) < terms.born[None, :, 1]).astype(np.int8),
            (rng.random((n, _N)) < 0.5).astype(np.int8),
        )
        all_single = (writes == nd.SINGLE).all(axis=1)
        # pairs are independent across nodes, so the all-H/all-V chance of
        # these marginal draws equals the coherent-sector weight exactly
        coherent = all_single & (pols == pols[:, :1]).all(axis=1)

        photon_hits = np.zeros((n, _N, 2), dtype=bool)
        rows = np.arange(n)
        for k in range(_N):
            port = np.where(pols[:, k] == 0, op.ROUTE[(k, "H")], op.ROUTE[(k, "V")])
            ch = (rng.random(n) < port_p1[port, pols[:, k]]).astype(np.int8)
            mask = has_photon[:, k] & ~coherent
            photon_hits[rows[mask], port[mask], ch[mask]] = True

        mem_hits = np.zeros((n, _N, 2), dtype=bool)
        real_mask = np.zeros((n, _N), dtype=bool)
        for k in range(_N):
            r = rng.random(n)
            real = np.where(writes[:, k] == nd.DOUBLE, r < terms.eta_dbl[k], r < terms.eta[k])
            real &= writes[:, k] != nd.VACUUM
            real_mask[:, k] = real
            ch = np.where(
                writes[:, k] == nd.DOUBLE,
                rng.random(n) < 0.5,
                rng.random(n) < mem_p1[k, pols[:, k]],
            ).astype(np.int8)
            mask = real & ~coherent
            mem_hits[rows[mask], k, ch[mask]] = True

        # coherent trials: port channels and real-memory outcomes are drawn
        # jointly from the station state, grouped by which retrievals fired;
        # a memory that returned no photon leaves its analyzer to dark counts
        retrieved = real_mask @ (1 << np.arange(_N))
        for mask in np.unique(retrieved[coherent]):
            sel = np.nonzero(coherent & (retrieved == mask))[0]
            dist = coherent_dists[mask]
            draws = rng.choice(_N_OUTCOMES, size=sel.size, p=dist / dist.sum())
            for k in range(_N):
                photon_hits[sel, k, (draws >> (2 * _N - 1 - k)) & 1] = True
                if mask >> k & 1:
                    mem_hits[sel, k, (draws >> (_N - 1 - k)) & 1] = True

        clicks_w = photon_hits | (rng.random((n, _N, 2)) < dark)
        clicks_r = mem_hits | (rng.random((n, _N, 2)) < dark)
        ok = (clicks_w.sum(axis=2) == 1).all(axis=1)
        ok &= (clicks_r.sum(axis=2) == 1).all(axis=1)
        if not ok.any():
            continue
        # channel-1 bits of the ports then the memories, big-endian
        bits = np.concatenate([clicks_w[ok], clicks_r[ok]], axis=1)[:, :, 1]
        pattern = bits @ (1 << np.arange(2 * _N - 1, -1, -1))
        counts += np.bincount(pattern, minlength=_N_OUTCOMES)
    return counts
