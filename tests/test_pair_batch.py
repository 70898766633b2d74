"""Batched pair distributions against the per-delay scalar derivation.

The sweep scenarios build one ``(D, 16)`` distribution array per analyzer
basis.  The reference here derives every delay on its own, the way one
write-read trial is described: age the fresh pair with the Zeeman unitary
and the dephasing channel, condition the spin on the write outcome, then
sum the click outer products of each write branch.
"""

import dataclasses
import math

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim import detection as det
from memnet_sim import harness as h
from memnet_sim import node as nd
from memnet_sim import quantum as q

# the sample sizes of the pair_sweeps benchmark workload
PAIR_TOMOGRAPHY_TRIALS = 2_000_000
RAMAN_TRIALS = 200_000
LIFETIME_TRIALS = 2_000_000


def reference_terms(cfg, write_basis, dt):
    """Pair in the write basis, Born probabilities, conditional spins and
    retrieval of one delay."""
    target = q.spin(cfg.node_id)
    angle = 2.0 * math.pi * dt / cfg.zeeman_period_us
    pair = q.apply_unitary(
        nd.entangled_pair_state(cfg), np.diag([1.0, np.exp(1j * angle)]), [target]
    )
    coherence = math.exp(-dt / cfg.tau_vis_us)
    if coherence < 1.0:
        pair = q.dephase(pair, target, coherence)
    rho = pair.matrix.reshape(2, 2, 2, 2)
    rot = np.einsum("ai,asbt,bj->isjt", write_basis.conj(), rho, write_basis)
    blocks = [rot[i, :, i, :] for i in (0, 1)]
    born = np.array([np.real(np.trace(block)) for block in blocks])
    spins = [
        block / p if p > 1e-300 else np.eye(2, dtype=complex) / 2.0
        for block, p in zip(blocks, born)
    ]
    eta = cfg.eta_r0 * math.exp(-dt / cfg.tau_mem_us)
    return rot, born, spins, eta, 1.0 - (1.0 - eta) ** 2


def photon_hits(arrival, born):
    return np.array([[1.0 - arrival, arrival * born[1]], [arrival * born[0], 0.0]])


def reference_distribution(cfg, detector, write_basis, read_basis, dt):
    """The 16-cell click distribution of one write-read trial at delay ``dt``."""
    dark = detector.dark_count_prob
    _, born, spins, eta, eta_dbl = reference_terms(cfg, write_basis, dt)
    p_vac, p_sng, p_dbl = nd.write_probabilities(cfg)

    def clicks(hits):
        return det.analyzer_clicks(hits, dark)

    no_photon = clicks(det.NO_HITS)
    write_fires = [clicks(photon_hits(1.0, np.eye(2)[ch])) for ch in (0, 1)]
    cases = [(p_vac, no_photon, no_photon)]  # (weight, write joint, read joint)
    for ch, (prob, spin) in enumerate(zip(born, spins)):
        r_probs = np.real(np.diag(read_basis.conj().T @ spin @ read_basis))
        read = clicks(photon_hits(eta, np.clip(r_probs, 0.0, 1.0)))
        cases.append((p_sng * prob, write_fires[ch], read))
    if p_dbl > 0.0:
        read_dbl = clicks(photon_hits(eta_dbl, (0.5, 0.5)))
        for ch in (0, 1):
            cases.append((p_dbl * 0.5, write_fires[ch], read_dbl))
    dist = np.zeros((2, 2, 2, 2))
    for weight, jw, jr in cases:
        dist += weight * np.einsum("ab,cd->abcd", jw, jr)
    dist = dist.reshape(16)
    assert math.isclose(dist.sum(), 1.0, rel_tol=0.0, abs_tol=1e-9)
    return dist / dist.sum()


def random_unitary(rng):
    """Haar-like random 2x2 unitary: QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def random_node(rng, **fixed):
    kwargs = dict(
        p_w=rng.uniform(0.01, 0.45),
        eta_r0=rng.uniform(0.2, 1.0),
        tau_mem_us=rng.uniform(20.0, 500.0),
        tau_vis_us=rng.uniform(20.0, 500.0),
        zeeman_period_us=rng.uniform(3.0, 8.0),
        phi0=rng.uniform(0.0, 2 * math.pi),
        excitation_order=int(rng.integers(1, 3)),
        depol_weight=rng.uniform(0.0, 0.3),
        branch_weight_down=rng.uniform(0.05, 0.95),
    )
    return cf.NodeConfig("I", **{**kwargs, **fixed})


# delays with zero and repeated entries
DELAYS = np.array([0.0, 1.3, 1.3, 7.9, 42.0, 0.0, 150.0])


def cases():
    """(node, dark count probability, write basis, read basis or None for a
    random per-delay stack, delays) of each oracle case."""
    rng = np.random.default_rng(2024)
    out = []
    for preset in ("paper", "ideal"):
        cfg = cf.preset(preset)
        out.append((cfg.node("I"), cfg.detector.dark_count_prob, q.BASIS_RL, h._SPIN_RL, DELAYS))
        out.append((cfg.node("II"), cfg.detector.dark_count_prob, q.BASIS_Z, None, DELAYS))
    for k in range(8):
        fixed = {"excitation_order": 1 + k % 2}
        if k % 4 == 3:
            fixed.update(tau_vis_us=math.inf, tau_mem_us=math.inf)
        read = random_unitary(rng) if k % 2 else None
        delays = np.array([rng.uniform(0.0, 80.0)]) if k == 5 else DELAYS
        out.append(
            (random_node(rng, **fixed), rng.uniform(0.0, 0.01), random_unitary(rng), read, delays)
        )
    # one write outcome never occurs: its spin is the I/2 guard
    for weight in (0.0, 1.0):
        for order in (1, 2):
            fixed = dict(branch_weight_down=weight, depol_weight=0.0, excitation_order=order)
            out.append((random_node(rng, **fixed), 0.002, q.BASIS_RL, None, DELAYS))
    return out


CASES = cases()


@pytest.mark.parametrize("node_cfg, dark, write_basis, read_basis, delays", CASES)
def test_batched_rows_match_per_delay_reference(node_cfg, dark, write_basis, read_basis, delays):
    detector = cf.DetectorConfig(dark_count_prob=dark)
    if read_basis is None:
        rng = np.random.default_rng(len(delays))
        reads = np.array([random_unitary(rng) for _ in delays])
    else:
        reads = np.array([read_basis] * len(delays))
    batched = h._pair_trial_distribution(
        node_cfg, detector, write_basis, read_basis if read_basis is not None else reads, delays
    )
    assert batched.shape == (len(delays), 16)
    terms = nd.node_terms(node_cfg, write_basis, delays)
    for i, dt in enumerate(delays):
        want = reference_distribution(node_cfg, detector, write_basis, reads[i], float(dt))
        np.testing.assert_allclose(batched[i], want, rtol=0, atol=1e-15)
        pair, born, spins, eta, eta_dbl = reference_terms(node_cfg, write_basis, float(dt))
        np.testing.assert_allclose(terms.pair[i], pair, rtol=0, atol=1e-15)
        np.testing.assert_allclose(terms.born[i], born, rtol=0, atol=1e-15)
        for ch in (0, 1):
            np.testing.assert_allclose(terms.spins[ch][i], spins[ch], rtol=0, atol=1e-15)
        assert terms.eta[i] == pytest.approx(eta, rel=0, abs=1e-15)
        assert terms.eta_dbl[i] == pytest.approx(eta_dbl, rel=0, abs=1e-15)


def test_impossible_outcome_rows_hold_the_maximally_mixed_spin():
    cfg = cf.NodeConfig(branch_weight_down=1.0, depol_weight=0.0, tau_vis_us=50.0)
    terms = nd.node_terms(cfg, q.BASIS_RL, DELAYS)
    never = int(np.argmin(terms.born[0]))
    assert np.all(terms.born[:, never] == 0.0)
    mixed = np.broadcast_to(np.eye(2) / 2, (len(DELAYS), 2, 2))
    np.testing.assert_array_equal(terms.spins[never], mixed)


# ---------------------------------------------------------------------------
# every sampled table is the parent's draw: its stream, in its order, from
# the per-delay distribution


def philox_stream(seed, index):
    """Stream ``index`` of ``seed`` built on its own: the Philox key ``(seed, index)``."""
    return np.random.Generator(np.random.Philox(key=seed + (index << 64)))


def table_draw(seed, index, n, dist):
    """Coincidence fields of ``n`` trials drawn from stream ``index`` of ``seed``."""
    return det.pair_fields([philox_stream(seed, index).multinomial(n, dist)])[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_scenario_tables_are_the_per_delay_draws(seed):
    cfg = cf.preset("paper").with_overrides(seed=seed)
    node_cfg, detector = cfg.node("I"), cfg.detector

    tomo = cfg.with_overrides(scenario="pair_tomography", samples=PAIR_TOMOGRAPHY_TRIALS)
    # a stored pair at 7.3 us, off the 5.28 us Zeeman grid, has aged and
    # needs a superposition analyzer away from phi0
    for dt in (cfg.read_delay_us, 7.3):
        run = tomo.with_overrides(read_delay_us=dt)
        artifacts = h.run_scenario(run).artifacts
        theta = nd.zeeman_phase(node_cfg, dt)
        bases = [(q.BASIS_RL, h._SPIN_RL), (q.BASIS_Z, h._spin_super_basis(theta))]
        for index, (name, (wb, rb)) in enumerate(zip(("eigen", "super"), bases)):
            dist = reference_distribution(node_cfg, detector, wb, rb, dt)
            [table] = artifacts[f"counts/pair_{name}.csv"][1]
            draw = table_draw(seed, index, PAIR_TOMOGRAPHY_TRIALS, dist)
            np.testing.assert_array_equal(table, draw)

    raman = cfg.with_overrides(scenario="raman_delay_sweep", samples=RAMAN_TRIALS)
    report = h.run_scenario(raman)
    body, artifacts = report.body, report.artifacts
    tables = artifacts["counts/raman_delay_tables.csv"][1]
    read = h._spin_super_basis(node_cfg.phi0)
    assert len(tables) == len(body["points"]) == 33
    for index, (point, table) in enumerate(zip(body["points"], tables)):
        dist = reference_distribution(node_cfg, detector, q.BASIS_Z, read, point["delay_us"])
        np.testing.assert_array_equal(table, table_draw(seed, index, RAMAN_TRIALS, dist))

    lifetime = cfg.with_overrides(scenario="lifetime_sweep", samples=LIFETIME_TRIALS)
    # the default delays are whole Zeeman periods, where every delay has the
    # same superposition analyzer; the delays of the second grid are not
    for params, n_points in [({}, 23), ({"delays_us": [0.0, 1.7, 4.1, 9.9, 33.3]}, 5)]:
        run = lifetime.with_overrides(scenario_params=params)
        report = h.run_scenario(run)
        body, artifacts = report.body, report.artifacts
        check_lifetime_tables(seed, node_cfg, detector, body, artifacts, n_points)


def check_lifetime_tables(seed, node_cfg, detector, body, artifacts, n_points):
    eigen = artifacts["counts/lifetime_eigen.csv"][1]
    super_ = artifacts["counts/lifetime_super.csv"][1]
    assert len(eigen) == len(super_) == len(body["points"]) == n_points
    for k, point in enumerate(body["points"]):
        dt = point["delay_us"]
        dist_e = reference_distribution(node_cfg, detector, q.BASIS_RL, h._SPIN_RL, dt)
        read = h._spin_super_basis(nd.zeeman_phase(node_cfg, dt))
        dist_s = reference_distribution(node_cfg, detector, q.BASIS_Z, read, dt)
        # eigen and super tables interleave per delay
        np.testing.assert_array_equal(eigen[k], table_draw(seed, 2 * k, LIFETIME_TRIALS, dist_e))
        np.testing.assert_array_equal(super_[k], table_draw(seed, 2 * k + 1, LIFETIME_TRIALS, dist_s))


# ---------------------------------------------------------------------------
# the eigen and super tables of every delay come from one stacked call


@pytest.mark.parametrize(
    "preset, read_delay_us", [("paper", 0.0), ("ideal", 0.0), ("paper", 7.3)]
)
@pytest.mark.parametrize(
    "delays",
    [None, [0.0, 5.28, 10.56, 116.16], [0.0, 1.7, 4.1, 9.9, 33.3]],
    ids=["read-delay", "on-zeeman-grid", "off-zeeman-grid"],
)
def test_stacked_eigen_super_is_the_two_single_basis_distributions(preset, read_delay_us, delays):
    cfg = cf.preset(preset).with_overrides(read_delay_us=read_delay_us)
    node_cfg, detector = cfg.node("I"), cfg.detector
    delays = np.array([read_delay_us] if delays is None else delays, dtype=float)
    stacked = h._eigen_super(node_cfg, detector, delays)
    eigen = h._pair_trial_distribution(node_cfg, detector, q.BASIS_RL, h._SPIN_RL, delays)
    read = h._spin_super_basis(nd.zeeman_phase(node_cfg, delays))
    super_ = h._pair_trial_distribution(node_cfg, detector, q.BASIS_Z, read, delays)
    assert stacked.shape == (2 * len(delays), 16)
    assert np.array_equal(stacked[0::2], eigen)
    assert np.array_equal(stacked[1::2], super_)


# ---------------------------------------------------------------------------
# guards of the array path


@pytest.mark.parametrize("bad", [-1e-9, math.nan])
def test_negative_or_nan_delay_in_an_array_is_refused(bad):
    cfg = cf.preset("paper").node("I")
    delays = np.array([0.0, 5.0, bad])
    with pytest.raises(ValueError, match="non-negative"):
        nd.node_terms(cfg, q.BASIS_RL, delays)
    with pytest.raises(ValueError, match="non-negative"):
        nd.retrieval_efficiency(cfg, delays)
    with pytest.raises(ValueError, match="non-negative"):
        nd.memory_coherence(cfg, delays)


def test_unnormalized_row_is_named(monkeypatch):
    cfg = cf.preset("paper")
    node_terms = nd.node_terms

    def skewed(*args):
        terms = node_terms(*args)
        born = terms.born.copy()
        born[2] *= 1.5
        return dataclasses.replace(terms, born=born)

    monkeypatch.setattr(nd, "node_terms", skewed)
    with pytest.raises(AssertionError, match="row 2 sums to"):
        h._pair_trial_distribution(
            cfg.node("I"), cfg.detector, q.BASIS_RL, h._SPIN_RL, np.arange(4.0)
        )


def test_aged_stack_is_validated(monkeypatch):
    cfg = cf.preset("paper").node("I")
    storage = nd._storage

    def leaky(cfg, dt_us):
        phase, coherence = storage(cfg, dt_us)
        return phase, coherence * np.where(np.arange(len(coherence)) == 1, 3.0, 1.0)

    monkeypatch.setattr(nd, "_storage", leaky)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        nd.node_terms(cfg, q.BASIS_RL, np.array([0.0, 20.0, 40.0]))
