"""Node model: write statistics, pair state, storage evolution, retrieval."""

import math
import warnings

import numpy as np
import pytest

from memnet_sim import config, harness, node, optics
from memnet_sim import quantum as q

# converts a photon qubit from the H/V frame to the circular frame (R -> 0)
TO_CIRCULAR = np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2)


def equatorial_correlation(state, labels, thetas):
    """<M(theta_1) x M(theta_2) x ...> with M in each qubit's z frame."""
    obs = q.Observable(
        tuple(
            (lab, np.array([[0, np.exp(-1j * t)], [np.exp(1j * t), 0]]))
            for lab, t in zip(labels, thetas)
        )
    )
    return q.expectation(state, obs)


def pair_in_circular_frame(cfg, dt_us=0.0):
    state = node.storage_channel(cfg, node.entangled_pair_state(cfg), dt_us)
    return q.apply_unitary(state, TO_CIRCULAR, [q.photon(cfg.node_id)])


class TestConfigValidation:
    def test_defaults_ok(self):
        node.NodeConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_id": "IV"},
            {"p_w": 1.2},
            {"eta_r0": -0.1},
            {"tau_mem_us": 0.0},
            {"excitation_order": 3},
            {"depol_weight": 1.5},
            {"branch_weight_down": -0.2},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            node.NodeConfig(**kwargs)


class TestWriteProcess:
    def test_second_order_probabilities(self):
        cfg = node.NodeConfig(p_w=0.015)
        p = node.write_probabilities(cfg)
        assert p == pytest.approx((1 - 0.015 - 0.015**2, 0.015, 0.015**2))
        assert sum(p) == pytest.approx(1.0)

    def test_first_order_suppresses_doubles(self):
        cfg = node.NodeConfig(p_w=0.3, excitation_order=1)
        assert node.write_probabilities(cfg) == pytest.approx((0.7, 0.3, 0.0))


class TestPairState:
    def test_reduced_states_maximally_mixed(self):
        cfg = node.NodeConfig(branch_weight_down=0.5)
        state = node.entangled_pair_state(cfg)
        for keep, drop in [(q.photon("I"), q.spin("I")), (q.spin("I"), q.photon("I"))]:
            red = q.partial_trace(state, [drop])
            np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_branch_weights_in_circular_frame(self):
        cfg = node.NodeConfig(branch_weight_down=0.3)
        state = pair_in_circular_frame(cfg)
        probs = q.measurement_probabilities(
            state, [q.BASIS_Z, q.BASIS_Z], [q.photon("I"), q.spin("I")]
        )
        # R pairs with down and L with up, nothing else
        np.testing.assert_allclose(probs, [0.3, 0.0, 0.0, 0.7], atol=1e-12)

    def test_circular_populations_ignore_phase(self):
        cfg = node.NodeConfig(branch_weight_down=0.4, phi0=0.8)
        ref = q.measurement_probabilities(
            pair_in_circular_frame(cfg, 0.0),
            [q.BASIS_Z, q.BASIS_Z],
            [q.photon("I"), q.spin("I")],
        )
        for dt in (0.7, 1.9, 4.4):
            probs = q.measurement_probabilities(
                pair_in_circular_frame(cfg, dt),
                [q.BASIS_Z, q.BASIS_Z],
                [q.photon("I"), q.spin("I")],
            )
            np.testing.assert_allclose(probs, ref, atol=1e-12)

    def test_equatorial_correlation_tracks_zeeman_phase(self):
        cfg = node.NodeConfig(phi0=0.3)
        labels = [q.photon("I"), q.spin("I")]
        for dt in (0.0, 1.1, 2.64, 5.0):
            phi = node.zeeman_phase(cfg, dt)
            state = pair_in_circular_frame(cfg, dt)
            e = equatorial_correlation(state, labels, [phi, 0.0])
            assert e == pytest.approx(1.0, abs=1e-12)
            e_quad = equatorial_correlation(state, labels, [phi + np.pi / 2, 0.0])
            assert e_quad == pytest.approx(0.0, abs=1e-12)

    def test_period_restores_correlation(self):
        cfg = node.NodeConfig(zeeman_period_us=5.28)
        labels = [q.photon("I"), q.spin("I")]
        e0 = equatorial_correlation(pair_in_circular_frame(cfg, 0.0), labels, [0, 0])
        e_half = equatorial_correlation(
            pair_in_circular_frame(cfg, 2.64), labels, [0, 0]
        )
        e_full = equatorial_correlation(
            pair_in_circular_frame(cfg, 5.28), labels, [0, 0]
        )
        assert e_half == pytest.approx(-e0, abs=1e-12)
        assert e_full == pytest.approx(e0, abs=1e-12)

    def test_depolarization_caps_visibility(self):
        cfg = node.NodeConfig(depol_weight=0.2)
        state = pair_in_circular_frame(cfg)
        e = equatorial_correlation(state, [q.photon("I"), q.spin("I")], [0.0, 0.0])
        assert e == pytest.approx(0.8, abs=1e-12)

    def test_pure_when_no_depolarization(self):
        state = node.entangled_pair_state(node.NodeConfig())
        evals = np.linalg.eigvalsh(state.matrix)
        assert evals.max() == pytest.approx(1.0, abs=1e-12)


class TestStorageAndRetrieval:
    def test_efficiency_decay(self):
        cfg = node.NodeConfig(eta_r0=0.4, tau_mem_us=75.0)
        assert node.retrieval_efficiency(cfg, 0.0) == pytest.approx(0.4)
        assert node.retrieval_efficiency(cfg, 75.0) == pytest.approx(0.4 / math.e)
        with pytest.raises(ValueError):
            node.retrieval_efficiency(cfg, -1.0)

    @pytest.mark.parametrize("dt", [1e308, np.array([0.0, 1e308])])
    def test_overflowing_zeeman_phase_refused(self, dt):
        cfg = node.NodeConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="storage time 1e\\+308 us overflows"):
                node.node_terms(cfg, q.BASIS_RL, dt)
            with pytest.raises(ValueError, match="storage time 1e\\+308 us overflows"):
                node.zeeman_phase(cfg, dt)

    def test_infinite_lifetime(self):
        cfg = node.NodeConfig(eta_r0=0.25)
        assert node.retrieval_efficiency(cfg, 1e6) == pytest.approx(0.25)
        assert node.memory_coherence(cfg, 1e6) == pytest.approx(1.0)

    def test_storage_matches_aged_creation(self):
        # evolving a fresh pair must equal the pure pair created with the
        # precessed phase phi0 + 2 pi dt / T baked in
        cfg = node.NodeConfig(phi0=0.2, branch_weight_down=0.4)
        dt = 1.37
        evolved = node.storage_channel(cfg, node.entangled_pair_state(cfg), dt)
        down = np.sqrt(0.4) * np.kron(q.KET_R, q.KET_DOWN)
        up = np.sqrt(0.6) * np.kron(q.KET_L, q.KET_UP)
        ket = down + np.exp(1j * node.zeeman_phase(cfg, dt)) * up
        np.testing.assert_allclose(evolved.matrix, np.outer(ket, ket.conj()), atol=1e-12)

    def test_storage_dephasing(self):
        cfg = node.NodeConfig(tau_vis_us=169.2)
        dt = 41.0
        state = node.storage_channel(cfg, node.entangled_pair_state(cfg), dt)
        phi = node.zeeman_phase(cfg, dt)
        state = q.apply_unitary(state, TO_CIRCULAR, [q.photon("I")])
        e = equatorial_correlation(
            state, [q.photon("I"), q.spin("I")], [phi, 0.0]
        )
        assert e == pytest.approx(math.exp(-41.0 / 169.2), abs=1e-12)

    def test_read_photon_anticorrelated_circular(self):
        # write R goes with spin down, which reads out as L, and vice versa;
        # the harness analyzes the spin in that read-photon frame
        cfg = node.NodeConfig()
        state = pair_in_circular_frame(cfg)
        probs = q.measurement_probabilities(
            state, [q.BASIS_Z, harness._SPIN_RL], [q.photon("I"), q.spin("I")]
        )
        np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_half_period_storage_flips_phase(self):
        cfg = node.NodeConfig(zeeman_period_us=5.28)
        pair = node.entangled_pair_state(cfg)
        labels = [q.photon("I"), q.spin("I")]
        out0, out1 = (
            q.apply_unitary(node.storage_channel(cfg, pair, dt), TO_CIRCULAR, labels[:1])
            for dt in (0.0, 2.64)
        )
        e0 = equatorial_correlation(out0, labels, [0.0, 0.0])
        e1 = equatorial_correlation(out1, labels, [0.0, 0.0])
        assert e0 == pytest.approx(-e1, abs=1e-12)
        assert abs(e0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# node_terms against the two derivations it replaced


def random_node(rng, node_id="I"):
    return node.NodeConfig(
        node_id,
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


def random_basis(rng):
    """Haar-like random 2x2 unitary: QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def condition_then_age(cfg, write_basis, dt_us):
    """Reference: condition the fresh pair's spin on the write outcome in
    ``write_basis``, then age each conditional spin on its own."""
    rho = node.entangled_pair_state(cfg).matrix.reshape(2, 2, 2, 2)
    rot = np.einsum("ai,asbt,bj->isjt", write_basis.conj(), rho, write_basis)
    born, spins = [], []
    for i in (0, 1):
        block = rot[i, :, i, :]
        prob = float(np.real(np.trace(block)))
        state = block / prob if prob > 1e-300 else np.eye(2, dtype=complex) / 2.0
        spin = q.DensityMatrix((q.spin(cfg.node_id),), state)
        born.append(prob)
        spins.append(node.storage_channel(cfg, spin, dt_us).matrix)
    return np.array(born), spins


def map_then_age(cfg, write_basis, dt_us):
    """Reference: map the photon so the write outcomes become H/V, slice the
    H and V blocks of the pair, then age each conditional spin."""
    pair = q.apply_unitary(
        node.entangled_pair_state(cfg), write_basis.conj().T, [q.photon(cfg.node_id)]
    )
    blocks = pair.matrix.reshape(2, 2, 2, 2)
    p_pol = np.array([np.real(np.trace(blocks[p, :, p, :])) for p in (0, 1)])
    spins = []
    for p in (0, 1):
        spin = q.DensityMatrix((q.spin(cfg.node_id),), blocks[p, :, p, :] / p_pol[p])
        spins.append(node.storage_channel(cfg, spin, dt_us).matrix)
    return p_pol, spins


class TestNodeTerms:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("reference", [condition_then_age, map_then_age])
    def test_matches_reference_derivation(self, seed, reference):
        rng = np.random.default_rng(seed)
        cfg = random_node(rng, ("I", "II", "III")[seed % 3])
        basis = random_basis(rng)
        dt = rng.uniform(0.1, 50.0)
        terms = node.node_terms(cfg, basis, dt)
        born, spins = reference(cfg, basis, dt)
        np.testing.assert_allclose(terms.born, born, rtol=0, atol=1e-15)
        for got, want in zip(terms.spins, spins):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

        def reference_pair(dt_us):
            aged = node.storage_channel(cfg, node.entangled_pair_state(cfg), dt_us)
            return np.einsum(
                "ai,asbt,bj->isjt", basis.conj(), aged.matrix.reshape(2, 2, 2, 2), basis
            )

        # M(dt) and the register channel round differently once dt > 0
        np.testing.assert_allclose(terms.pair, reference_pair(dt), rtol=0, atol=1e-15)
        fresh = node.node_terms(cfg, basis, 0.0)
        np.testing.assert_array_equal(fresh.pair, reference_pair(0.0))
        assert terms.write_probabilities == node.write_probabilities(cfg)
        assert terms.eta == node.retrieval_efficiency(cfg, dt)
        assert terms.eta_dbl == pytest.approx(1.0 - (1.0 - terms.eta) ** 2, abs=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_delay_is_a_one_entry_array(self, seed):
        rng = np.random.default_rng(300 + seed)
        cfg = random_node(rng)
        basis = random_basis(rng)
        dt = rng.uniform(0.0, 50.0)
        scalar = node.node_terms(cfg, basis, dt)
        row = node.node_terms(cfg, basis, np.array([dt]))
        np.testing.assert_array_equal(scalar.pair, row.pair[0])
        np.testing.assert_array_equal(scalar.born, row.born[0])
        for got, want in zip(scalar.spins, row.spins):
            np.testing.assert_array_equal(got, want[0])
        assert scalar.write_probabilities == row.write_probabilities
        assert scalar.eta == row.eta[0] and scalar.eta_dbl == row.eta_dbl[0]

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_impossible_outcome_leaves_spin_maximally_mixed(self, weight):
        cfg = node.NodeConfig(branch_weight_down=weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terms = node.node_terms(cfg, q.BASIS_RL, 2.0)
        never = int(np.argmin(terms.born))
        assert terms.born[never] == 0.0
        np.testing.assert_array_equal(terms.spins[never], np.eye(2) / 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_station_commutes_with_storage(self, seed):
        # storage acts on the spins alone, so aging each pair before the
        # station equals aging the six-qubit state after it
        rng = np.random.default_rng(100 + seed)
        cfgs = [random_node(rng, nid) for nid in optics.NODE_IDS]
        dt = rng.uniform(0.1, 50.0)
        xi = rng.uniform(0.5, 1.0)

        def mapped(cfg, pair):
            return q.apply_unitary(
                pair, optics.polarization_map(cfg.node_id), [q.photon(cfg.node_id)]
            )

        fresh = [node.entangled_pair_state(c) for c in cfgs]
        before, p_before = optics.connect_three(
            [mapped(c, node.storage_channel(c, p, dt)) for c, p in zip(cfgs, fresh)],
            extra_coherence=xi,
        )
        after, p_after = optics.connect_three(
            [mapped(c, p) for c, p in zip(cfgs, fresh)], extra_coherence=xi
        )
        for c in cfgs:
            after = node.storage_channel(c, after, dt)
        np.testing.assert_allclose(before.matrix, after.matrix, rtol=0, atol=1e-12)
        assert p_before == pytest.approx(p_after, rel=1e-12)


def a_eff_acceptance(cfg):
    """Reference: the routing acceptance from each node's effective down-branch
    weight, with nodes I and II mapping the down-branch photon to H and node
    III to V."""
    ph, pv = [], []
    for idx, n in enumerate(cfg.nodes):
        a_eff = (1.0 - n.depol_weight) * n.branch_weight_down + n.depol_weight * 0.5
        p_h = a_eff if idx < 2 else 1.0 - a_eff
        ph.append(p_h)
        pv.append(1.0 - p_h)
    return float(np.prod(ph) + np.prod(pv))


@pytest.mark.parametrize("seed", range(10))
def test_pattern_acceptance_matches_branch_weights(seed):
    # a few ulps apart: the two products round differently
    rng = np.random.default_rng(200 + seed)
    cfg = config.preset("paper").with_overrides(
        nodes=tuple(random_node(rng, nid) for nid in optics.NODE_IDS),
        read_delay_us=rng.uniform(0.0, 10.0),
    )
    got = harness.rate_arithmetic(cfg)["pattern_acceptance"]
    assert got == pytest.approx(a_eff_acceptance(cfg), rel=1e-14, abs=0)


def test_paper_pattern_acceptance_within_1e15():
    cfg = config.preset("paper")
    got = harness.rate_arithmetic(cfg)["pattern_acceptance"]
    assert got == pytest.approx(a_eff_acceptance(cfg), rel=1e-15, abs=0)
