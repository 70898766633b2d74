"""Node model: write statistics, pair state, storage evolution, retrieval."""

import functools
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from memnet_sim import config, harness, node, optics
from memnet_sim import quantum as q

# converts a photon qubit from the H/V frame to the circular frame (R -> 0)
TO_CIRCULAR = np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2)


def equatorial_correlation(state, labels, thetas):
    """<M(theta_1) x M(theta_2) x ...> with M in each qubit's z frame: the
    trace against the np.kron of the factors in register order."""
    factors = {
        lab: np.array([[0, np.exp(-1j * t)], [np.exp(1j * t), 0]])
        for lab, t in zip(labels, thetas)
    }
    op = functools.reduce(np.kron, [factors.get(lab, np.eye(2)) for lab in state.register])
    value = np.trace(state.matrix @ op)
    assert abs(value.imag) < 1e-12
    return value.real


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
        rho = state.matrix.reshape(2, 2, 2, 2)  # (photon, spin, photon, spin)
        for reduced in (np.einsum("asbs->ab", rho), np.einsum("sasb->ab", rho)):
            np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

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

    def test_tiny_lifetime_decays_to_zero_without_warning(self):
        cfg = node.NodeConfig(eta_r0=0.4, tau_mem_us=1e-320, tau_vis_us=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(node.memory_coherence(cfg, np.array([0.0, 1.0])), [1, 0])
            assert node.retrieval_efficiency(cfg, 1.0) == 0.0

    def test_infinite_lifetime(self):
        cfg = node.NodeConfig(eta_r0=0.25)
        assert node.retrieval_efficiency(cfg, 1e6) == pytest.approx(0.25)
        assert node.memory_coherence(cfg, 1e6) == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, allow_infinity=False))
    @example(0.0)
    @example(sys.float_info.max)
    def test_infinite_coherence_time_keeps_coherence_exactly(self, dt):
        # the ideal preset's Raman and lifetime fits rely on this identity
        cfg = node.NodeConfig(tau_vis_us=math.inf)
        assert node.memory_coherence(cfg, dt) == 1.0
        np.testing.assert_array_equal(node.memory_coherence(cfg, [0.0, dt]), 1.0)

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
        np.testing.assert_array_equal(terms.write_probabilities, node.write_probabilities(cfg))
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
        np.testing.assert_array_equal(scalar.write_probabilities, row.write_probabilities)
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


# three nodes that differ in every field; node I takes the special cases: no
# double excitations, a pure pair and lifetimes that never decay
DISTINCT_NODES = (
    node.NodeConfig(
        "I", p_w=0.02, eta_r0=0.35, tau_mem_us=math.inf, tau_vis_us=math.inf,
        zeeman_period_us=5.28, phi0=0.0, excitation_order=1, depol_weight=0.0,
        branch_weight_down=0.5,
    ),
    node.NodeConfig(
        "II", p_w=0.13, eta_r0=0.62, tau_mem_us=41.0, tau_vis_us=88.5,
        zeeman_period_us=4.1, phi0=1.3, excitation_order=2, depol_weight=0.07,
        branch_weight_down=0.37,
    ),
    node.NodeConfig(
        "III", p_w=0.31, eta_r0=0.9, tau_mem_us=260.0, tau_vis_us=17.2,
        zeeman_period_us=7.7, phi0=-2.4, excitation_order=2, depol_weight=0.21,
        branch_weight_down=0.81,
    ),
)


class TestNodeAxis:
    """A node sequence's terms are its nodes' own calls, stacked."""

    PLATES = np.array([optics.polarization_map(n.node_id).conj().T for n in DISTINCT_NODES])

    @pytest.mark.parametrize("dt", [0.0, 7.3, np.array([0.0, 7.3, 40.0])])
    def test_each_node_slice_is_its_own_call(self, dt):
        bases = self.PLATES if np.ndim(dt) == 0 else self.PLATES[:, None]
        stacked = node.node_terms(DISTINCT_NODES, bases, dt)
        for k, cfg in enumerate(DISTINCT_NODES):
            one = node.node_terms(cfg, self.PLATES[k], dt)
            for name in ("pair", "born", "write_probabilities", "eta", "eta_dbl"):
                got, want = getattr(stacked, name)[k], getattr(one, name)
                assert np.array_equal(got, want), (name, cfg.node_id)
                assert np.shape(got) == np.shape(want), (name, cfg.node_id)
            for got, want in zip(stacked.spins, one.spins):
                assert np.array_equal(got[k], want), ("spins", cfg.node_id)

    def test_readout_of_the_stack_is_each_nodes_readout(self):
        stacked = node.node_terms(DISTINCT_NODES, self.PLATES, 7.3)
        # (S, N, 2, 2): two read settings, a basis per node
        reads = np.array([[q.BASIS_DA] * 3, [q.BASIS_RL, q.BASIS_DA, q.equatorial_basis(0.4)]])
        got = node.readout(stacked, reads)
        for k, cfg in enumerate(DISTINCT_NODES):
            want = node.readout(node.node_terms(cfg, self.PLATES[k], 7.3), reads[:, k])
            assert np.array_equal(got[:, k], want), cfg.node_id

    def test_overflow_names_the_node(self):
        first, second, third = DISTINCT_NODES
        nodes = (first, replace(second, zeeman_period_us=1e-300), third)
        for other in (first, third):
            node.node_terms(other, np.eye(2), 1e10)  # finite on its own
        with pytest.raises(ValueError, match="overflows the Zeeman phase of node II "):
            node.node_terms(nodes, self.PLATES, 1e10)


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
