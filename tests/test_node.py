"""Node model: write statistics, pair state, storage evolution, retrieval."""

import math

import numpy as np
import pytest

from memnet_sim import node
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
    state = node.entangled_pair_state(cfg, dt_us)
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

    def test_with_node_id(self):
        cfg = node.NodeConfig(p_w=0.02).with_node_id("III")
        assert cfg.node_id == "III" and cfg.p_w == 0.02


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

    def test_infinite_lifetime(self):
        cfg = node.NodeConfig(eta_r0=0.25)
        assert node.retrieval_efficiency(cfg, 1e6) == pytest.approx(0.25)
        assert node.memory_coherence(cfg, 1e6) == pytest.approx(1.0)

    def test_storage_matches_aged_creation(self):
        # evolving a fresh pair must equal creating it with the phase baked in
        cfg = node.NodeConfig(phi0=0.2)
        dt = 1.37
        evolved = node.storage_channel(cfg, node.entangled_pair_state(cfg), dt)
        baked = node.entangled_pair_state(cfg, dt)
        np.testing.assert_allclose(evolved.matrix, baked.matrix, atol=1e-12)

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

    def test_retrieve_success_and_register(self):
        cfg = node.NodeConfig(eta_r0=0.4, tau_mem_us=75.0)
        success, out = node.retrieve(cfg, node.entangled_pair_state(cfg), 30.0)
        assert success == pytest.approx(0.4 * math.exp(-30 / 75))
        assert out.register == (q.photon("I", 0), q.photon("I", 1))

    def test_read_photon_anticorrelated_circular(self):
        cfg = node.NodeConfig()
        _, out = node.retrieve(cfg, node.entangled_pair_state(cfg), 0.0)
        for lab in out.register:
            out = q.apply_unitary(out, TO_CIRCULAR, [lab])
        probs = q.measurement_probabilities(out, [q.BASIS_Z] * 2, list(out.register))
        # write R goes with spin down which reads out as L, and vice versa
        np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_half_period_storage_flips_phase(self):
        cfg = node.NodeConfig(zeeman_period_us=5.28)
        pair = node.entangled_pair_state(cfg)
        _, out0 = node.retrieve(cfg, pair, 0.0)
        _, out1 = node.retrieve(cfg, pair, 2.64)
        labels = list(out0.register)
        for lab in labels:
            out0 = q.apply_unitary(out0, TO_CIRCULAR, [lab])
            out1 = q.apply_unitary(out1, TO_CIRCULAR, [lab])
        e0 = equatorial_correlation(out0, labels, [0.0, 0.0])
        e1 = equatorial_correlation(out1, labels, [0.0, 0.0])
        assert e0 == pytest.approx(-e1, abs=1e-12)
        assert abs(e0) == pytest.approx(1.0, abs=1e-12)
