"""Station optics: routing oracle, heralded GHZ state, swap analysis."""

import itertools
import math

import numpy as np
import pytest

from memnet_sim import node, optics
from memnet_sim import quantum as q

GHZ6_REGISTER = optics.STATION_PORTS + optics.MEMORY_SPINS
GHZ6_TARGET = q.ghz_state(GHZ6_REGISTER, (0, 0, 0, 0, 0, 1), (1, 1, 1, 1, 1, 0))
GHZ3_TARGET = q.ghz_state(optics.MEMORY_SPINS, (0, 0, 1), (1, 1, 0))


def mapped_pairs(**node_kwargs):
    pairs = []
    for nid in optics.NODE_IDS:
        cfg = node.NodeConfig(node_id=nid, **node_kwargs)
        pair = node.entangled_pair_state(cfg)
        pairs.append(
            q.apply_unitary(pair, optics.polarization_map(nid), [q.photon(nid)])
        )
    return pairs


def random_pure_pairs(rng):
    coeffs, pairs = [], []
    for nid in optics.NODE_IDS:
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c /= np.linalg.norm(c)
        amps = np.array(
            [c[p, s] for p in range(2) for s in range(2)], dtype=complex
        )
        pairs.append(
            q.DensityMatrix((q.photon(nid), q.spin(nid)), np.outer(amps, amps.conj()))
        )
        coeffs.append(c)
    return coeffs, pairs


def herald_memories(rho6, pattern):
    """Memory state heralded by a D/A port pattern (bit 1 = A), feed-forward
    applied: project the ports onto the pattern's kets, then flip spin I's
    phase when the pattern holds an odd number of A outcomes."""
    port_ket = np.array([1.0 + 0j])
    for b in pattern:
        port_ket = np.kron(port_ket, q.BASIS_DA[:, b])
    block = np.einsum(
        "a,asbt,b->st", port_ket.conj(), rho6.matrix.reshape(8, 8, 8, 8), port_ket
    )
    memories = q.DensityMatrix(optics.MEMORY_SPINS, block / np.trace(block).real)
    if sum(pattern) % 2:
        memories = q.apply_unitary(memories, q.PAULI_Z, [q.spin("I")])
    return memories


def station_enumeration_oracle(coeffs):
    """Walk every routed term of the product state and keep one-per-port."""
    amp6 = np.zeros(64, dtype=complex)
    total = 0.0
    for pols in itertools.product(range(2), repeat=3):
        ports = [optics.ROUTE[(k, "HV"[p])] for k, p in enumerate(pols)]
        for spins in itertools.product(range(2), repeat=3):
            amp = math.prod(coeffs[k][pols[k], spins[k]] for k in range(3))
            total += abs(amp) ** 2
            if sorted(ports) == [0, 1, 2]:
                pol_at_port = [0, 0, 0]
                for k, p in enumerate(pols):
                    pol_at_port[ports[k]] = p
                amp6[q.bits_to_index(tuple(pol_at_port) + spins)] += amp
    success = float(np.sum(np.abs(amp6) ** 2))
    return np.outer(amp6, amp6.conj()) / success, success, total


class TestPolarizationMap:
    def test_sigma_plus_targets(self):
        np.testing.assert_allclose(
            optics.polarization_map("I") @ q.KET_R, q.KET_H, atol=1e-12
        )
        np.testing.assert_allclose(
            optics.polarization_map("II") @ q.KET_R, q.KET_H, atol=1e-12
        )
        np.testing.assert_allclose(
            optics.polarization_map("III") @ q.KET_R, q.KET_V, atol=1e-12
        )

    def test_unitary(self):
        for nid in optics.NODE_IDS:
            m = optics.polarization_map(nid)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            optics.polarization_map("IV")


class TestStationRouting:
    def test_each_port_takes_one_h_and_one_v(self):
        # photons sharing a port always carry opposite polarizations, the
        # premise of detection.bunched_hits
        for port in range(3):
            pols = sorted(pol for (_, pol), p in optics.ROUTE.items() if p == port)
            assert pols == ["H", "V"]


class TestConnectThree:
    def test_ideal_pairs_give_ghz6(self):
        rho6, success = optics.connect_three(mapped_pairs())
        assert success == pytest.approx(0.25, abs=1e-12)
        assert q.pure_state_fidelity(GHZ6_TARGET, rho6) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_enumeration_oracle_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            coeffs, pairs = random_pure_pairs(rng)
            want_rho, want_success, total = station_enumeration_oracle(coeffs)
            rho6, success = optics.connect_three(pairs)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert success == pytest.approx(want_success, abs=1e-12)
            np.testing.assert_allclose(rho6.matrix, want_rho, atol=1e-10)

    def test_success_plus_discard_is_one(self):
        rng = np.random.default_rng(123)
        coeffs, _ = random_pure_pairs(rng)
        _, success, total = station_enumeration_oracle(coeffs)
        assert 0.0 <= success <= 1.0
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(5)
        coeffs_a, pairs_a = random_pure_pairs(rng)
        coeffs_b, pairs_b = random_pure_pairs(rng)
        mixed_first = q.DensityMatrix(
            pairs_a[0].register,
            0.6 * pairs_a[0].matrix + 0.4 * pairs_b[0].matrix,
        )
        rho_mix, s_mix = optics.connect_three([mixed_first, pairs_a[1], pairs_a[2]])
        rho_a, s_a = optics.connect_three(pairs_a)
        rho_b, s_b = optics.connect_three([pairs_b[0], pairs_a[1], pairs_a[2]])
        unnorm = 0.6 * s_a * rho_a.matrix + 0.4 * s_b * rho_b.matrix
        assert s_mix == pytest.approx(0.6 * s_a + 0.4 * s_b, abs=1e-12)
        np.testing.assert_allclose(rho_mix.matrix * s_mix, unnorm, atol=1e-12)

    def test_depolarized_pairs_put_weight_off_branch(self):
        rho6, _ = optics.connect_three(mapped_pairs(depol_weight=0.099))
        pops = np.real(np.diag(rho6.matrix))
        branch0 = q.bits_to_index((0, 0, 0, 0, 0, 1))
        branch1 = q.bits_to_index((1, 1, 1, 1, 1, 0))
        assert pops[branch0] + pops[branch1] > 0.75
        off = pops.sum() - pops[branch0] - pops[branch1]
        assert off > 0.0

    def test_extra_coherence_scales_fidelity(self):
        rho6, _ = optics.connect_three(mapped_pairs(), extra_coherence=0.9)
        f = q.pure_state_fidelity(GHZ6_TARGET, rho6)
        assert f == pytest.approx(0.5 * (1 + 0.9), abs=1e-12)

    def test_envelope_beat_reduces_coherence(self):
        sigma, dw = 0.3, 1.7
        env = optics.Envelope.gaussian(0.0, sigma, n=2048, span_widths=6.0)
        rho6, _ = optics.connect_three(
            mapped_pairs(),
            envelopes={"I": env, "II": env, "III": env},
            delta_omega_rad_per_us=dw,
        )
        f = q.pure_state_fidelity(GHZ6_TARGET, rho6)
        assert f == pytest.approx(0.5 * (1 + math.exp(-(dw * sigma) ** 2 / 2)), abs=1e-4)

    def test_distinct_envelopes_use_all_three_overlaps(self):
        e1 = optics.Envelope.gaussian(0.0, 0.2, n=1024, span_widths=6.0)
        e3 = optics.Envelope.gaussian(0.15, 0.2, n=1024, span_widths=6.0)
        envs = {"I": e1, "II": e1, "III": e3}
        dw = 0.9
        rho6, _ = optics.connect_three(
            mapped_pairs(), envelopes=envs, delta_omega_rad_per_us=dw
        )
        xi = (
            e1.overlap(e1, dw) * e1.overlap(e3) * e3.overlap(e1)
        )
        f = q.pure_state_fidelity(GHZ6_TARGET, rho6)
        assert f == pytest.approx(0.5 * (1 + xi.real), abs=1e-12)

    def test_wrong_pair_count(self):
        with pytest.raises(ValueError, match="three pairs"):
            optics.connect_three(mapped_pairs()[:2])

    def test_impossible_post_selection(self):
        pairs = []
        for nid, pol in zip(optics.NODE_IDS, (q.KET_H, q.KET_V, q.KET_H)):
            amps = np.kron(pol, q.KET_DOWN)
            pairs.append(
                q.DensityMatrix((q.photon(nid), q.spin(nid)), np.outer(amps, amps.conj()))
            )
        with pytest.raises(ValueError, match="zero probability"):
            optics.connect_three(pairs)


class TestProjectAndFeedforward:
    def test_pattern_probabilities_uniform_on_ideal_input(self):
        rho6, _ = optics.connect_three(mapped_pairs())
        probs = q.measurement_probabilities(rho6, q.BASIS_DA, list(optics.STATION_PORTS))
        np.testing.assert_allclose(probs, np.full(8, 0.125), atol=1e-12)

    @pytest.mark.parametrize("pattern", [q.index_to_bits(i, 3) for i in range(8)])
    def test_every_pattern_yields_ghz3_plus(self, pattern):
        rho6, _ = optics.connect_three(mapped_pairs())
        memories = herald_memories(rho6, pattern)
        assert q.pure_state_fidelity(GHZ3_TARGET, memories) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_odd_patterns_precorrection_minus_branch(self):
        rho6, _ = optics.connect_three(mapped_pairs())
        minus = q.ghz_state(optics.MEMORY_SPINS, (0, 0, 1), (1, 1, 0), phase=-1)
        memories = herald_memories(rho6, (1, 1, 1))
        undone = q.apply_unitary(memories, q.PAULI_Z, [q.spin("I")])
        assert q.pure_state_fidelity(minus, undone) == pytest.approx(1.0, abs=1e-12)


class TestEnvelope:
    def test_normalization(self):
        for env in (
            optics.Envelope.gaussian(1.0, 0.3),
            optics.Envelope.square(0.0, 2.0),
            optics.Envelope.exponential_decay(0.5, 0.8),
        ):
            density = np.abs(env.values) ** 2
            assert np.trapezoid(density, env.times_us) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_gaussian_self_overlap_characteristic_function(self):
        sigma = 0.25
        env = optics.Envelope.gaussian(0.0, sigma, n=4096, span_widths=8.0)
        for dw in (0.0, 0.7, 2.1):
            got = env.overlap(env, dw)
            assert got == pytest.approx(
                math.exp(-(dw * sigma) ** 2 / 2), abs=1e-6
            )

    def test_displaced_gaussian_overlap(self):
        sigma, shift = 0.3, 0.4
        e1 = optics.Envelope.gaussian(0.0, sigma, n=4096, span_widths=8.0)
        e2 = optics.Envelope.gaussian(shift, sigma, n=4096, span_widths=8.0)
        got = e1.overlap(e2)
        assert got == pytest.approx(math.exp(-(shift**2) / (8 * sigma**2)), abs=1e-6)

    def test_values_outside_grid_are_zero(self):
        env = optics.Envelope.square(0.0, 1.0)
        assert env.values_at(-5.0) == 0.0
        assert env.values_at(7.0) == 0.0

    def test_csv_round_trip(self, tmp_path):
        env = optics.Envelope.gaussian(0.3, 0.2, n=64)
        path = tmp_path / "env.csv"
        env.to_csv(path)
        back = optics.Envelope.from_csv(path)
        assert back.start_us == pytest.approx(env.start_us)
        assert back.step_us == pytest.approx(env.step_us)
        np.testing.assert_allclose(back.values, env.values, atol=1e-9)
        assert path.read_text().splitlines()[0] == "time_us,re,im"

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n0,1,0\n1,1,0\n")
        with pytest.raises(ValueError, match="header"):
            optics.Envelope.from_csv(path)

    def test_zero_envelope_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            optics.Envelope(0.0, 0.1, np.zeros(8))


class TestAveragedSwapFidelity:
    def test_flip_is_unity_and_detuning_invariant(self):
        f = optics.Envelope.gaussian(0.0, 0.05)
        g = optics.Envelope.gaussian(0.0, 0.05)
        vals = [
            optics.averaged_swap_fidelity(True, f, g, dw)
            for dw in (0.0, 0.5, 2 * math.pi / 5.28, 3.0)
        ]
        np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    def test_no_flip_gaussian_closed_form(self):
        sigma = 0.05
        f = optics.Envelope.gaussian(0.0, sigma, n=2048, span_widths=6.0)
        for dw in (0.6, 2 * math.pi / 5.28, 2.5):
            got = optics.averaged_swap_fidelity(False, f, f, dw)
            want = 0.5 * (1 + math.exp(-((dw * sigma) ** 2)))
            assert got == pytest.approx(want, abs=1e-6)

    def test_published_operating_point(self):
        # 50 ns wide photons with the Zeeman splitting of the memory
        f = optics.Envelope.gaussian(0.0, 0.05, n=2048, span_widths=6.0)
        dw = 2 * math.pi / 5.28
        flip = optics.averaged_swap_fidelity(True, f, f, dw)
        no_flip = optics.averaged_swap_fidelity(False, f, f, dw)
        assert flip == pytest.approx(1.0, abs=1e-9)
        assert no_flip == pytest.approx(0.99823, abs=1e-4)
        assert no_flip < flip

    def test_flip_never_below_no_flip(self):
        for sigma in (0.02, 0.1, 0.4):
            for dw in (0.0, 0.8, 2.4):
                f = optics.Envelope.gaussian(0.0, sigma)
                diff = optics.averaged_swap_fidelity(
                    True, f, f, dw
                ) - optics.averaged_swap_fidelity(False, f, f, dw)
                assert diff >= -1e-12

    def test_zero_detuning_equal_envelopes_unity(self):
        env = optics.Envelope.exponential_decay(0.0, 0.3)
        for flip in (True, False):
            got = optics.averaged_swap_fidelity(flip, env, env, 0.0)
            assert got == pytest.approx(1.0, abs=1e-9)
