"""Register algebra: conventions, unitaries, measurement, dephasing."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnet_sim import quantum as q


def random_density(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def pure(register, ket) -> q.DensityMatrix:
    ket = np.asarray(ket, dtype=complex)
    return q.DensityMatrix(tuple(register), np.outer(ket, ket.conj()))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


REG2 = (q.photon("I"), q.spin("I"))
REG3 = (q.spin("I"), q.spin("II"), q.spin("III"))


class TestLabelsAndStates:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            q.QubitLabel("frequency", "I", 0)
        with pytest.raises(ValueError):
            q.QubitLabel(q.PHOTON, "IV", 0)
        with pytest.raises(ValueError):
            q.QubitLabel(q.PHOTON, "I", -1)

    def test_duplicate_labels_rejected(self):
        lab = q.photon("I")
        with pytest.raises(ValueError, match="duplicate"):
            pure((lab, lab), [1, 0, 0, 0])

    def test_norm_validation(self):
        # an unnormalized ket gives a projector of trace 2
        with pytest.raises(ValueError, match="trace"):
            pure((q.photon("I"),), [1.0, 1.0])

    def test_density_validation(self):
        reg = (q.photon("I"),)
        with pytest.raises(ValueError, match="trace"):
            q.DensityMatrix(reg, np.diag([0.6, 0.6]))
        with pytest.raises(ValueError, match="Hermitian"):
            q.DensityMatrix(reg, np.array([[0.5, 0.5], [-0.5, 0.5]]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            q.DensityMatrix(reg, np.array([[1.2, 0], [0, -0.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refused_before_eigvalsh(self, bad):
        m = np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            q.check_density(m)

    def test_big_endian_indexing(self):
        # |0>|1> must sit at index 0b01 = 1
        rho = pure(REG2, np.kron(q.KET_H, q.KET_UP))
        np.testing.assert_allclose(np.diag(rho.matrix), [0, 1, 0, 0], atol=1e-12)
        # itertools.product counts big-endian: qubit 0 is the slowest bit
        patterns = itertools.product((0, 1), repeat=3)
        assert [q.bits_to_index(bits) for bits in patterns] == list(range(8))


class TestUnitaries:
    def test_circular_to_linear_map(self):
        # the node-I convention: R -> H, and H -> (H+V)/sqrt2
        u = np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)
        reg = (q.photon("I"),)
        out = q.apply_unitary(pure(reg, q.KET_R), u, [q.photon("I")])
        np.testing.assert_allclose(out.matrix, pure(reg, q.KET_H).matrix, atol=1e-12)
        s2 = q.apply_unitary(pure(reg, q.KET_H), u, [q.photon("I")])
        np.testing.assert_allclose(s2.matrix, pure(reg, q.KET_D).matrix, atol=1e-12)

    def test_non_unitary_rejected(self):
        s = pure((q.photon("I"),), q.KET_H)
        with pytest.raises(ValueError, match="unitary"):
            q.apply_unitary(s, np.array([[1, 0], [0, 0.5]]), [q.photon("I")])

    def test_target_order_matters(self):
        # CNOT-like map applied on (a, b) vs (b, a)
        reg = (q.spin("I"), q.spin("II"))
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        s = pure(reg, [0, 0, 1, 0])  # |10>
        out1 = q.apply_unitary(s, cnot, [reg[0], reg[1]])
        np.testing.assert_allclose(np.diag(out1.matrix), [0, 0, 0, 1], atol=1e-12)  # |11>
        out2 = q.apply_unitary(s, cnot, [reg[1], reg[0]])
        # control = qubit b = 0
        np.testing.assert_allclose(np.diag(out2.matrix), [0, 0, 1, 0], atol=1e-12)

    def test_unitary_on_density_matches_vector(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        u = random_unitary(4, rng)
        targets = [REG3[2], REG3[0]]
        # the vector route: u acts on (qubit 2, qubit 0), identity on qubit 1
        t = np.moveaxis(amps.reshape(2, 2, 2), (2, 0), (0, 1)).reshape(4, 2)
        t = np.moveaxis((u @ t).reshape(2, 2, 2), (0, 1), (2, 0)).reshape(8)
        out_m = q.apply_unitary(pure(REG3, amps), u, targets)
        np.testing.assert_allclose(out_m.matrix, np.outer(t, t.conj()), atol=1e-9)


class TestMeasurement:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        rho = q.DensityMatrix(REG3, random_density(3, rng))
        p = q.measurement_probabilities(rho, q.BASIS_DA, list(REG3))
        assert p.shape == (8,)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)

    def test_ghz_equatorial_correlation(self):
        # <M(theta)^{x3}> on (|000>+|111>)/sqrt2 equals cos(3 theta), read
        # directly and as the outcome parity in equatorial_basis(theta)
        ket = np.zeros(8, dtype=complex)
        ket[[0, 7]] = 1 / np.sqrt(2)
        ghz = pure(REG3, ket)
        parity = np.array([(-1) ** bin(i).count("1") for i in range(8)])
        for theta in np.linspace(0, 2 * np.pi, 13):
            m = np.cos(theta) * q.PAULI_X + np.sin(theta) * q.PAULI_Y
            direct = ket.conj() @ np.kron(np.kron(m, m), m) @ ket
            np.testing.assert_allclose(direct, np.cos(3 * theta), atol=1e-12)
            p = q.measurement_probabilities(ghz, q.equatorial_basis(theta), list(REG3))
            np.testing.assert_allclose(parity @ p, np.cos(3 * theta), atol=1e-9)

    def test_measurement_marginal_order(self):
        # asymmetric product state distinguishes target ordering
        s = pure((q.spin("I"), q.spin("II")), np.kron(q.KET_DOWN, q.KET_UP))
        p_fwd = q.measurement_probabilities(s, q.BASIS_Z, [q.spin("I"), q.spin("II")])
        np.testing.assert_allclose(p_fwd, [0, 1, 0, 0], atol=1e-12)
        p_rev = q.measurement_probabilities(s, q.BASIS_Z, [q.spin("II"), q.spin("I")])
        np.testing.assert_allclose(p_rev, [0, 0, 1, 0], atol=1e-12)

    def test_equatorial_basis_diagonalizes_m(self):
        for n, nq in [(0, 6), (3, 6), (2, 3), (5, 6)]:
            theta = n * np.pi / nq
            m = np.cos(theta) * q.PAULI_X + np.sin(theta) * q.PAULI_Y
            b = q.equatorial_basis(theta)
            d = b.conj().T @ m @ b
            np.testing.assert_allclose(d, np.diag([1, -1]), atol=1e-12)


class TestExpectationFidelity:
    def test_dephase_kills_coherence(self):
        bell = pure(REG2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = q.dephase(bell, REG2[1], 0.0)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)
        half = q.dephase(bell, REG2[1], 0.5)
        assert half.matrix[0, 3] == pytest.approx(0.25)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0, 2 * np.pi, allow_nan=False),
    phi=st.floats(0, 2 * np.pi, allow_nan=False),
)
def test_unitary_preserves_trace_and_spectrum(seed, theta, phi):
    rng = np.random.default_rng(seed)
    rho = q.DensityMatrix(REG2, random_density(2, rng))
    u = np.array(
        [
            [np.cos(theta / 2), -np.exp(-1j * phi) * np.sin(theta / 2)],
            [np.exp(1j * phi) * np.sin(theta / 2), np.cos(theta / 2)],
        ]
    )
    out = q.apply_unitary(rho, u, [REG2[0]])
    np.testing.assert_allclose(np.trace(out.matrix), 1.0, atol=1e-9)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(out.matrix)),
        np.sort(np.linalg.eigvalsh(rho.matrix)),
        atol=1e-9,
    )


def projector_probabilities(rho, bases, targets) -> np.ndarray:
    """Oracle: Tr(rho P) for the product projector of every outcome pattern,
    built with np.kron over the register, identity on the other qubits."""
    probs = []
    for bits in itertools.product((0, 1), repeat=len(targets)):
        kets = {lab: basis[:, b] for lab, basis, b in zip(targets, bases, bits)}
        factors = [np.outer(kets[lab], kets[lab].conj()) if lab in kets else np.eye(2)
                   for lab in rho.register]
        probs.append(np.real(np.trace(rho.matrix @ functools.reduce(np.kron, factors))))
    return np.array(probs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_measurement_probabilities_match_projector_expectations(seed):
    rng = np.random.default_rng(seed)
    rho = q.DensityMatrix(REG2, random_density(2, rng))
    probs = q.measurement_probabilities(rho, q.BASIS_RL, list(REG2))
    for idx, bits in enumerate(itertools.product((0, 1), repeat=2)):
        proj = np.array([[1.0 + 0j]])
        for b in bits:
            ket = q.BASIS_RL[:, b]
            proj = np.kron(proj, np.outer(ket, ket.conj()))
        np.testing.assert_allclose(probs[idx], np.real(np.trace(rho.matrix @ proj)), atol=1e-9)

    # three qubits, one random basis per target, a random subset of the
    # targets in a random order: covers the marginal sum and the axis reorder
    rho3 = q.DensityMatrix(REG3, random_density(3, rng))
    k = int(rng.integers(1, 4))
    targets = [REG3[i] for i in rng.permutation(3)[:k]]
    bases = [random_unitary(2, rng) for _ in targets]
    probs3 = q.measurement_probabilities(rho3, bases, targets)
    np.testing.assert_allclose(
        probs3, projector_probabilities(rho3, bases, targets), atol=1e-9
    )
