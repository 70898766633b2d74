"""Dense density-matrix algebra for small labeled qubit registers.

Conventions, fixed once here and relied on everywhere else:

* A register is an ordered tuple of ``QubitLabel``s.  Indexing is big-endian
  in register order: qubit 0 is the most significant bit, so a basis state
  with per-qubit bits ``b_0 .. b_{n-1}`` sits at index ``sum(b_i << (n-1-i))``.
  Consequently the state of two registers side by side is ``numpy.kron(a, b)``
  over ``a.register + b.register``.
* Photon-polarization qubits: index 0 = |H>, index 1 = |V>.  The circular
  components are |R> = (|H> + i|V>)/sqrt2 and |L> = (|H> - i|V>)/sqrt2,
  and the diagonal ones |D> = (|H> + |V>)/sqrt2, |A> = (|H> - |V>)/sqrt2.
* Atomic-spin qubits: index 0 = |down>, index 1 = |up>.
* sigma_z is +1 on index 0.  The equatorial observable
  ``m_observable(n, N) = cos(n pi/N) sigma_x + sin(n pi/N) sigma_y`` has
  +1 eigenvector (|0> + e^{i n pi/N} |1>)/sqrt2, which is column 0 of
  ``equatorial_basis(n pi/N)``.

Registers never exceed 6 qubits in this package, so everything is dense
complex128.  No scenario builds a ``DensityMatrix``: the node ages its
pairs as plain arrays, validated with ``check_density``, and the station
keeps its output in factored form (``optics``).  The labeled-register layer
(``DensityMatrix``, ``apply_unitary``, ``measurement_probabilities`` and the
rest) is kept as the tests' reference and as benchmark span targets.  Every
``DensityMatrix`` is validated when it is built (tolerance ``TOL``);
measurement reads outcome probabilities without building intermediate
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TOL = 1e-9

PHOTON = "photon-polarization"
SPIN = "atomic-spin"
_KINDS = (PHOTON, SPIN)
_NODES = ("I", "II", "III", "S")  # "S" = connection station (port photons)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)
KET_R = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)
KET_D = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_A = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_DOWN = np.array([1, 0], dtype=complex)
KET_UP = np.array([0, 1], dtype=complex)

#: Measurement bases as 2x2 matrices whose COLUMNS are the basis kets.
#: Outcome bit 0 always means column 0.
BASIS_Z = np.eye(2, dtype=complex)
BASIS_X = np.column_stack([KET_D, KET_A])
BASIS_DA = BASIS_X  # alias: D/A analysis of a polarization qubit
BASIS_RL = np.column_stack([KET_R, KET_L])


def equatorial_basis(theta) -> np.ndarray:
    """Basis diagonalizing cos(theta) sigma_x + sin(theta) sigma_y.

    Column 0 is the +1 eigenvector (|0> + e^{i theta}|1>)/sqrt2, column 1 the
    -1 eigenvector, so an outcome pattern's eigenvalue product is
    (-1)**popcount(pattern).  An array of angles gives a ``(..., 2, 2)``
    stack of bases.
    """
    phase = np.exp(1j * np.asarray(theta))
    basis = np.ones(phase.shape + (2, 2), dtype=complex)
    basis[..., 1, 0] = phase
    basis[..., 1, 1] = -phase
    return basis / np.sqrt(2)


def m_observable(n: int, n_qubits: int) -> np.ndarray:
    """Equatorial Pauli combination cos(n pi/N) sigma_x + sin(n pi/N) sigma_y."""
    if not 0 <= n < n_qubits:
        raise ValueError(f"coherence index n={n} outside [0, {n_qubits})")
    theta = n * np.pi / n_qubits
    return np.cos(theta) * PAULI_X + np.sin(theta) * PAULI_Y


@dataclass(frozen=True, order=True)
class QubitLabel:
    """Identity of one qubit: what it is, which node it belongs to, which mode."""

    kind: str
    node_id: str
    mode_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown qubit kind {self.kind!r}")
        if self.node_id not in _NODES:
            raise ValueError(f"unknown node id {self.node_id!r}")
        if not isinstance(self.mode_id, int) or self.mode_id < 0:
            raise ValueError(f"mode_id must be a non-negative int, got {self.mode_id!r}")

    def __str__(self) -> str:
        short = "ph" if self.kind == PHOTON else "sp"
        return f"{short}:{self.node_id}:{self.mode_id}"


def photon(node_id: str, mode_id: int = 0) -> QubitLabel:
    return QubitLabel(PHOTON, node_id, mode_id)


def spin(node_id: str, mode_id: int = 0) -> QubitLabel:
    return QubitLabel(SPIN, node_id, mode_id)


def _check_register(register: Sequence[QubitLabel]) -> tuple[QubitLabel, ...]:
    reg = tuple(register)
    if not reg:
        raise ValueError("register must contain at least one qubit")
    if len(set(reg)) != len(reg):
        raise ValueError(f"duplicate labels in register {tuple(str(q) for q in reg)}")
    return reg


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def check_density(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``m``, or each matrix of a ``(..., d, d)``
    stack, is finite, trace-1, Hermitian and PSD within TOL."""
    if not np.isfinite(m).all():
        raise ValueError("matrix has entries that are not finite")
    trace, adjoint = m.trace(0, -2, -1), m.conj().swapaxes(-1, -2)
    if (abs(trace - 1.0) > TOL).any():
        raise ValueError(f"trace {trace} deviates from 1 beyond {TOL}")
    if abs(m - adjoint).max() > TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigmin = float(np.linalg.eigvalsh((m + adjoint) / 2).min())
    if eigmin < -TOL:
        raise ValueError(f"matrix has negative eigenvalue {eigmin}")


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state over a labeled register: trace-1, Hermitian, PSD within TOL."""

    register: tuple[QubitLabel, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        reg = _check_register(self.register)
        dim = 2 ** len(reg)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match register of {len(reg)} qubits")
        check_density(m)
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    def index_of(self, label: QubitLabel) -> int:
        try:
            return self.register.index(label)
        except ValueError:
            raise ValueError(f"label {label} not in register") from None


@dataclass(frozen=True)
class Observable:
    """Tensor product of per-qubit 2x2 Hermitian factors over part of a register."""

    factors: tuple[tuple[QubitLabel, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("observable needs at least one factor")
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels among observable factors")
        checked = []
        for lab, f in self.factors:
            f = np.asarray(f, dtype=complex)
            if f.shape != (2, 2):
                raise ValueError(f"factor for {lab} is not 2x2")
            if np.max(np.abs(f - f.conj().T)) > TOL:
                raise ValueError(f"factor for {lab} is not Hermitian")
            checked.append((lab, _frozen(f)))
        object.__setattr__(self, "factors", tuple(checked))


def ghz_state(
    register: Sequence[QubitLabel],
    pattern0: Sequence[int] | None = None,
    pattern1: Sequence[int] | None = None,
    phase: complex = 1.0,
) -> DensityMatrix:
    """(|pattern0> + phase |pattern1>)/sqrt2; defaults to |0..0>, |1..1>."""
    reg = _check_register(register)
    n = len(reg)
    p0 = tuple(pattern0) if pattern0 is not None else (0,) * n
    p1 = tuple(pattern1) if pattern1 is not None else (1,) * n
    if len(p0) != n or len(p1) != n:
        raise ValueError("patterns must match register length")
    if abs(abs(phase) - 1.0) > TOL:
        raise ValueError("phase must be unimodular")
    amps = np.zeros(2**n, dtype=complex)
    amps[bits_to_index(p0)] = 1 / np.sqrt(2)
    amps[bits_to_index(p1)] += phase / np.sqrt(2)
    return DensityMatrix(reg, np.outer(amps, amps.conj()))


def bits_to_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit pattern entries must be 0/1, got {b!r}")
        idx = (idx << 1) | b
    return idx


def index_to_bits(idx: int, n_qubits: int) -> tuple[int, ...]:
    return tuple((idx >> (n_qubits - 1 - i)) & 1 for i in range(n_qubits))


def _target_positions(state: DensityMatrix, targets: Sequence[QubitLabel]) -> list[int]:
    pos = [state.index_of(t) for t in targets]
    if len(set(pos)) != len(pos):
        raise ValueError("duplicate target labels")
    return pos


def _apply_on_axes(tensor: np.ndarray, m: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract matrix m (2^k x 2^k) into the given k axes of a [2]*r tensor."""
    k = len(axes)
    mt = m.reshape([2] * (2 * k))
    out = np.tensordot(mt, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, range(k), axes)


def apply_unitary(
    state: DensityMatrix, u: np.ndarray, targets: Sequence[QubitLabel]
) -> DensityMatrix:
    """Apply u to the listed qubits (in the given order); register unchanged."""
    pos = _target_positions(state, targets)
    k = len(pos)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} targets")
    if np.max(np.abs(u @ u.conj().T - np.eye(2**k))) > TOL:
        raise ValueError("matrix is not unitary within tolerance")
    n = state.n_qubits
    t = state.matrix.reshape([2] * (2 * n))
    t = _apply_on_axes(t, u, pos)
    t = _apply_on_axes(t, u.conj(), [n + p for p in pos])
    return DensityMatrix(state.register, t.reshape(2**n, 2**n))


def _resolve_bases(basis, k: int) -> list[np.ndarray]:
    """Accept one 2x2 basis for all targets or a sequence of per-target bases."""
    b = np.asarray(basis, dtype=complex) if not isinstance(basis, (list, tuple)) else basis
    if isinstance(b, np.ndarray) and b.shape == (2, 2):
        mats = [b] * k
    else:
        mats = [np.asarray(x, dtype=complex) for x in basis]
        if len(mats) != k:
            raise ValueError(f"need {k} per-target bases, got {len(mats)}")
    for m in mats:
        if m.shape != (2, 2) or np.max(np.abs(m @ m.conj().T - ID2)) > TOL:
            raise ValueError("basis columns must form an orthonormal pair")
    return mats


def measurement_probabilities(
    state: DensityMatrix, basis, targets: Sequence[QubitLabel]
) -> np.ndarray:
    """Joint outcome probabilities (length 2^k, big-endian in target order).

    Contracts each basis into the row and column axes (``B^dagger rho B``)
    and reads the diagonal; no intermediate state is built or re-validated.
    """
    pos = _target_positions(state, targets)
    mats = _resolve_bases(basis, len(pos))
    n = state.n_qubits
    t = state.matrix.reshape([2] * (2 * n))
    for m, p in zip(mats, pos):
        t = _apply_on_axes(t, m.conj().T, [p])
        t = _apply_on_axes(t, m.T, [n + p])
    weights = np.real(np.diagonal(t.reshape(2**n, 2**n))).reshape([2] * n)
    other = tuple(ax for ax in range(n) if ax not in pos)
    probs = weights.sum(axis=other) if other else weights
    # after the sum the surviving axes follow ascending register position;
    # reorder them to match the order the targets were listed in
    ascending = sorted(pos)
    probs = np.transpose(probs, axes=[ascending.index(p) for p in pos])
    return np.clip(probs.reshape(-1).real, 0.0, None)


def expectation(state: DensityMatrix, observable: Observable) -> float:
    """<O> for a tensor-product observable embedded in the register."""
    by_label = {lab: f for lab, f in observable.factors}
    missing = [lab for lab in by_label if lab not in state.register]
    if missing:
        raise ValueError(f"observable labels {[str(m) for m in missing]} not in register")
    op = np.array([[1.0 + 0j]])
    for q in state.register:
        op = np.kron(op, by_label.get(q, ID2))
    val = np.trace(state.matrix @ op)
    if abs(val.imag) > 1e-7:
        raise ValueError(f"expectation has residual imaginary part {val.imag}")
    return float(val.real)


def pure_state_fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Fidelity ``Re Tr(a b)`` against a pure reference (either argument)."""
    if a.register != b.register:
        raise ValueError("registers differ (same labels in the same order required)")
    # Tr rho^2 is the squared Frobenius norm of a Hermitian rho
    if max(np.sum(np.abs(s.matrix) ** 2) for s in (a, b)) < 1.0 - TOL:
        raise ValueError("at least one argument must be a pure state (Tr rho^2 = 1)")
    return float(np.real(np.sum(a.matrix * b.matrix.T)))


def partial_trace(state: DensityMatrix, drop: Iterable[QubitLabel]) -> DensityMatrix:
    """Trace out the listed qubits, keeping the rest in register order."""
    drop_set = set(drop)
    for lab in drop_set:
        state.index_of(lab)
    keep = [q for q in state.register if q not in drop_set]
    if not keep:
        raise ValueError("cannot trace out the whole register")
    n = state.n_qubits
    t = state.matrix.reshape([2] * (2 * n))
    remaining = list(state.register)
    for lab in sorted(drop_set, key=state.register.index, reverse=True):
        ax = remaining.index(lab)
        r = len(remaining)
        t = np.trace(t, axis1=ax, axis2=ax + r)
        remaining.pop(ax)
    dim = 2 ** len(keep)
    return DensityMatrix(tuple(keep), t.reshape(dim, dim))


def dephase(state: DensityMatrix, target: QubitLabel, coherence: float) -> DensityMatrix:
    """Scale the target qubit's z-basis off-diagonals by ``coherence`` in [0, 1]."""
    if not 0.0 <= coherence <= 1.0 + TOL:
        raise ValueError(f"coherence factor {coherence} outside [0, 1]")
    pos = state.index_of(target)
    n = state.n_qubits
    t = state.matrix.reshape([2] * (2 * n)).copy()
    sel = [slice(None)] * (2 * n)
    sel[pos], sel[n + pos] = 0, 1
    t[tuple(sel)] *= coherence
    sel[pos], sel[n + pos] = 1, 0
    t[tuple(sel)] *= coherence
    return DensityMatrix(state.register, t.reshape(2**n, 2**n))
