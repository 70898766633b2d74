"""Single-node model: write process, photon-spin pair, storage, retrieval.

Each node holds one memory qubit (collective spin excitation, levels
``DOWN``/``UP``) and emits a write-out photon whose circular polarization is
entangled with the spin:

    |psi(t)> = sqrt(a) |R, down> + exp(i phi(t)) sqrt(1 - a) |L, up>

with ``a = branch_weight_down`` and a phase that precesses linearly in time,
``phi(t) = phi0 + 2 pi t / zeeman_period_us``, due to the Zeeman splitting of
the two spin states.  An imperfect pair is modeled as the pure state mixed
with the maximally mixed two-qubit state (weight ``depol_weight``), which
caps every interference visibility at ``1 - depol_weight``.

The write process is probabilistic.  Per attempt the detected outcome is
vacuum, a single pair (probability ``p_w``), or a double excitation
(probability ``p_w ** 2`` to second order; suppressed entirely when
``excitation_order == 1``).

Retrieval converts the spin back to a photon (``down -> L``, ``up -> R``) with
efficiency ``eta_r0 * exp(-dt / tau_mem_us)``; the stored coherence decays as
``exp(-dt / tau_vis_us)`` on top of the deterministic Zeeman rotation.
Creation bakes in ``phi0`` only; all time evolution between write and read is
storage, so a pipeline never double counts the precession.  In the spin's
computational basis storage is one elementwise spin factor ``M(dt)``: 1 on
the diagonal, ``coherence * e^{i 2 pi dt / T}`` at ``[up, down]`` and its
conjugate at ``[down, up]``, both from ``_storage``.

``node_terms`` is the one place a node's trial is derived: it ages the pair
at the node, ``rho_0 * M(dt)``, conditions the spin on the write photon's
outcome and gathers the write and retrieval probabilities.  A scalar delay
and an array of delays take the same path; an array adds a leading delay
axis that every later step runs over.  ``readout`` is the one statement of
what a memory returns to its analyzer.  The pair scenarios, the heralded
event tables and the rate budget all read from these two, so storage runs
once per node, on the two-qubit pair as a plain array, and never on the
joint station state.

No scenario builds a ``DensityMatrix``.  ``entangled_pair_state`` (the fresh
pair on its labeled register) and ``storage_channel`` (storage as a
register-layer channel) are kept as the tests' reference and as benchmark
span targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detection as det
from . import quantum as q


@dataclass(frozen=True)
class NodeConfig:
    """Static parameters of one memory node.

    ``p_w`` is the detected write-out probability per attempt (source
    efficiency times write-arm transmission and detection), ``eta_r0`` the
    zero-delay retrieval efficiency including the read arm.  Time constants
    are in microseconds; ``math.inf`` disables the corresponding decay.
    """

    node_id: str = "I"
    p_w: float = 0.015
    eta_r0: float = 0.40
    tau_mem_us: float = math.inf
    tau_vis_us: float = math.inf
    zeeman_period_us: float = 5.28
    phi0: float = 0.0
    excitation_order: int = 2
    depol_weight: float = 0.0
    branch_weight_down: float = 0.5

    def __post_init__(self) -> None:
        if self.node_id not in ("I", "II", "III"):
            raise ValueError(f"unknown node_id {self.node_id!r}")
        for name in ("p_w", "eta_r0", "depol_weight", "branch_weight_down"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} = {val} outside [0, 1]")
        for name in ("tau_mem_us", "tau_vis_us"):  # infinite: no decay
            val = getattr(self, name)
            if not val > 0.0:
                raise ValueError(f"{name} must be positive, not {val}")
        if not (math.isfinite(self.zeeman_period_us) and self.zeeman_period_us > 0.0):
            raise ValueError(
                f"zeeman_period_us must be positive and finite, not {self.zeeman_period_us}"
            )
        if not math.isfinite(self.phi0):
            raise ValueError(f"phi0 must be finite, not {self.phi0}")
        if self.excitation_order not in (1, 2):
            raise ValueError("excitation_order must be 1 or 2")
        if self.p_w + self.p_w**2 > 1.0:
            raise ValueError("p_w too large: outcome probabilities exceed 1")


def write_probabilities(cfg: NodeConfig) -> tuple[float, float, float]:
    """Per-attempt probabilities ``(vacuum, single, double)``."""
    p_dbl = cfg.p_w**2 if cfg.excitation_order == 2 else 0.0
    return (1.0 - cfg.p_w - p_dbl, cfg.p_w, p_dbl)


def _precession(cfg: NodeConfig, dt_us):
    """Zeeman angle ``2 pi dt / zeeman_period_us`` gathered over ``dt_us`` of
    storage, refusing a storage time whose angle overflows."""
    with np.errstate(over="ignore"):
        angle = 2.0 * math.pi * dt_us / cfg.zeeman_period_us
    overflows = ~np.isfinite(angle)
    if np.any(overflows):
        raise ValueError(
            f"storage time {np.extract(overflows, dt_us)[0]} us overflows the Zeeman "
            f"phase of node {cfg.node_id} (zeeman_period_us {cfg.zeeman_period_us})"
        )
    return angle


def zeeman_phase(cfg: NodeConfig, dt_us):
    """Accumulated pair phase ``phi0 + 2 pi dt / zeeman_period_us``."""
    return cfg.phi0 + _precession(cfg, dt_us)


def _fresh_pair(cfg: NodeConfig) -> np.ndarray:
    """The ``(4, 4)`` photon-spin pair of one write-out, before any storage,
    indexed ``(photon, spin)`` big-endian with the photon in the H/V basis."""
    a = cfg.branch_weight_down
    # |R down> and |L up> in the H/V photon basis, one spin per column
    down, up = math.sqrt(a) * q.KET_R, np.exp(1j * cfg.phi0) * math.sqrt(1.0 - a) * q.KET_L
    amp = np.stack([down, up], axis=1).reshape(4)
    rho = np.outer(amp, amp.conj())
    w = cfg.depol_weight
    if w > 0.0:
        rho = (1.0 - w) * rho + w * np.eye(4) / 4.0
    return rho


def entangled_pair_state(cfg: NodeConfig) -> q.DensityMatrix:
    """``_fresh_pair`` on the register ``(photon(node), spin(node))``."""
    return q.DensityMatrix((q.photon(cfg.node_id), q.spin(cfg.node_id)), _fresh_pair(cfg))


def _storage_time(dt_us) -> np.ndarray:
    """Storage times as a float array, refusing any negative or NaN entry."""
    dt = np.asarray(dt_us, dtype=float)
    if not np.all(dt >= 0.0):
        raise ValueError("storage time must be non-negative")
    return dt


def retrieval_efficiency(cfg: NodeConfig, dt_us=0.0):
    """Probability that a read pulse at storage time ``dt_us`` yields a photon."""
    return cfg.eta_r0 * np.exp(-_storage_time(dt_us) / cfg.tau_mem_us)


def memory_coherence(cfg: NodeConfig, dt_us=0.0):
    """Residual spin coherence factor after ``dt_us`` of storage."""
    return np.exp(-_storage_time(dt_us) / cfg.tau_vis_us)


def _storage(cfg: NodeConfig, dt_us):
    """The ``up`` amplitude's Zeeman phase factor and the coherence factor."""
    coherence = memory_coherence(cfg, dt_us)
    if not np.all((coherence >= 0.0) & (coherence <= 1.0)):
        raise ValueError(f"coherence factor {coherence} outside [0, 1]")
    return np.exp(1j * _precession(cfg, np.asarray(dt_us, dtype=float))), coherence


def storage_channel(
    cfg: NodeConfig, state: q.DensityMatrix, dt_us: float
) -> q.DensityMatrix:
    """Evolve the stored spin of this node for ``dt_us`` of storage time.

    Applies the deterministic Zeeman rotation ``diag(1, e^{i 2 pi dt / T})``
    and scales the spin coherences by ``exp(-dt / tau_vis_us)``.  Works on
    any state whose register contains ``spin(cfg.node_id)``.
    """
    target = q.spin(cfg.node_id)
    phase, coherence = _storage(cfg, dt_us)
    out = q.apply_unitary(state, np.diag([1.0, phase]), [target])
    if coherence < 1.0:
        out = q.dephase(out, target, float(coherence))
    return out


@dataclass(frozen=True)
class NodeTerms:
    """One node's share of a trial, its spin aged by the storage time.

    ``born`` holds the write photon's outcome probabilities in the write
    basis (last axis) and ``spins`` the spin conditioned on each outcome,
    maximally mixed when that outcome cannot occur.  ``eta_dbl`` is the
    retrieval probability of a spoiled memory holding two excitations.
    ``pair`` is the aged pair with its photon in the write basis, indexed
    ``(photon, spin, photon, spin)``.  A delay array adds a leading delay
    axis to every array.
    """

    pair: np.ndarray  # (..., 2, 2, 2, 2)
    born: np.ndarray
    spins: tuple[np.ndarray, np.ndarray]
    write_probabilities: tuple[float, float, float]
    eta: float | np.ndarray
    eta_dbl: float | np.ndarray


def node_terms(cfg: NodeConfig, write_basis: np.ndarray, dt_us) -> NodeTerms:
    """Age the pair by ``dt_us``, then condition its spin on the write photon
    measured in ``write_basis`` (columns are the outcome kets).

    ``dt_us`` is one storage time or a 1-D array of them, aged alike by
    ``M(dt)``.  Storage acts on the spin alone, so it commutes with any
    measurement or post-selection of the photon: aging the pair first is exact.
    """
    phase, coherence = _storage(cfg, dt_us)
    factor = np.ones(np.shape(phase) + (2, 2), dtype=complex)
    factor[..., 1, 0] = coherence * phase
    factor[..., 0, 1] = np.conj(factor[..., 1, 0])
    rho = _fresh_pair(cfg).reshape(2, 2, 2, 2) * factor[..., None, :, None, :]
    q.check_density(rho.reshape(-1, 4, 4))
    rot = np.einsum("ai,...asbt,bj->...isjt", write_basis.conj(), rho, write_basis)
    blocks = np.stack([rot[..., i, :, i, :] for i in (0, 1)], axis=-3)
    born = np.real(np.trace(blocks, axis1=-2, axis2=-1))
    occurs = (born > 1e-300)[..., None, None]
    spins = np.where(occurs, blocks / np.where(occurs, born[..., None, None], 1.0), np.eye(2) / 2)
    spins = (spins[..., 0, :, :], spins[..., 1, :, :])
    eta = retrieval_efficiency(cfg, dt_us)
    return NodeTerms(
        rot, born, spins, write_probabilities(cfg), eta, 1.0 - (1.0 - eta) ** 2
    )


def born2(basis: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a qubit's 2x2 state, or of a stack, in
    ``basis`` (columns = kets), itself one basis or a stack."""
    rotated = basis.conj().swapaxes(-1, -2) @ state @ basis
    return np.real(rotated.diagonal(0, -2, -1))


def readout(terms: NodeTerms, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hit distributions of this memory read in ``basis`` (or a stack): a clean
    memory's per write outcome (axis -3), then a spoiled one's, read uniformly."""
    born = born2(basis[..., None, :, :], np.stack(terms.spins, axis=-3))
    clean = det.photon_hits(np.asarray(terms.eta)[..., None], np.clip(born, 0.0, 1.0))
    return clean, det.photon_hits(terms.eta_dbl, (0.5, 0.5))
