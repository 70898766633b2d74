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

The write attempt is stated once, in ``WRITE_BRANCHES``: it leaves vacuum,
a single pair (probability ``p_w``) or a double excitation (``p_w ** 2`` to
second order; none when ``excitation_order == 1``).  Vacuum sends no photon
and leaves the memory empty; a single's photon takes outcome 0 or 1 by its
Born chance and leaves a clean memory conditioned on it; a double's stray
photon takes either with chance 1/2 and leaves a spoiled memory, retrieved
with ``1 - (1 - eta)^2`` and read uniformly.  By memory kind,
``NodeTerms.photon_chances`` gives that chance and ``readout`` the hits.

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
outcome and gathers the write and retrieval probabilities.  One path takes
one node or a node sequence (a leading node axis) and one delay or an array
(delay axes after it); ``readout`` runs over them too.  The pair scenarios,
the heralded event tables and the rate budget all read ``node_terms``,
``readout`` and the branch table, so storage runs once per node, on the
two-qubit pair as a plain array, and never on the joint station state.

No scenario builds a ``DensityMatrix``.  ``entangled_pair_state`` (the fresh
pair on its labeled register) and ``storage_channel`` (storage as a
register-layer channel) are kept as the tests' reference and as benchmark
span targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import detection as det
from . import quantum as q
from .config import NodeConfig


# write outcomes in write_probabilities' order; memory kinds in readout's,
# clean after photon outcome c at CLEAN + c
VACUUM, SINGLE, DOUBLE = 0, 1, 2
EMPTY, SPOILED, CLEAN = 0, 1, 2
# each write outcome's branches: (photon outcome or None, memory kind)
WRITE_BRANCHES = (((None, EMPTY),), ((0, CLEAN), (1, CLEAN + 1)), ((0, SPOILED), (1, SPOILED)))


def _gathered(nodes, delay_axes: int):
    """One ``NodeConfig`` as is, or a sequence's fields as ``(N, 1, ...)`` arrays."""
    if isinstance(nodes, NodeConfig):
        return nodes
    shape, names = (-1,) + (1,) * delay_axes, [f.name for f in fields(NodeConfig)]
    columns = zip(*([getattr(n, name) for name in names] for n in nodes))
    return SimpleNamespace(**{name: np.array(c).reshape(shape) for name, c in zip(names, columns)})


def write_probabilities(cfg: NodeConfig) -> tuple[float, float, float]:
    """Per-attempt ``(vacuum, single, double)`` probabilities (libm ``pow``, as ``**``)."""
    p_dbl = np.float_power(cfg.p_w, 2) * np.equal(cfg.excitation_order, 2)
    return (1.0 - cfg.p_w - p_dbl, cfg.p_w, p_dbl)


def _precession(cfg: NodeConfig, dt_us):
    """Zeeman angle ``2 pi dt / zeeman_period_us`` gathered over ``dt_us`` of
    storage, refusing a storage time whose angle overflows."""
    with np.errstate(over="ignore"):
        angle = 2.0 * math.pi * dt_us / cfg.zeeman_period_us
    overflows = ~np.isfinite(angle)
    if overflows.any():
        at = np.broadcast_arrays(dt_us, cfg.node_id, cfg.zeeman_period_us)
        dt, node_id, period = (v[overflows][0] for v in at)
        raise ValueError(
            f"storage time {dt} us overflows the Zeeman phase of node {node_id} "
            f"(zeeman_period_us {period})"
        )
    return angle


def zeeman_phase(cfg: NodeConfig, dt_us):
    """Accumulated pair phase ``phi0 + 2 pi dt / zeeman_period_us``."""
    return cfg.phi0 + _precession(cfg, dt_us)


def _fresh_pair(cfg: NodeConfig) -> np.ndarray:
    """The ``(..., 4, 4)`` photon-spin pair of each write-out, before any
    storage, indexed ``(photon, spin)`` big-endian with the photon in H/V."""
    a = np.asarray(cfg.branch_weight_down)[..., None]
    # |R down> and |L up> in the H/V photon basis, one spin per column
    down = np.sqrt(a) * q.KET_R
    up = np.exp(1j * np.asarray(cfg.phi0))[..., None] * np.sqrt(1.0 - a) * q.KET_L
    amp = np.stack([down, up], axis=-1).reshape(a.shape[:-1] + (4,))
    rho = amp[..., :, None] * amp.conj()[..., None, :]
    w = np.asarray(cfg.depol_weight)[..., None, None]
    return np.where(w > 0.0, (1.0 - w) * rho + w * np.eye(4) / 4.0, rho)


def entangled_pair_state(cfg: NodeConfig) -> q.DensityMatrix:
    """``_fresh_pair`` on the register ``(photon(node), spin(node))``."""
    return q.DensityMatrix((q.photon(cfg.node_id), q.spin(cfg.node_id)), _fresh_pair(cfg))


def _decay(dt_us, tau_us: float):
    """``exp(-dt / tau)`` over storage times ``dt_us``, refusing any negative or
    NaN one; a ratio that overflows, as with a tiny lifetime, gives its limit 0."""
    dt = np.asarray(dt_us, dtype=float)
    if not (dt >= 0.0).all():
        raise ValueError("storage time must be non-negative")
    with np.errstate(over="ignore"):
        return np.exp(-dt / tau_us)


def retrieval_efficiency(cfg: NodeConfig, dt_us=0.0):
    """Probability that a read pulse at storage time ``dt_us`` yields a photon."""
    return cfg.eta_r0 * _decay(dt_us, cfg.tau_mem_us)


def memory_coherence(cfg: NodeConfig, dt_us=0.0):
    """Residual spin coherence factor after ``dt_us`` of storage."""
    return _decay(dt_us, cfg.tau_vis_us)


def _storage(cfg: NodeConfig, dt_us):
    """The ``up`` amplitude's Zeeman phase factor and the coherence factor."""
    coherence = memory_coherence(cfg, dt_us)
    if not ((coherence >= 0.0) & (coherence <= 1.0)).all():
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
    """A node's share of a trial, its spin aged by the storage time.

    ``born`` holds the write photon's outcome probabilities in the write
    basis (last axis) and ``spins`` the spin conditioned on each outcome,
    maximally mixed when that outcome cannot occur.  ``eta_dbl`` is the
    retrieval probability of a spoiled memory holding two excitations.
    ``pair`` is the aged pair, photon in the write basis, indexed ``(photon,
    spin, photon, spin)``.  Node sequences add a leading axis, delays after.
    """

    pair: np.ndarray  # (..., 2, 2, 2, 2)
    born: np.ndarray
    spins: tuple[np.ndarray, np.ndarray]
    write_probabilities: np.ndarray  # (3,), or (N, 3): no delay axes
    eta: float | np.ndarray
    eta_dbl: float | np.ndarray

    @property
    def photon_chances(self) -> np.ndarray:
        """The photon outcome's chance by memory kind, last axis: 1, 1/2, ``born``."""
        return np.concatenate([np.broadcast_to((1.0, 0.5), self.born.shape), self.born], axis=-1)


def node_terms(nodes, write_basis: np.ndarray, dt_us) -> NodeTerms:
    """Age the pair by ``dt_us``, then condition its spin on the write photon
    measured in ``write_basis`` (columns are the outcome kets).

    ``nodes`` is one ``NodeConfig`` or a sequence, each node's slice its own
    call; ``dt_us`` one storage time or an array, aged alike by ``M(dt)``.
    Write bases broadcast against both: ``(N, 2, 2)`` gives each node its
    own, ``(D, 1)`` delays age each pair once for two bases.  Storage acts on
    the spin alone, so aging the pair before any photon measurement is exact.
    """
    cfg = _gathered(nodes, np.ndim(dt_us))
    phase, coherence = _storage(cfg, dt_us)
    factor = np.ones(np.shape(phase) + (2, 2), dtype=complex)
    factor[..., 1, 0] = coherence * phase
    factor[..., 0, 1] = np.conj(factor[..., 1, 0])
    rho = _fresh_pair(cfg).reshape(np.shape(cfg.p_w) + (2, 2, 2, 2)) * factor[..., None, :, None, :]
    q.check_density(rho.reshape(-1, 4, 4))
    rot = np.einsum("...ai,...asbt,...bj->...isjt", write_basis.conj(), rho, write_basis)
    blocks = np.stack([rot[..., i, :, i, :] for i in (0, 1)], axis=-3)
    born = np.real(np.trace(blocks, axis1=-2, axis2=-1))
    occurs = (born > 1e-300)[..., None, None]
    spins = np.where(occurs, blocks / np.where(occurs, born[..., None, None], 1.0), np.eye(2) / 2)
    spins = (spins[..., 0, :, :], spins[..., 1, :, :])
    writes = np.array(write_probabilities(cfg)).T.reshape(np.shape(cfg.p_w)[:1] + (3,))
    eta = retrieval_efficiency(cfg, dt_us)
    return NodeTerms(rot, born, spins, writes, eta, 1.0 - np.square(1.0 - eta))


def born2(basis: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a qubit's 2x2 state, or of a stack, in
    ``basis`` (columns = kets), itself one basis or a stack."""
    rotated = basis.conj().swapaxes(-1, -2) @ state @ basis
    return np.real(rotated.diagonal(0, -2, -1))


def readout(terms: NodeTerms, basis: np.ndarray) -> np.ndarray:
    """Hit distributions of the memory read in ``basis`` (or a stack), one
    per memory kind (axis -3); node-axis ``terms`` read a ``(..., N, 2, 2)`` stack."""
    born = born2(basis[..., None, :, :], np.stack(terms.spins, axis=-3))
    clean = det.photon_hits(np.asarray(terms.eta)[..., None], np.clip(born, 0.0, 1.0))
    shape = clean.shape[:-3] + (1, 2, 2)
    spoiled = np.broadcast_to(det.photon_hits(terms.eta_dbl, (0.5, 0.5))[..., None, :, :], shape)
    return np.concatenate([np.broadcast_to(det.NO_HITS, shape), spoiled, clean], axis=-3)
