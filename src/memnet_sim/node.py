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
applied by ``storage_channel`` (used by ``retrieve``), so a pipeline never
double counts the precession.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quantum as q


# spin -> read photon polarization, columns are images of |down>, |up>
_READ_MAP = np.column_stack([q.KET_L, q.KET_R])


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
        for name in ("tau_mem_us", "tau_vis_us", "zeeman_period_us"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.excitation_order not in (1, 2):
            raise ValueError("excitation_order must be 1 or 2")
        if self.p_w + self.p_w**2 > 1.0:
            raise ValueError("p_w too large: outcome probabilities exceed 1")

    def with_node_id(self, node_id: str) -> "NodeConfig":
        return replace(self, node_id=node_id)


def write_probabilities(cfg: NodeConfig) -> tuple[float, float, float]:
    """Per-attempt probabilities ``(vacuum, single, double)``."""
    p_dbl = cfg.p_w**2 if cfg.excitation_order == 2 else 0.0
    return (1.0 - cfg.p_w - p_dbl, cfg.p_w, p_dbl)


def zeeman_phase(cfg: NodeConfig, dt_us: float) -> float:
    """Accumulated pair phase ``phi0 + 2 pi dt / zeeman_period_us``."""
    return cfg.phi0 + 2.0 * math.pi * dt_us / cfg.zeeman_period_us


def entangled_pair_state(cfg: NodeConfig, dt_us: float = 0.0) -> q.DensityMatrix:
    """Photon-spin pair emitted by a single write-out, at age ``dt_us``.

    Register order is ``(photon(node), spin(node))`` with the photon in the
    H/V basis.  The optional age parameter applies the Zeeman phase only
    (no amplitude or coherence decay); it exists for closed-form phase
    scans.  Pipelines should create the pair at ``dt_us = 0`` and let
    ``storage_channel`` do the time evolution.
    """
    a = cfg.branch_weight_down
    phase = np.exp(1j * zeeman_phase(cfg, dt_us))
    register = (q.photon(cfg.node_id), q.spin(cfg.node_id))
    # |R down> and |L up> branches written out in the H/V photon basis
    amp = np.zeros(4, dtype=complex)
    amp[q.bits_to_index((0, 0))] = math.sqrt(a) * q.KET_R[0]
    amp[q.bits_to_index((1, 0))] = math.sqrt(a) * q.KET_R[1]
    amp[q.bits_to_index((0, 1))] = phase * math.sqrt(1.0 - a) * q.KET_L[0]
    amp[q.bits_to_index((1, 1))] = phase * math.sqrt(1.0 - a) * q.KET_L[1]
    rho = np.outer(amp, amp.conj())
    w = cfg.depol_weight
    if w > 0.0:
        rho = (1.0 - w) * rho + w * np.eye(4) / 4.0
    return q.DensityMatrix(register, rho)


def retrieval_efficiency(cfg: NodeConfig, dt_us: float = 0.0) -> float:
    """Probability that a read pulse at storage time ``dt_us`` yields a photon."""
    if dt_us < 0.0:
        raise ValueError("storage time must be non-negative")
    return cfg.eta_r0 * math.exp(-dt_us / cfg.tau_mem_us)


def memory_coherence(cfg: NodeConfig, dt_us: float = 0.0) -> float:
    """Residual spin coherence factor after ``dt_us`` of storage."""
    if dt_us < 0.0:
        raise ValueError("storage time must be non-negative")
    return math.exp(-dt_us / cfg.tau_vis_us)


def storage_channel(cfg: NodeConfig, state: q.State, dt_us: float) -> q.State:
    """Evolve the stored spin of this node for ``dt_us`` of storage time.

    Applies the deterministic Zeeman rotation ``diag(1, e^{i 2 pi dt / T})``
    and scales the spin coherences by ``exp(-dt / tau_vis_us)``.  Works on
    any state whose register contains ``spin(cfg.node_id)``.
    """
    target = q.spin(cfg.node_id)
    angle = 2.0 * math.pi * dt_us / cfg.zeeman_period_us
    out = q.apply_unitary(state, np.diag([1.0, np.exp(1j * angle)]), [target])
    coherence = memory_coherence(cfg, dt_us)
    if coherence < 1.0:
        if isinstance(out, q.StateVector):
            out = out.density()
        out = q.dephase(out, target, coherence)
    return out


def retrieve(
    cfg: NodeConfig, state: q.State, dt_us: float = 0.0, *, read_mode_id: int = 1
) -> tuple[float, q.State]:
    """Convert this node's spin into a read photon after ``dt_us`` storage.

    Returns ``(success_probability, state)`` where the success probability is
    ``retrieval_efficiency(cfg, dt_us)`` and the state has the spin qubit
    replaced by ``photon(node, read_mode_id)`` in the H/V basis via
    ``down -> L, up -> R``.  The returned state is conditioned on success;
    the caller decides what a failed retrieval costs.
    """
    spin_label = q.spin(cfg.node_id)
    out = storage_channel(cfg, state, dt_us)
    photon_label = q.photon(cfg.node_id, read_mode_id)
    out = q.relabel(out, {spin_label: photon_label})
    out = q.apply_unitary(out, _READ_MAP, [photon_label])
    return retrieval_efficiency(cfg, dt_us), out
