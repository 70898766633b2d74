"""The fits: ``curve_fit``, a weighted Levenberg-Marquardt fitter with one
covariance rule, the Raman and decay models it fits, one significance gate
and ``visibility_amplitude``, the visibility envelope's reweighted fit.  The
runners call ``curve_fit`` as ``harness.curve_fit``, which the benchmark's
span wraps, so nothing here calls it for them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# standard errors by which a fitted value must exceed zero to be reported:
# lifetime_sweep's decay rate and raman_delay_sweep's oscillation amplitude
DECAY_Z, AMPLITUDE_Z = 3.0, 5.0


class Fit(NamedTuple):
    """An optimum ``popt``, its covariance ``pcov`` as ``curve_fit`` scales
    it, the weighted residual sum of squares per degree of freedom
    ``reduced_chi2`` (infinite with none) and the Jacobians evaluated."""

    popt: np.ndarray
    pcov: np.ndarray
    reduced_chi2: float
    iterations: int


# Jacobian evaluations before a fit is given up as not converging
_FIT_ITERATIONS = 200
# MINPACK's default ftol: a fit is done once an accepted step was predicted
# to lower the cost by no more than this fraction of it
_FIT_FTOL = 1.5e-8
# the damping's floor, far above rounding, keeps the damped matrix invertible;
# past its ceiling no damped step lowers the cost
_MIN_DAMPING, _MAX_DAMPING = 1e-12, 1e16


def curve_fit(model, jacobian, x, y, p0, sigma=None) -> Fit:
    """Fit ``model(x, *p)`` to ``y`` by Marquardt's method (J. SIAM 11, 431,
    1963), weighting each residual by ``1 / sigma``; ``jacobian(x, *p)``
    gives one row of ``len(y)`` derivatives per parameter.  Each step solves
    ``(A + damping * D) step = b`` for the weighted normal matrix ``A``, the
    gradient ``b`` and MINPACK's scale ``D``, the running maximum of
    ``diag(A)`` (1 for a row that starts at 0).  A step whose cost is not
    finite and lower is refused and the damping raised ten-fold; an
    accepted one lowers it ten-fold.  The fit is done when the step at
    the damping's floor, and the accepted step if any, predict a cost drop
    of at most ``_FIT_FTOL`` of the cost; it raises RuntimeError where no
    step below the damping's ceiling lowers a cost the floor's step predicts
    to fall (a plateau), at a Jacobian that is not finite and after
    ``_FIT_ITERATIONS`` Jacobians.  The covariance is the inverse normal
    matrix of the last weighted Jacobian, from its SVD, infinite below
    scipy's rank threshold or with no degree of freedom left; scaled by
    ``reduced_chi2`` without ``sigma``, as it is with relative weights.
    """
    y = np.asarray(y, dtype=float)
    weight = 1.0 if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    p = np.asarray(p0, dtype=float)
    with np.errstate(all="ignore"):
        r = weight * (model(x, *p) - y)
        cost = float(r @ r)
        if not math.isfinite(cost):
            raise RuntimeError("the fit's starting cost is not finite")
        damping, scale = 1e-3, None
        for iteration in range(1, _FIT_ITERATIONS + 1):
            jac = jacobian(x, *p) * weight
            normal = jac @ jac.T
            # the diagonal holds the rows' squared norms: an inf or nan shows there
            if not math.isfinite(normal.trace()):
                raise RuntimeError("the fit's Jacobian is not finite")
            rows = normal.diagonal()
            scale = np.where(rows > 0.0, rows, 1.0) if scale is None else np.maximum(scale, rows)
            gradient = jac @ r
            step_at = lambda d: np.linalg.solve(normal + np.diag(d * scale), gradient)
            while True:
                step = step_at(damping)
                trial = p - step
                r_trial = weight * (model(x, *trial) - y)
                cost_trial = float(r_trial @ r_trial)
                limit = _FIT_FTOL * cost
                if cost_trial < cost:  # false for nan
                    # a damped step predicts less than an undamped one: both must be small
                    done = gradient @ step <= limit and gradient @ step_at(_MIN_DAMPING) <= limit
                    p, r, cost = trial, r_trial, cost_trial
                    damping = max(damping / 10.0, _MIN_DAMPING)
                    break
                damping *= 10.0
                if damping > _MAX_DAMPING:
                    # on a plateau the linear model asks for a step no damping shortens enough
                    if gradient @ step_at(_MIN_DAMPING) > limit:
                        raise RuntimeError("the fit stalled: no step lowers its cost")
                    done = True
                    break
            if done:
                dof = y.size - p.size
                chi2 = cost / dof if dof > 0 else math.inf
                u, s, _ = np.linalg.svd(jac, full_matrices=False)
                pcov = np.full((p.size, p.size), math.inf)
                if dof > 0 and s[-1] > np.finfo(float).eps * y.size * s[0]:
                    pcov = (u / (s * s)) @ u.T * (chi2 if sigma is None else 1.0)
                return Fit(p, pcov, chi2, iteration)
    raise RuntimeError(f"the fit did not converge in {_FIT_ITERATIONS} iterations")


def gate(value: float, sigma: float, z_min: float) -> tuple[float | None, bool]:
    """``(z, resolved)``: ``value`` in standard errors ``sigma``, None
    where ``sigma`` is not finite and positive (or ``z`` not finite), and
    whether ``value`` lies at least ``z_min`` standard errors above zero."""
    if not 0.0 < sigma < math.inf:
        return None, False
    z = value / sigma
    return (z if math.isfinite(z) else None), value >= z_min * sigma


def diagnostics(result: Fit | None, **z) -> dict:
    """A fitted scenario's ``meta.fit``: the fit's iterations and reduced
    chi-square, None where it failed or has no degree of freedom, and the z
    value its gate tested."""
    if result is None:
        return {"iterations": None, "reduced_chi2": None, **z}
    chi2 = result.reduced_chi2
    return {"iterations": result.iterations, "reduced_chi2": chi2 if chi2 < math.inf else None, **z}


def raman_model(x, amp, period, phase, floor):
    """The Raman precession ``amp * env * cos(2 pi t / period + phase) + floor``
    at the delays and memory coherences ``x = (t, env)``."""
    t, envelope = x
    return amp * envelope * np.cos(2.0 * np.pi / period * t + phase) + floor


def raman_jacobian(x, amp, period, phase, floor):
    t, envelope = x
    turns = 2.0 * np.pi / period * t
    swing = amp * envelope * np.sin(turns + phase)
    dperiod = swing * turns / period
    return np.array([envelope * np.cos(turns + phase), dperiod, -swing, np.ones_like(t)])


def decay_model(t, eta0, k):
    """The retrieval efficiency ``eta0 * exp(-k t)`` after storage ``t``."""
    return eta0 * np.exp(-k * t)


def decay_jacobian(t, eta0, k):
    decay = np.exp(-k * t)
    return np.array([decay, -t * eta0 * decay])


def decay_problem(t_arr, eta_arr, n_writes):
    """The decay fit's ``(t, eta, p0, sigma)`` over the points with write
    heralds, or None where fewer than three, or a span whose starting rate
    ``1 / span`` overflows, leave no decay to resolve.  Each error is binomial
    over the point's ``n`` write heralds, at ``eta`` kept ``1/(2n)`` from 0, 1."""
    ok = n_writes > 0
    t, eta, n = t_arr[ok], eta_arr[ok], n_writes[ok]
    span = float(np.ptp(t)) if t.size >= 3 else 0.0
    if not (span > 0.0 and math.isfinite(1.0 / span)):
        return None
    p = np.clip(eta, 0.5 / n, 1.0 - 0.5 / n)
    return t, eta, [max(eta[0], 1e-3), 1.0 / span], np.sqrt(p * (1.0 - p) / n)


def visibility_amplitude(v, decay, n_coinc) -> tuple[float, float]:
    """``(v0, v0_sigma)`` of ``v = v0 * decay``, each point weighed by its
    binomial variance ``(1 - v^2) / n`` over ``n_coinc`` (at least one) at
    the model value, not at its noisy own, which favours upward swings:
    n-weighted first, then refitted, up to 50 passes, until ``v0`` settles."""
    n = np.maximum(n_coinc, 1.0)
    weights, v0 = n, None
    for _ in range(50):
        denom = float(np.sum(weights * decay * decay))
        v0, previous = float(np.sum(weights * decay * v) / denom), v0
        if previous is not None and abs(v0 - previous) <= 1e-12 * abs(v0):
            break
        weights = n / np.clip(1.0 - (v0 * decay) ** 2, 1e-6, 1.0)
    v0_sigma = float(1.0 / math.sqrt(denom))
    # accidental subtraction adds noise beyond the binomial term the weights
    # assume, so calibrate the quoted sigma against the residual scatter
    if len(v) > 1:
        chi2 = float(np.sum(weights * (v - v0 * decay) ** 2))
        v0_sigma *= math.sqrt(max(chi2 / (len(v) - 1), 1.0))
    return v0, v0_sigma
