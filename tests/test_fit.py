"""The harness's weighted Levenberg-Marquardt fitter and the two models it fits."""

import math
import warnings

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim import harness as h
from memnet_sim import node as nd

NODE = cf.preset("paper").node("I")
PERIOD = NODE.zeeman_period_us
RAMAN_T = np.linspace(0.0, 3.0 * PERIOD, 33)
RAMAN_X = np.stack([RAMAN_T, nd.memory_coherence(NODE, RAMAN_T)])
LIFETIME_T = PERIOD * np.arange(23)


def raman_problem(seed):
    """Noisy Raman points as raman_delay_sweep sees them at 200k trials per
    point, with the runner's starting point."""
    rng = np.random.default_rng(seed)
    truth = [0.0024, PERIOD * rng.uniform(0.98, 1.02), rng.uniform(-0.3, 0.3), 0.0028]
    y = h._raman_model(RAMAN_X, *truth) + rng.normal(0.0, 1.2e-4, RAMAN_T.size)
    p0 = [0.5 * (y.max() - y.min()), PERIOD, 0.0, float(y.mean())]
    return RAMAN_X, y, p0, None


def lifetime_problem(seed):
    """Binomial efficiencies as _fit_lifetime sees them, with its weights and
    starting point, over 150 to 15,000 write heralds per point."""
    rng = np.random.default_rng(seed)
    n = np.full(LIFETIME_T.size, [150.0, 1_500.0, 15_000.0][seed % 3])
    eta = rng.binomial(n.astype(int), 0.27 * np.exp(-LIFETIME_T / 75.0)) / n
    p = np.clip(eta, 0.5 / n, 1.0 - 0.5 / n)
    p0 = [max(eta[0], 1e-3), 1.0 / np.ptp(LIFETIME_T)]
    return LIFETIME_T, eta, p0, np.sqrt(p * (1.0 - p) / n)


MODELS = {
    "raman": (h._raman_model, h._raman_jacobian, raman_problem),
    "lifetime": (h._decay_model, h._decay_jacobian, lifetime_problem),
}


@pytest.mark.parametrize("name", MODELS)
def test_matches_scipy_curve_fit(name):
    # scipy is a test dependency only: the oracle is MINPACK's lmdif with
    # its forward-difference Jacobian, good to its xtol of 1.5e-8
    optimize = pytest.importorskip("scipy.optimize")
    model, jacobian, problem = MODELS[name]
    for seed in range(10):
        x, y, p0, sigma = problem(seed)
        fit = h.curve_fit(model, jacobian, x, y, p0, sigma)
        popt, pcov = optimize.curve_fit(
            model, x, y, p0=p0, sigma=sigma, absolute_sigma=sigma is not None, maxfev=20000
        )
        # the Raman points are unweighted: their covariance scales by the residual variance
        scale = fit.reduced_chi2 if sigma is None else 1.0
        sigmas = np.sqrt(np.diag(fit.pcov) * scale)
        np.testing.assert_array_less(np.abs(fit.popt - popt), 1e-3 * sigmas, err_msg=str(seed))
        np.testing.assert_allclose(sigmas, np.sqrt(np.diag(pcov)), rtol=1e-4, err_msg=str(seed))
        assert 1 <= fit.iterations < h._FIT_ITERATIONS


@pytest.mark.parametrize("name", MODELS)
def test_jacobian_matches_central_differences(name):
    model, jacobian, problem = MODELS[name]
    x, _, p0, _ = problem(0)
    rng = np.random.default_rng(1)
    for p in (np.array(p0), np.array(p0) * rng.uniform(0.5, 1.5, len(p0))):
        rows = []
        for i in range(p.size):
            dp = np.zeros(p.size)
            dp[i] = 1e-6 * max(abs(p[i]), 1e-3)
            rows.append((model(x, *(p + dp)) - model(x, *(p - dp))) / (2.0 * dp[i]))
        np.testing.assert_allclose(jacobian(x, *p), rows, rtol=1e-6, atol=1e-9)


def test_rank_deficient_fit_has_infinite_covariance():
    # with no amplitude the period and phase move nothing: their rows are 0
    y = np.full(RAMAN_T.size, 0.003)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = h.curve_fit(h._raman_model, h._raman_jacobian, RAMAN_X, y, [0.0, PERIOD, 0.0, 0.003])
    np.testing.assert_array_equal(fit.popt, [0.0, PERIOD, 0.0, 0.003])
    assert fit.reduced_chi2 == 0.0
    assert np.all(np.isinf(fit.pcov))


def test_no_degree_of_freedom_has_infinite_covariance():
    t = np.array([0.0, 10.0])
    fit = h.curve_fit(h._decay_model, h._decay_jacobian, t, [0.3, 0.2], [0.3, 0.05])
    assert fit.popt == pytest.approx([0.3, math.log(1.5) / 10.0])
    assert fit.reduced_chi2 == math.inf
    assert np.all(np.isinf(fit.pcov))


def test_step_to_a_huge_decay_rate_stays_silent():
    # the model is 1e-35 at the last point from the start, so the first
    # Gauss-Newton step asks for a decay rate near -4e7, whose exponential
    # overflows; the fitter refuses it quietly and reaches the optimum
    tried = []

    def model(t, eta0, k):
        tried.append(k)
        return h._decay_model(t, eta0, k)

    t = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    sigma = np.full(t.size, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = h.curve_fit(model, h._decay_jacobian, t, y, [0.5, 2.0], sigma)
    assert min(tried) < -1e6
    assert fit.popt == pytest.approx([0.5199454, 0.0322173], rel=1e-5)


def test_fit_that_does_not_converge_raises():
    # exp(-a) approaches 0 for ever: every step lowers the cost, none ends it
    with pytest.raises(RuntimeError, match="did not converge"):
        h.curve_fit(
            lambda x, a: np.exp(-a) * x,
            lambda x, a: np.array([-np.exp(-a) * x]),
            np.ones(3),
            np.zeros(3),
            [0.0],
        )


def test_non_finite_start_raises():
    with pytest.raises(RuntimeError, match="starting cost"):
        h.curve_fit(h._decay_model, h._decay_jacobian, LIFETIME_T, np.zeros(23), [1.0, -1e300])
