"""The weighted Levenberg-Marquardt fitter ``fit.curve_fit``, the two models
it fits, its covariance rule and the significance gate.  The runners call
the fitter as ``harness.curve_fit``, the name the benchmark's span wraps."""

import math
import warnings

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim import fit
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
    y = fit.raman_model(RAMAN_X, *truth) + rng.normal(0.0, 1.2e-4, RAMAN_T.size)
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
    "raman": (fit.raman_model, fit.raman_jacobian, raman_problem),
    "lifetime": (fit.decay_model, fit.decay_jacobian, lifetime_problem),
}


@pytest.mark.parametrize("name", MODELS)
def test_matches_scipy_curve_fit(name):
    # scipy is a test dependency only: the oracle is MINPACK's lmdif with
    # its forward-difference Jacobian, good to its xtol of 1.5e-8
    optimize = pytest.importorskip("scipy.optimize")
    model, jacobian, problem = MODELS[name]
    for seed in range(10):
        x, y, p0, sigma = problem(seed)
        result = fit.curve_fit(model, jacobian, x, y, p0, sigma)
        popt, pcov = optimize.curve_fit(
            model, x, y, p0=p0, sigma=sigma, absolute_sigma=sigma is not None, maxfev=20000
        )
        sigmas = np.sqrt(np.diag(result.pcov))
        np.testing.assert_array_less(np.abs(result.popt - popt), 1e-3 * sigmas, err_msg=str(seed))
        np.testing.assert_allclose(sigmas, np.sqrt(np.diag(pcov)), rtol=1e-4, err_msg=str(seed))
        assert 1 <= result.iterations < fit._FIT_ITERATIONS


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
        p0 = [0.0, PERIOD, 0.0, 0.003]
        result = fit.curve_fit(fit.raman_model, fit.raman_jacobian, RAMAN_X, y, p0)
    np.testing.assert_array_equal(result.popt, [0.0, PERIOD, 0.0, 0.003])
    assert result.reduced_chi2 == 0.0
    # an unweighted fit's covariance scales by the reduced chi-square, but
    # an infinite one stays infinite: inf * 0 would be nan
    assert np.all(np.isinf(result.pcov))


def test_no_degree_of_freedom_has_infinite_covariance():
    t = np.array([0.0, 10.0])
    result = fit.curve_fit(fit.decay_model, fit.decay_jacobian, t, [0.3, 0.2], [0.3, 0.05])
    assert result.popt == pytest.approx([0.3, math.log(1.5) / 10.0])
    assert result.reduced_chi2 == math.inf
    assert np.all(np.isinf(result.pcov))


def test_step_to_a_huge_decay_rate_stays_silent():
    # the model is 1e-35 at the last point from the start, so the first
    # Gauss-Newton step asks for a decay rate near -4e7, whose exponential
    # overflows; the fitter refuses it quietly and reaches the optimum
    tried = []

    def model(t, eta0, k):
        tried.append(k)
        return fit.decay_model(t, eta0, k)

    t = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    sigma = np.full(t.size, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit.curve_fit(model, fit.decay_jacobian, t, y, [0.5, 2.0], sigma)
    assert min(tried) < -1e6
    assert result.popt == pytest.approx([0.5199454, 0.0322173], rel=1e-5)


def test_fit_that_does_not_converge_raises():
    # exp(-a) approaches 0 for ever: every step lowers the cost, none ends it
    with pytest.raises(RuntimeError, match="did not converge"):
        fit.curve_fit(
            lambda x, a: np.exp(-a) * x,
            lambda x, a: np.array([-np.exp(-a) * x]),
            np.ones(3),
            np.zeros(3),
            [0.0],
        )


def test_non_finite_start_raises():
    with pytest.raises(RuntimeError, match="starting cost"):
        fit.curve_fit(fit.decay_model, fit.decay_jacobian, LIFETIME_T, np.zeros(23), [1.0, -1e300])


def test_unweighted_covariance_scales_by_reduced_chi2():
    # unit sigmas weigh every point as an unweighted fit does, but leave
    # the covariance unscaled
    x, y, p0, _ = raman_problem(0)
    scaled = fit.curve_fit(fit.raman_model, fit.raman_jacobian, x, y, p0)
    unscaled = fit.curve_fit(fit.raman_model, fit.raman_jacobian, x, y, p0, np.ones(y.size))
    np.testing.assert_array_equal(scaled.popt, unscaled.popt)
    assert 0.0 < scaled.reduced_chi2 < 1.0
    np.testing.assert_array_equal(scaled.pcov, unscaled.pcov * scaled.reduced_chi2)


def test_fit_stalled_on_a_plateau_raises():
    # from k = 5, exp(-k t) is below 1e-21 at every t > 0: each Gauss-Newton
    # step asks for k near -1e20, and no damping below the ceiling shortens
    # it enough to lower the cost, though the model predicts it can fall
    t = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    with pytest.raises(RuntimeError, match="stalled"):
        fit.curve_fit(fit.decay_model, fit.decay_jacobian, t, y, [0.5, 5.0])
    result = fit.curve_fit(fit.decay_model, fit.decay_jacobian, t, y, [0.5, 1.0 / 40.0])
    assert result.popt == pytest.approx([0.5199454, 0.0322173], rel=1e-5)


@pytest.mark.parametrize("sigma", [0.0, math.inf, math.nan])
def test_gate_needs_a_finite_positive_sigma(sigma):
    assert fit.gate(1.0, sigma, 3.0) == (None, False)


def test_gate_resolves_a_value_at_its_threshold():
    assert fit.gate(1.5, 0.5, 3.0) == (3.0, True)
    assert fit.gate(1.4, 0.5, 3.0) == (pytest.approx(2.8), False)
    assert fit.gate(-1.5, 0.5, 3.0) == (-3.0, False)


@pytest.mark.parametrize("scenario", ["raman_delay_sweep", "lifetime_sweep"])
def test_runner_fits_once_through_the_harness_name(scenario, monkeypatch):
    # the benchmark's harness.curve_fit span wraps this name: a fitted
    # scenario that stopped calling it would leave the span reading 0
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return fit.curve_fit(*args, **kwargs)

    monkeypatch.setattr(h, "curve_fit", counting)
    cfg = cf.preset("paper").with_overrides(scenario=scenario, samples=20_000)
    report = h.run_scenario(cfg)
    assert len(calls) == 1
    assert report.meta["fit"]["iterations"] >= 1
