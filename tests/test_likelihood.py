"""The per-dataset likelihood evaluator against the dense assembly, bit for bit.

The ML objective and the MCMC target build the Gram matrix from the distinct
time lags of one dataset.  These tests pin that this changes no bit: the
gathered Gram, the factor (jitter rungs included), the profile objective and
the log likelihood all equal the direct n x n computation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from trendgp.estimation import _Likelihood, marginal_loglik
from trendgp.kernels import KernelSpec, MeanSpec, kernel_gram, mean_eval
from trendgp.posterior import Dataset, FactorizationError, Hyperparams, _chol

_LOG_2PI = math.log(2.0 * math.pi)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _same_bits(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


def _times(layout: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if layout == "regular":
        return np.linspace(0.0, 1.0, n)
    if layout == "irregular":
        gaps = rng.exponential(1.0, n)
        return np.cumsum(gaps + 1e-3)
    # daily observations on a calendar-year axis, a few days missing
    days = np.sort(rng.choice(np.arange(3 * n), n, replace=False))
    return 2020.0 + days / 366.0


times = st.builds(
    _times,
    st.sampled_from(["regular", "irregular", "calendar"]),
    st.integers(2, 40),
    st.integers(0, 2**31 - 1),
)


@st.composite
def kernels(draw):
    family = draw(st.sampled_from(["SE", "RQ", "M52", "M32"]))
    alpha = math.exp(draw(st.floats(-3.0, 3.0)))
    rho = math.exp(draw(st.floats(-5.0, 2.0)))
    nu = None
    if family == "RQ":
        nu = draw(st.one_of(st.floats(0.05, 50.0), st.floats(0.9e6, 1.1e6)))
    return KernelSpec(family, alpha, rho, nu)


def _dense(data: Dataset, degree: int, theta: Hyperparams):
    """The dense n x n path: factor, log likelihood, profile objective, GLS betas."""
    n = data.n
    K = kernel_gram(theta.kernel, data.ts, data.ts) + theta.sigma**2 * np.eye(n)
    L = _chol(K, theta.kernel.alpha**2)
    logdet = np.sum(np.log(np.diag(L)))
    white = solve_triangular(L, data.ys - mean_eval(theta.mean, 0, data.ts), lower=True)
    loglik = float(-0.5 * n * _LOG_2PI - logdet - 0.5 * white @ white)
    X = np.vander(data.ts, degree + 1, increasing=True)
    Xw = solve_triangular(L, X, lower=True)
    yw = solve_triangular(L, data.ys, lower=True)
    betas, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    resid = yw - Xw @ betas
    profile = float(-0.5 * n * _LOG_2PI - logdet - 0.5 * resid @ resid)
    return L, loglik, profile, tuple(betas)


@settings(max_examples=150, deadline=None)
@given(ts=times, kernel=kernels())
def test_gathered_gram_is_bit_identical(ts, kernel):
    lik = _Likelihood(Dataset(ts, np.zeros(ts.size)), 0)
    assert _same_bits(lik.gram(kernel), kernel_gram(kernel, ts, ts))


@settings(max_examples=80, deadline=None)
@given(
    ts=times,
    kernel=kernels(),
    log_sigma=st.floats(-8.0, 1.0),
    degree=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_objective_and_loglik_match_dense_reference(ts, kernel, log_sigma, degree, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(ts, 10.0 * rng.standard_normal(ts.size))
    theta = Hyperparams(MeanSpec(tuple(rng.normal(0, 1, degree + 1))), kernel, math.exp(log_sigma))
    lik = _Likelihood(data, degree)
    try:
        L, loglik, profile, betas = _dense(data, degree, theta)
    except FactorizationError:
        with pytest.raises(FactorizationError):
            lik.factor(kernel, theta.sigma)
        return
    assert _same_bits(lik.factor(kernel, theta.sigma), L)
    assert _same_bits(lik.marginal_loglik(theta), loglik)
    assert _same_bits(marginal_loglik(data, theta), loglik)
    got_profile, got_betas = lik.profile_mll(kernel, theta.sigma)
    assert _same_bits(got_profile, profile)
    assert _same_bits(got_betas, betas)


def test_jitter_rung_gives_the_dense_factor():
    # Near-duplicate times without noise: the plain factorization fails and a
    # jitter rung has to fire, on both paths alike.
    ts = np.array([0.0, 1e-9, 0.4, 0.4 + 1e-9, 0.8, 1.0])
    data = Dataset(ts, np.sin(6.0 * ts))
    kernel = KernelSpec("SE", 1.0, 0.3)
    theta = Hyperparams(MeanSpec((0.0,)), kernel, 0.0)
    dense = kernel_gram(kernel, ts, ts) + 0.0 * np.eye(ts.size)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(dense)
    lik = _Likelihood(data, 0)
    assert _same_bits(lik.factor(kernel, 0.0), _chol(dense, kernel.alpha**2))
    L, loglik, profile, betas = _dense(data, 0, theta)
    assert _same_bits(lik.marginal_loglik(theta), loglik)
    got_profile, got_betas = lik.profile_mll(kernel, 0.0)
    assert _same_bits(got_profile, profile)
    assert _same_bits(got_betas, betas)


@settings(max_examples=100, deadline=None)
@given(ts=times)
def test_distinct_lags_bounded_by_pairs(ts):
    n = ts.size
    lik = _Likelihood(Dataset(ts, np.zeros(n)), 0)
    assert lik.lags.size <= n * (n - 1) // 2 + 1
    assert lik.lags[0] == 0.0


def test_integer_grid_has_one_lag_per_offset():
    ts = np.arange(1990.0, 2020.0)
    lik = _Likelihood(Dataset(ts, np.zeros(ts.size)), 0)
    assert np.array_equal(lik.lags, np.arange(ts.size, dtype=float))
