"""The shared conditioning helpers against the dense assembly, bit for bit.

The ML objective, the MCMC target and every posterior moment build the Gram
matrix from the distinct time lags of one dataset.  These tests pin that
this changes no bit: the gathered Gram, the factor, the profile objective
and the log likelihood all equal the direct n x n computation.  A covariance
that does not factor as given fails on every path alike.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from trendgp.estimation import _ml_workspace, _profile_mll, fit_ml
from trendgp.kernels import KernelSpec, MeanSpec, kernel_gram, mean_eval
from trendgp.posterior import Dataset, FactorizationError, Hyperparams, Posterior, _chol, _factor

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
    L = _chol(K)
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
    lags, index = Dataset(ts, np.zeros(ts.size)).lags
    assert _same_bits(kernel_gram(kernel, lags, [0.0]).ravel()[index], kernel_gram(kernel, ts, ts))


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
    try:
        L, loglik, profile, betas = _dense(data, degree, theta)
    except FactorizationError:
        with pytest.raises(FactorizationError):
            _factor(data, kernel, theta.sigma)
        return
    assert _same_bits(_factor(data, kernel, theta.sigma), L)
    assert _same_bits(Posterior(data, theta).loglik, loglik)
    design = np.vander(data.ts, degree + 1, increasing=True)
    if data.n <= degree:
        # fewer rows than mean coefficients, which no fit passes (fit_ml needs n >= 3)
        with pytest.raises(ValueError):
            _profile_mll(data, design, kernel, theta.sigma, _ml_workspace(data.n))
        return
    got_profile, got_betas, _ = _profile_mll(data, design, kernel, theta.sigma, _ml_workspace(data.n))
    assert _same_bits(got_profile, profile)
    assert _same_bits(got_betas, betas)


def test_singular_covariance_fails_on_every_path():
    # Near-duplicate times without noise: the Gram is singular in floating
    # point, and every path that factors it raises instead of factoring some
    # nearby matrix.  The ML fit counts such points as failed evaluations and
    # returns an optimum whose covariance factors as given.
    ts = np.array([0.0, 1e-9, 0.4, 0.4 + 1e-9, 0.8, 1.0])
    data = Dataset(ts, np.sin(6.0 * ts))
    kernel = KernelSpec("SE", 1.0, 0.3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(kernel_gram(kernel, ts, ts))
    with pytest.raises(FactorizationError, match="failed at diagonal"):
        _factor(data, kernel, 0.0)
    with pytest.raises(FactorizationError):
        Posterior(data, Hyperparams(MeanSpec((0.0,)), kernel, 0.0))
    with pytest.raises(FactorizationError):
        _profile_mll(data, np.vander(ts, 1, increasing=True), kernel, 0.0, _ml_workspace(data.n))
    fit = fit_ml(data)
    assert math.isclose(Posterior(data, fit.theta).loglik, fit.loglik, rel_tol=1e-9)


def test_reused_ml_workspace_gives_the_bits_of_fresh_buffers():
    # A sequence of evaluations through one workspace, as fit_ml makes them,
    # with two singular covariances part-way through: each fails on the
    # reused and a fresh workspace alike and leaves the workspace half
    # factored, and no later evaluation sees what an earlier one left there.
    ts = np.array([0.0, 1e-9, 0.15, 0.4, 0.4 + 1e-9, 0.55, 0.8, 1.0])
    data = Dataset(ts, np.sin(6.0 * ts))
    design = np.vander(ts, 2, increasing=True)
    steps = [(KernelSpec("M52", 1.0, 0.3), 0.2), (KernelSpec("SE", 1.0, 0.3), 0.0),
             (KernelSpec("RQ", 0.7, 0.2, 1.5), 0.05), (KernelSpec("SE", 1.3, 0.5), 0.0),
             (KernelSpec("SE", 0.4, 0.1), 0.3)]
    work = _ml_workspace(data.n)
    failures = 0
    for kernel, sigma in steps:
        dense = kernel_gram(kernel, ts, ts) + sigma**2 * np.eye(ts.size)
        try:
            np.linalg.cholesky(dense)
        except np.linalg.LinAlgError:
            failures += 1
            for buffers in (work, _ml_workspace(data.n)):
                with pytest.raises(FactorizationError):
                    _profile_mll(data, design, kernel, sigma, buffers)
            continue
        reused = _profile_mll(data, design, kernel, sigma, work)
        fresh = _profile_mll(data, design, kernel, sigma, _ml_workspace(data.n))
        assert _same_bits([reused[0], *reused[1], *reused[2]], [fresh[0], *fresh[1], *fresh[2]])
        _, _, profile, betas = _dense(data, 1, Hyperparams(MeanSpec((0.0, 0.0)), kernel, sigma))
        assert _same_bits([reused[0], *reused[1]], [profile, *betas])
        # syrk and syr write the upper triangle only; the gradient sums the whole buffer
        assert not np.tril(work[1], -1).any()
    assert failures == 2


@pytest.mark.parametrize(
    "ts, sigma, singular",
    [
        # near-duplicate times without noise: neither path factors it
        (np.array([0.0, 1e-9, 0.4, 0.4 + 1e-9, 0.8, 1.0]), 0.0, True),
        # the empty dataset that prior_joint conditions on
        (np.empty(0), 0.1, False),
    ],
    ids=["singular", "empty"],
)
def test_posterior_factor_and_loglik_match_dense_reference(ts, sigma, singular):
    data = Dataset(ts, np.sin(6.0 * ts))
    theta = Hyperparams(MeanSpec((0.2,)), KernelSpec("SE", 1.0, 0.3), sigma)
    if singular:
        with pytest.raises(FactorizationError):
            _dense(data, 0, theta)
        with pytest.raises(FactorizationError):
            Posterior(data, theta)
        return
    L, loglik, _, _ = _dense(data, 0, theta)
    post = Posterior(data, theta)
    assert _same_bits(post.chol, L)
    assert _same_bits(post.loglik, loglik)


@settings(max_examples=100, deadline=None)
@given(ts=times)
def test_distinct_lags_bounded_by_pairs(ts):
    n = ts.size
    lags, _ = Dataset(ts, np.zeros(n)).lags
    assert lags.size <= n * (n - 1) // 2 + 1
    assert lags[0] == 0.0


def _lag_times(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "calendar":  # daily times in 2020-2021, some days missing
        days = np.sort(rng.choice(731, min(n, 731), replace=False))
        return 2020.0 + days / 366.0
    if kind == "uniform":  # irregular: almost every lag distinct
        return np.unique(rng.uniform(-50.0, 50.0, n))
    if kind == "linspace":  # lags of one offset differ by an ulp
        return np.linspace(rng.uniform(-5.0, 5.0), rng.uniform(6.0, 20.0), n)
    return np.arange(float(n % 2))  # n = 0 or 1


lag_times = st.builds(
    _lag_times,
    st.sampled_from(["calendar", "uniform", "linspace", "tiny"]),
    st.integers(0, 300),  # past 181 points the table is built in several row blocks
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=100, deadline=None)
@given(ts=lag_times)
def test_lag_table_is_sorted_distinct_exact_and_symmetric(ts):
    n = ts.size
    lags, index = Dataset(ts, np.zeros(n)).lags
    assert np.all(lags[1:] > lags[:-1])
    assert index.shape == (n, n)
    assert _same_bits(lags[index], np.abs(ts[:, None] - ts[None, :]))
    assert np.array_equal(index, index.T)
    # the tables of one sort over every lag, which the row blocks avoid
    want_lags, want_index = np.unique(np.abs(ts[:, None] - ts[None, :]).ravel(), return_inverse=True)
    assert _same_bits(lags, want_lags)
    assert np.array_equal(index.ravel(), want_index) and index.dtype == want_index.dtype


def test_lag_table_transient_memory_is_bounded():
    # Irregular times have n(n-1)/2 + 1 distinct lags, the most there can be.
    # Sorting all n^2 lags took 16.8 MiB here; the table stays within 2 n^2
    # doubles, the n x n index it keeps included.
    n = 600
    data = Dataset(np.sort(np.random.default_rng(3).uniform(0.0, 1.0, n)), np.zeros(n))
    tracemalloc.start()
    try:
        lags, _ = data.lags
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lags.size == n * (n - 1) // 2 + 1
    assert peak <= 2 * n * n * 8, peak


def test_integer_grid_has_one_lag_per_offset():
    ts = np.arange(1990.0, 2020.0)
    lags, _ = Dataset(ts, np.zeros(ts.size)).lags
    assert np.array_equal(lags, np.arange(ts.size, dtype=float))


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("layout", ["regular", "irregular", "calendar"])
def test_profile_gradient_matches_central_differences(layout, degree):
    # GPML eq. 5.9 against a fourth-order stencil of the profile value itself;
    # the value's own rounding (the GLS solve on a calendar-year quadratic
    # design is the worst) limits the agreement to about 1e-8.
    h = 1e-3
    for seed, family in enumerate(("SE", "RQ", "M52", "M32")):
        rng = np.random.default_rng(seed)
        ts = _times(layout, 25, seed)
        span = ts[-1] - ts[0]
        data = Dataset(ts, np.sin(5.0 * (ts - ts[0]) / span) + 0.2 * rng.standard_normal(ts.size))
        design = np.vander(ts, degree + 1, increasing=True)
        z = np.log([1.0, 0.2 * span] + ([1.5] if family == "RQ" else []) + [0.2])

        def profile(z):
            nu = math.exp(z[2]) if family == "RQ" else None
            return _profile_mll(data, design, KernelSpec(family, math.exp(z[0]), math.exp(z[1]), nu),
                                math.exp(z[-1]), _ml_workspace(data.n))

        _, _, grad = profile(z)
        fd = np.empty_like(grad)
        for i, step in enumerate(h * np.eye(z.size)):
            f = [profile(z + m * step)[0] for m in (2, 1, -1, -2)]
            fd[i] = (-f[0] + 8.0 * f[1] - 8.0 * f[2] + f[3]) / (12.0 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad)), (family, grad, fd)
