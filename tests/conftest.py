"""Shared oracles and instance generators for the test suite.

The finite-difference oracle runs in high-precision arithmetic so that the
h^2 truncation error of the central stencils is the only error term; the
conditioning oracle builds the full dense joint normal and conditions by a
generic solve, independent of the production Cholesky path.  The sampling
oracles draw joint paths from `Posterior.joint` and check the closed-form
indices by Monte Carlo: the trend's sign (`tdi`, `tdi_original_scale`) and
its sign changes (`crossing_prob_mc`).
"""

import csv
import os

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit

from trendgp.dataio import iso_to_fractional_year
from trendgp.indices import _gauss_upper
from trendgp.kernels import AssumptionError, KernelSpec, MeanSpec, kernel_gram, mean_eval, validate_assumptions
from trendgp.posterior import Dataset, Hyperparams, JointPosterior, PathSampler, Posterior, prior_joint
from trendgp.transforms import TransformSpec, transform_dataset

mp.mp.dps = 50


def kernel_mp(family, alpha, rho, nu, s, t):
    """Covariance evaluated in arbitrary precision."""
    alpha, rho, s, t = map(mp.mpf, (alpha, rho, s, t))
    d = s - t
    if family == "SE":
        return alpha**2 * mp.e ** (-(d**2) / (2 * rho**2))
    if family == "RQ":
        nu = mp.mpf(nu)
        return alpha**2 * (1 + d**2 / (2 * rho**2 * nu)) ** (-nu)
    if family == "M52":
        x = mp.sqrt(5) * abs(d) / rho
        return alpha**2 * (1 + x + x**2 / 3) * mp.e ** (-x)
    if family == "M32":
        x = mp.sqrt(3) * abs(d) / rho
        return alpha**2 * (1 + x) * mp.e ** (-x)
    if family == "OU":
        return alpha**2 * mp.e ** (-abs(d) / rho)
    raise ValueError(family)


def fd_partial(spec: KernelSpec, order_s: int, order_t: int, s: float, t: float, h: float) -> float:
    """Central finite differences of the covariance at step h, in mpmath.

    Second-order accurate in both arguments; with 50-digit arithmetic the
    roundoff term is negligible even for the (2,2) stencil.
    """
    nu = spec.nu

    def c(i: int, j: int):
        return kernel_mp(spec.family, spec.alpha, spec.rho, nu, s + i * h, t + j * h)

    hh = mp.mpf(h)
    stencils = {
        0: ((0, mp.mpf(1)),),
        1: ((-1, mp.mpf(-0.5) / hh), (1, mp.mpf(0.5) / hh)),
        2: ((-1, 1 / hh**2), (0, -2 / hh**2), (1, 1 / hh**2)),
    }
    total = mp.mpf(0)
    for i, wi in stencils[order_s]:
        for j, wj in stencils[order_t]:
            total += wi * wj * c(i, j)
    return float(total)


def fd_rel_err(
    spec: KernelSpec, order_s: int, order_t: int, s: float, t: float, h_factor: float = 1e-4
) -> float:
    """Relative gap between the analytic partial and the h = h_factor * rho stencil.

    Pointwise relative error is ill-defined near zeros of a partial (and the
    stencil's own h^2 truncation dominates there), so the denominator is
    floored at 5% of the partial's characteristic magnitude
    alpha^2 / rho^order.  A wrong derivative formula is off by O(1) on that
    scale, so the floor cannot mask real defects.
    """
    from trendgp.kernels import kernel_partial

    got = kernel_partial(spec, order_s, order_t, s, t)
    want = fd_partial(spec, order_s, order_t, s, t, h_factor * spec.rho)
    scale = spec.alpha**2 / spec.rho ** (order_s + order_t)
    return abs(got - want) / max(abs(want), 5e-2 * scale)


def schur_oracle(data: Dataset, theta: Hyperparams, grid, orders=(0, 1, 2)):
    """Dense conditioning oracle: full joint normal + generic linear solve."""
    grid = np.asarray(grid, dtype=float)
    p = grid.size
    ker, mean = theta.kernel, theta.mean
    prior_cov = np.block(
        [[kernel_gram(ker, grid, grid, a, b) for b in orders] for a in orders]
    )
    prior_mu = np.concatenate(
        [np.broadcast_to(np.asarray(mean_eval(mean, a, grid), dtype=float), (p,)) for a in orders]
    )
    if data.n == 0:
        return prior_mu, prior_cov
    cross = np.vstack([kernel_gram(ker, grid, data.ts, a, 0) for a in orders])
    obs_cov = kernel_gram(ker, data.ts, data.ts) + theta.sigma**2 * np.eye(data.n)
    resid = data.ys - mean_eval(mean, 0, data.ts)
    solve = np.linalg.solve
    mu = prior_mu + cross @ solve(obs_cov, resid)
    cov = prior_cov - cross @ solve(obs_cov, cross.T)
    return mu, cov


def joint_posterior(data: Dataset, theta: Hyperparams, grid, blocks=None) -> JointPosterior:
    """Posterior of (f, df, d2f) given the data; prior when the data are empty."""
    return Posterior(data, theta).joint(grid, blocks)


def sample_paths(jp: JointPosterior, k: int, seed: int) -> np.ndarray:
    """Draw k independent joint paths from N(mu, sigma_mat); deterministic per seed."""
    if k == 0:  # nothing to draw, so nothing to factor
        return np.empty((0, jp.mu.size))
    return PathSampler.of(jp).draw(k, seed)


def simulate_gp(theta: Hyperparams, grid, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One joint draw of (f, df) from the prior on the given grid."""
    draw = sample_paths(prior_joint(theta, grid, blocks=("f", "df")), 1, seed)[0]
    p = draw.size // 2
    return draw[:p], draw[p:]


def tdi(data: Dataset, theta: Hyperparams, t: float, delta: float = 0.0, threshold: float = 0.0) -> float:
    """Probability that the latent trend at t + delta exceeds `threshold`.

    That is the TDI with the trend's posterior mean shifted down by the threshold.
    """
    mm = Posterior(data, theta).marginal([float(t) + float(delta)])
    return float(_gauss_upper(mm.mu_df - threshold, mm.var_df)[0])


def inverse_deriv(spec: TransformSpec, z):
    """(g^{-1})'(z) on the whole line; negative where sin^2 decreases (arcsine_sqrt)."""
    z = np.asarray(z, dtype=float)
    if spec.kind == "identity":
        return np.ones_like(z)
    if spec.kind == "log":
        return np.exp(z)
    if spec.kind == "logit":
        return expit(z) * expit(-z)
    return np.sin(2.0 * z)


def tdi_original_scale(
    data: Dataset,
    spec: TransformSpec,
    theta: Hyperparams,
    t: float,
    delta: float = 0.0,
    method: str = "exact",
    k: int = 100_000,
    seed: int = 0,
) -> float:
    """TDI of the original-scale outcome under a model fitted on g(Y).

    The exact pathway is the transformed-scale TDI, since sign(d/dt g^{-1}(h))
    = sign(dh) where g^{-1} increases: for arcsine_sqrt, only while h stays in
    [0, pi/2] (ROADMAP item 3).  The Monte-Carlo pathway samples (h, dh) pairs
    and evaluates the original-scale trend (g^{-1})'(h) * dh, to check that.
    """
    tdata = transform_dataset(spec, data)
    if method == "exact":
        return tdi(tdata, theta, t, delta)
    if method != "mc":
        raise ValueError(f"method must be 'exact' or 'mc', got {method!r}")
    jp = joint_posterior(tdata, theta, [float(t) + float(delta)], blocks=("f", "df"))
    draws = sample_paths(jp, k, seed)
    h, dh = draws[:, 0], draws[:, 1]
    slope = inverse_deriv(spec, h) * dh  # d/dt g^{-1}(h) by the chain rule
    return float(np.mean(slope > 0.0))


def crossing_prob_mc(
    data: Dataset,
    theta: Hyperparams,
    interval,
    k: int,
    grid_density: int = 200,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of P(at least one trend sign change on [a, b]).

    A sampled derivative path on the grid has changed sign iff it takes both
    positive and negative values, which is `count_crossings(path).total > 0`.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a <= b:
        raise ValueError(f"interval must satisfy a <= b, got ({a}, {b})")
    violation = validate_assumptions(theta.kernel, require_eti=True)
    if violation is not None:
        raise AssumptionError(str(violation))
    if a == b or k == 0:
        return 0.0
    grid = np.linspace(a, b, max(int(grid_density), 2))
    paths = sample_paths(joint_posterior(data, theta, grid, blocks=("df",)), k, seed)
    crossed = np.count_nonzero((paths > 0.0).any(axis=1) & (paths < 0.0).any(axis=1))
    return crossed / k


def random_kernel(rng, families=("SE", "RQ", "M52"), alpha_range=(0.3, 3.0), rho_range=(0.2, 2.0)):
    family = families[rng.integers(len(families))]
    alpha = float(rng.uniform(*alpha_range))
    rho = float(rng.uniform(*rho_range))
    nu = float(rng.uniform(0.3, 8.0)) if family == "RQ" else None
    return KernelSpec(family, alpha, rho, nu)


def random_instance(rng, n=None, families=("SE", "RQ", "M52"), sigma_range=(0.05, 0.5)):
    """A random dataset/hyper-parameter pair with a well-conditioned gram."""
    n = int(rng.integers(3, 9)) if n is None else n
    kernel = random_kernel(rng, families)
    degree = int(rng.integers(0, 3))
    betas = tuple(rng.normal(0, 1, degree + 1))
    sigma = float(rng.uniform(*sigma_range)) * kernel.alpha
    theta = Hyperparams(MeanSpec(betas), kernel, sigma)
    span = float(rng.uniform(1.0, 4.0))
    ts = np.sort(rng.uniform(0.0, span, n))
    while np.any(np.diff(ts) <= 1e-6):
        ts = np.sort(rng.uniform(0.0, span, n))
    f = mean_eval(theta.mean, 0, ts) + np.linalg.cholesky(
        kernel_gram(kernel, ts, ts) + 1e-10 * kernel.alpha**2 * np.eye(n)
    ) @ rng.standard_normal(n)
    ys = f + sigma * rng.standard_normal(n)
    return Dataset(ts, ys), theta


def eti_instance(rng):
    """One of C5's instances: a zero-mean posterior on [0, 1] with data drawn from its prior."""
    n = int(rng.integers(5, 10))
    family = ("SE", "RQ", "M52")[int(rng.integers(3))]
    alpha = float(rng.uniform(0.5, 2.0))
    rho = float(rng.uniform(0.12, 0.3))
    nu = float(rng.uniform(0.5, 5.0)) if family == "RQ" else None
    sigma = float(rng.uniform(0.1, 0.3)) * alpha
    theta = Hyperparams(MeanSpec((0.0,)), KernelSpec(family, alpha, rho, nu), sigma)
    ts = np.sort(rng.uniform(0.0, 1.0, n))
    while np.any(np.diff(ts) <= 1e-4):
        ts = np.sort(rng.uniform(0.0, 1.0, n))
    jp = prior_joint(theta, ts, blocks=("f",))
    f = sample_paths(jp, 1, seed=int(rng.integers(2**31)))[0]
    ys = f + sigma * rng.standard_normal(n)
    return Dataset(ts, ys), theta


def covid_log_series() -> Dataset:
    """Log daily new cases of the pinned COVID fixture on its calendar-year axis (n = 90)."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "dpc-covid19-ita-andamento-nazionale.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ts = np.array([iso_to_fractional_year(r["data"]) for r in rows])
    return Dataset(ts, np.log([float(r["nuovi_positivi"]) for r in rows]))


def count_sign_flips(paths: np.ndarray) -> np.ndarray:
    """Vectorized strict sign-change count per row (continuous draws: no ties)."""
    return np.sum(paths[:, 1:] * paths[:, :-1] < 0, axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
