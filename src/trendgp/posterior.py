"""Joint posterior of a latent Gaussian process and its first two derivatives.

Conditioning a GP prior on noisy observations keeps the joint law of
(f, df, d2f) Gaussian on any finite evaluation grid; the moments are the
usual kriging formulas with the covariance replaced by the appropriate
mixed partial.  `Posterior` factorizes C(t, t) + sigma^2 I once per
(data, theta); the marginal likelihood and every block, moment and grid
evaluated under that theta share the one lower-triangular factor.

Every kernel is stationary, so the Gram matrix depends on the times only
through the lags |t_i - t_j|.  A dataset keeps its distinct lags and the
index that gathers them back onto the n x n matrix, so each theta costs one
kernel evaluation per distinct lag; equally spaced times give O(n) of them
instead of n^2 entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .kernels import (
    AssumptionError,
    KernelSpec,
    MeanSpec,
    kernel_gram,
    mean_eval,
    require_assumptions,
)

BLOCK_ORDER = ("f", "df", "d2f")
_DERIV_ORDER = {"f": 0, "df": 1, "d2f": 2}

# Jitter ladder for factorizations that fail without one, in units of
# alpha^2 (plus sigma^2 where it already sits on the diagonal).  The first
# rung is the documented 1e-10 * alpha^2 safeguard; later rungs only trigger
# for genuinely degenerate inputs.
_JITTERS = (1e-10, 1e-8, 1e-6)

_LOG_2PI = math.log(2.0 * math.pi)


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after jitter."""


@dataclass(frozen=True)
class Dataset:
    """Scalar time series: strictly increasing times and one outcome each.

    Missing observations are simply absent rows; irregular spacing is fine.
    """

    ts: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float).ravel()
        ys = np.asarray(self.ys, dtype=float).ravel()
        if ts.shape != ys.shape:
            raise ValueError(f"ts and ys must have equal length, got {ts.size} and {ys.size}")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ys))):
            raise ValueError("ts and ys must be finite")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("ts must be strictly increasing (duplicate times are rejected)")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.ts.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    @functools.cached_property
    def lags(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct lags |t_i - t_j| and the n x n index that gathers them back."""
        ts = self.ts
        lags, index = np.unique(np.abs(ts[:, None] - ts[None, :]).ravel(), return_inverse=True)
        return lags, index.reshape(self.n, self.n)


@dataclass(frozen=True)
class Hyperparams:
    """Full model parameterization: mean coefficients, kernel, noise SD."""

    mean: MeanSpec
    kernel: KernelSpec
    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")


@dataclass(frozen=True)
class JointPosterior:
    """Gaussian law of the latent blocks on a grid.

    mu stacks the per-block means in the fixed order f, df, d2f (restricted
    to `blocks`); sigma_mat is the matching block covariance matrix.
    """

    grid: np.ndarray
    blocks: tuple[str, ...]
    mu: np.ndarray
    sigma_mat: np.ndarray

    @property
    def p(self) -> int:
        return self.grid.size

    def _index(self, block: str) -> int:
        try:
            return self.blocks.index(block)
        except ValueError:
            raise KeyError(f"block {block!r} not present; have {self.blocks}") from None

    def mean_block(self, block: str) -> np.ndarray:
        i = self._index(block)
        return self.mu[i * self.p : (i + 1) * self.p]

    def cov_block(self, row: str, col: str) -> np.ndarray:
        i, j = self._index(row), self._index(col)
        p = self.p
        return self.sigma_mat[i * p : (i + 1) * p, j * p : (j + 1) * p]


@dataclass(frozen=True)
class MarginalMoments:
    """Pointwise posterior moments needed by the trend indices."""

    grid: np.ndarray
    mu_f: np.ndarray
    var_f: np.ndarray
    mu_df: np.ndarray
    var_df: np.ndarray
    mu_d2f: np.ndarray | None = None
    var_d2f: np.ndarray | None = None
    cov_df_d2f: np.ndarray | None = None


def _auto_blocks(kernel: KernelSpec) -> tuple[str, ...]:
    return BLOCK_ORDER[: kernel.max_order() + 1]


def _resolve_blocks(kernel: KernelSpec, blocks) -> tuple[str, ...]:
    if blocks is None:
        return _auto_blocks(kernel)
    blocks = tuple(blocks)
    if not blocks or any(b not in BLOCK_ORDER for b in blocks):
        raise ValueError(f"blocks must be a non-empty subset of {BLOCK_ORDER}, got {blocks}")
    if list(blocks) != [b for b in BLOCK_ORDER if b in blocks]:
        raise ValueError(f"blocks must respect the order {BLOCK_ORDER}, got {blocks}")
    need = max(_DERIV_ORDER[b] for b in blocks)
    if need > kernel.max_order():
        raise AssumptionError(
            f"{kernel.family} does not admit the {blocks[-1]} block (assumption A3)"
        )
    return blocks


def _chol(mat: np.ndarray, scale: float) -> np.ndarray:
    if not np.all(np.isfinite(mat)):
        raise FactorizationError("covariance matrix contains non-finite entries")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(mat.shape[0])
    for jit in _JITTERS:
        try:
            return np.linalg.cholesky(mat + jit * scale * eye)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"covariance factorization failed after jitter up to {_JITTERS[-1]:g} * scale"
    )


def _factor(data: Dataset, kernel: KernelSpec, sigma: float) -> np.ndarray:
    """Lower Cholesky factor of kernel_gram(kernel, ts, ts) + sigma^2 I.

    The Gram is gathered from one kernel evaluation per distinct lag; it
    equals the dense assembly bit for bit.
    """
    lags, index = data.lags
    K = kernel_gram(kernel, lags, [0.0]).ravel()[index]
    K.reshape(-1)[:: data.n + 1] += sigma**2
    return _chol(K, kernel.alpha**2)


def _whiten(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b for a lower-triangular C-ordered L; b is not checked for finiteness.

    Solves the transposed upper system through LAPACK trtrs, as scipy's
    triangular solver does for a C-ordered lower factor, so the values
    match it bit for bit.
    """
    if L.shape[0] == 0:  # trtrs rejects n = 0
        return np.empty(b.shape)
    x, info = dtrtrs(L.T, b, lower=False, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _gauss_loglik(L: np.ndarray, white: np.ndarray) -> float:
    """log N(r; 0, L L^T) given the factor L and the whitened r, white = L^{-1} r."""
    n = L.shape[0]
    return float(-0.5 * n * _LOG_2PI - np.sum(np.log(np.diag(L))) - 0.5 * white @ white)


class Posterior:
    """One dataset conditioned under one Hyperparams.

    Factorizes the observation covariance and whitens the residual once;
    the marginal likelihood follows, and every grid evaluation then costs
    O(n^2 p) triangular solves against that one factor.
    """

    def __init__(self, data: Dataset, theta: Hyperparams):
        require_assumptions(theta.kernel, require_eti=False)
        self.data = data
        self.theta = theta
        self.chol = _factor(data, theta.kernel, theta.sigma)
        resid = data.ys - mean_eval(theta.mean, 0, data.ts)
        if not np.all(np.isfinite(resid)):
            raise ValueError("array must not contain infs or NaNs")
        self.white_resid = _whiten(self.chol, resid)

    @property
    def loglik(self) -> float:
        """Log density of the observations with the latent GP integrated out."""
        return _gauss_loglik(self.chol, self.white_resid)

    def _conditioned(self, grid, orders):
        """Checked grid and, per derivative order, the posterior mean and the
        whitened cross covariance L^{-1} C(ts, grid)."""
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValueError("grid must be a non-empty finite time vector")
        means, whitened = [], []
        for o in orders:
            cross = kernel_gram(self.theta.kernel, grid, self.data.ts, o, 0)
            if not np.all(np.isfinite(cross)):
                raise ValueError("array must not contain infs or NaNs")
            w = _whiten(self.chol, cross.T)
            del cross  # freed before the next order's cross covariance is built
            m = np.broadcast_to(np.asarray(mean_eval(self.theta.mean, o, grid), dtype=float), grid.shape)
            means.append(m + w.T @ self.white_resid)
            whitened.append(w)
        return grid, means, whitened

    def joint(self, grid, blocks=None) -> JointPosterior:
        blocks = _resolve_blocks(self.theta.kernel, blocks)
        orders = [_DERIV_ORDER[b] for b in blocks]
        grid, means, whitened = self._conditioned(grid, orders)
        p = grid.size
        cov = np.empty((len(orders) * p, len(orders) * p))
        for i, oi in enumerate(orders):
            for j, oj in enumerate(orders[i:], start=i):
                prior = kernel_gram(self.theta.kernel, grid, grid, oi, oj)
                blk = prior - whitened[i].T @ whitened[j]
                if i == j:
                    blk = 0.5 * (blk + blk.T)
                else:
                    cov[j * p : (j + 1) * p, i * p : (i + 1) * p] = blk.T
                cov[i * p : (i + 1) * p, j * p : (j + 1) * p] = blk
        return JointPosterior(grid=grid, blocks=blocks, mu=np.concatenate(means), sigma_mat=cov)

    def marginal(self, grid, need_d2f: bool = False) -> MarginalMoments:
        kernel = self.theta.kernel
        max_needed = 2 if need_d2f else 1
        if kernel.max_order() < max_needed:
            raise AssumptionError(
                f"{kernel.family} does not admit derivative order {max_needed} (assumption A3)"
            )
        grid, means, whitened = self._conditioned(grid, range(max_needed + 1))

        def var(os: int, ot: int) -> np.ndarray:
            # prior covariance at zero lag minus the diagonal of the data term
            prior = kernel_gram(kernel, np.zeros(1), np.zeros(1), os, ot)[0, 0]
            return prior - np.sum(whitened[os] * whitened[ot], axis=0)

        return MarginalMoments(
            grid=grid,
            mu_f=means[0],
            var_f=var(0, 0),
            mu_df=means[1],
            var_df=var(1, 1),
            mu_d2f=means[2] if need_d2f else None,
            var_d2f=var(2, 2) if need_d2f else None,
            cov_df_d2f=var(1, 2) if need_d2f else None,
        )


def prior_joint(theta: Hyperparams, grid, blocks=None) -> JointPosterior:
    """Joint prior of the latent blocks on a grid (no conditioning)."""
    return Posterior(Dataset(ts=np.empty(0), ys=np.empty(0)), theta).joint(grid, blocks)


def joint_posterior(data: Dataset, theta: Hyperparams, grid, blocks=None) -> JointPosterior:
    """Posterior of (f, df, d2f) given the data; prior when the data are empty."""
    return Posterior(data, theta).joint(grid, blocks)


def marginal_moments(data: Dataset, theta: Hyperparams, grid, need_d2f: bool = False) -> MarginalMoments:
    """Pointwise posterior means/variances of f, df (and optionally d2f).

    Computes only the diagonal of each covariance block, which is what the
    trend indices need, at O(n^2) per grid point.
    """
    return Posterior(data, theta).marginal(grid, need_d2f=need_d2f)


def predictive(data: Dataset, theta: Hyperparams, t_star: float) -> tuple[float, float]:
    """Mean and variance of a new observation at t_star."""
    mm = marginal_moments(data, theta, [float(t_star)])
    return float(mm.mu_f[0]), float(mm.var_f[0] + theta.sigma**2)


def _factor_cov(cov: np.ndarray) -> np.ndarray:
    """A factor F with F F^T = cov, tolerating PSD rank deficiency.

    Plain Cholesky when the matrix is strictly positive definite, otherwise
    an eigendecomposition with negative eigenvalues clipped at zero; the
    clipped route is exact for singular PSD matrices (point masses sample
    as point masses).
    """
    if not np.all(np.isfinite(cov)):
        raise FactorizationError("covariance matrix contains non-finite entries")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    sym = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_paths(jp: JointPosterior, k: int, seed: int) -> np.ndarray:
    """Draw k independent joint paths from N(mu, sigma_mat); deterministic per seed."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    dim = jp.mu.size
    if k == 0:
        return np.empty((0, dim))
    factor = _factor_cov(jp.sigma_mat)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, dim))
    return jp.mu[None, :] + z @ factor.T
