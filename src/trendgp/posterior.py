"""Joint posterior of a latent Gaussian process and its first two derivatives.

Conditioning a GP prior on noisy observations keeps the joint law of
(f, df, d2f) Gaussian on any finite evaluation grid; the moments are the
usual kriging formulas with the covariance replaced by the appropriate
mixed partial.  `Posterior` factorizes C(t, t) + sigma^2 I once per
(data, theta); the marginal likelihood and every block, moment and grid
evaluated under that theta share the one lower-triangular factor.  The
covariance is factored as given, with nothing added to its diagonal: one
that does not factor raises FactorizationError, which the optimizer, the
MCMC target and model selection count as a failed evaluation.

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
from scipy.linalg.lapack import dpotrf, dtrtrs

from .kernels import KernelSpec, MeanSpec, _stationary_derivs, kernel_eval, kernel_gram, mean_eval, require_order

BLOCK_ORDER = ("f", "df", "d2f")
_DERIV_ORDER = {"f": 0, "df": 1, "d2f": 2}

# Doubles in one block of n x (rows or points) work: the lag table's row
# blocks, and the cap on Posterior.marginal's point blocks.
_BLOCK_DOUBLES = 2**15

_LOG_2PI = math.log(2.0 * math.pi)


class FactorizationError(RuntimeError):
    """A covariance matrix did not factor as given: it is not positive
    definite in floating point, or not finite.  Every caller counts it as a
    failed evaluation."""


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
        """Distinct lags |t_i - t_j|, ascending, and the n x n index that gathers them back.

        The tables np.unique(|t_i - t_j|, return_inverse=True) gives, without
        sorting n^2 values.  The times increase strictly, so the n(n-1)/2
        differences t_j - t_i (j > i) are every nonzero lag, bit for bit the
        |t_i - t_j| of either order; they are sorted in one buffer.  The index
        is then filled in row blocks by searchsorted, which finds each lag
        exactly.  Next to the index, at most about n^2 / 2 doubles are held.
        """
        ts, n = self.ts, self.n
        rows = max(1, _BLOCK_DOUBLES // max(n, 1))
        lags = np.zeros(n * (n - 1) // 2 + min(n, 1))  # the last slot keeps lag 0
        at = 0
        for lo in range(0, n, rows):
            diff = ts[None, lo:] - ts[lo : lo + rows, None]
            upper = diff[diff > 0]
            lags[at : at + upper.size] = upper
            at += upper.size
        lags.sort()
        distinct = np.empty(lags.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(lags[1:], lags[:-1], out=distinct[1:])
        lags = lags[distinct]
        index = np.empty((n, n), dtype=np.intp)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            index[lo:hi, lo:] = np.searchsorted(lags, np.abs(ts[None, lo:] - ts[lo:hi, None]))
            index[lo:hi, :lo] = index[:lo, lo:hi].T  # the earlier blocks' columns, by symmetry
        return lags, index


@dataclass(frozen=True)
class Hyperparams:
    """Full model parameterization: mean coefficients, kernel, noise SD."""

    mean: MeanSpec
    kernel: KernelSpec
    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
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


def _resolve_blocks(kernel: KernelSpec, blocks) -> tuple[str, ...]:
    if blocks is None:
        return BLOCK_ORDER[: kernel.max_order() + 1]
    blocks = tuple(blocks)
    if not blocks or any(b not in BLOCK_ORDER for b in blocks):
        raise ValueError(f"blocks must be a non-empty subset of {BLOCK_ORDER}, got {blocks}")
    if list(blocks) != [b for b in BLOCK_ORDER if b in blocks]:
        raise ValueError(f"blocks must respect the order {BLOCK_ORDER}, got {blocks}")
    require_order(kernel.family, _DERIV_ORDER[blocks[-1]])
    return blocks


def _chol(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric C-ordered mat, computed in mat's own memory.

    LAPACK potrf factors the upper triangle of mat's Fortran view, which is
    mat's own lower triangle, and zeroes the other one, so mat ends up
    holding the C-ordered lower factor, with no copy.  mat is factored as
    given: if it is not positive definite in floating point, FactorizationError
    names the diagonal where potrf stopped, and mat is left overwritten.  The
    caller checks mat for finiteness.
    """
    upper, info = dpotrf(mat.T, lower=0, overwrite_a=1)
    if info != 0:
        raise FactorizationError(f"covariance factorization failed at diagonal {info - 1}")
    return upper.T


def _factor(data: Dataset, kernel: KernelSpec, sigma: float, k: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Lower Cholesky factor of kernel_gram(kernel, ts, ts) + sigma^2 I.

    The Gram is gathered from k, the kernel on the distinct lags (evaluated
    here unless the caller already holds it), and equals the dense assembly
    bit for bit; its finiteness is checked on those lags, not on n^2 entries.
    It is gathered into out, a C-ordered n x n buffer (a new one without
    it), which _chol factors in place; so a factor holds one n x n array.
    A Gram that does not factor raises FactorizationError.
    """
    lags, index = data.lags
    if k is None:
        k = kernel_eval(kernel, lags, 0.0)
    noise = sigma**2
    if not (math.isfinite(noise) and np.isfinite(k).all()):
        raise FactorizationError("covariance matrix contains non-finite entries")
    K = np.empty((data.n, data.n)) if out is None else out
    # mode="clip" writes straight into K; the default "raise" buffers an n x n copy
    np.take(k, index, out=K, mode="clip")
    K.reshape(-1)[:: data.n + 1] += noise
    return _chol(K)


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
    return float(-0.5 * n * _LOG_2PI - np.log(L.diagonal()).sum() - 0.5 * white @ white)


class Posterior:
    """One dataset conditioned under one Hyperparams.

    Factorizes the observation covariance and whitens the residual once;
    the marginal likelihood follows, and every grid evaluation then costs
    O(n^2 p) triangular solves against that one factor.
    """

    def __init__(self, data: Dataset, theta: Hyperparams):
        require_order(theta.kernel.family, 1)
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
        # C^(o,0)(grid, ts) = k^(o)(grid - ts) for every order, from one kernel pass
        crosses = _stationary_derivs(self.theta.kernel, grid[:, None] - self.data.ts, orders)
        if not all(np.isfinite(cross).all() for cross in crosses):
            raise ValueError("array must not contain infs or NaNs")
        means, whitened = [], []
        for o in orders:
            w = _whiten(self.chol, crosses.pop(0).T)  # each cross is freed once whitened
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
        """Pointwise moments of f and df (and d2f), in blocks of 64 to 256 points.

        A block is the largest multiple of 64 points, up to 256, whose n x block
        array holds at most 2^15 doubles, and never under 64 points: 256 up to
        n = 128, 128 at n = 200, 64 from n = 257 on.  So each n x block array
        of its work holds O(2^15) doubles, not 9 n p doubles in all.  Blocks
        start at multiples of 64, so OpenBLAS dgemv_t splits the posterior-mean
        rows by 4 as for one block, and a last block of one point joins the one
        before (a one-column solve takes another BLAS path): the moments equal
        one whole-grid call's bit for bit."""
        kernel = self.theta.kernel
        max_needed = 2 if need_d2f else 1
        require_order(kernel.family, max_needed)
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        # the f and df moments, then with need_d2f those of d2f and cov(df, d2f)
        mm = MarginalMoments(grid, *(np.empty(grid.size) for _ in range(7 if need_d2f else 4)))
        # a variance is the prior covariance at zero lag, (-1)^ot k^(os+ot)(0),
        # minus the diagonal of the data term
        pairs = ((0, 0), (1, 1), (2, 2), (1, 2))[: 4 if need_d2f else 2]
        k0 = _stationary_derivs(kernel, np.zeros(1), [os + ot for os, ot in pairs])
        prior = {(os, ot): (-1.0 if ot % 2 else 1.0) * k[0] for (os, ot), k in zip(pairs, k0)}
        block = min(256, max(64, _BLOCK_DOUBLES // max(self.data.n, 1) // 64 * 64))
        bounds = [0, *range(block, grid.size - 1, block), grid.size]  # an empty grid fails in _conditioned
        for lo, hi in zip(bounds, bounds[1:]):
            _, means, whitened = self._conditioned(grid[lo:hi], range(max_needed + 1))

            def var(os: int, ot: int) -> np.ndarray:
                return prior[os, ot] - np.sum(whitened[os] * whitened[ot], axis=0)

            mm.mu_f[lo:hi], mm.var_f[lo:hi] = means[0], var(0, 0)
            mm.mu_df[lo:hi], mm.var_df[lo:hi] = means[1], var(1, 1)
            if need_d2f:
                mm.mu_d2f[lo:hi], mm.var_d2f[lo:hi], mm.cov_df_d2f[lo:hi] = means[2], var(2, 2), var(1, 2)
        return mm


def prior_joint(theta: Hyperparams, grid, blocks=None) -> JointPosterior:
    """Joint prior of the latent blocks on a grid (no conditioning)."""
    return Posterior(Dataset(ts=np.empty(0), ys=np.empty(0)), theta).joint(grid, blocks)


def marginal_moments(data: Dataset, theta: Hyperparams, grid, need_d2f: bool = False) -> MarginalMoments:
    """Pointwise posterior means/variances of f, df (and optionally d2f).

    Computes only the diagonal of each covariance block, which is what the
    trend indices need, at O(n^2) per grid point.
    """
    return Posterior(data, theta).marginal(grid, need_d2f=need_d2f)


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


@dataclass(frozen=True)
class PathSampler:
    """N(mu, cov) held as its mean and a factor F with F F^T = cov.

    Factoring is the expensive step; a sampler built once serves any number
    of draws, each deterministic per seed.
    """

    mu: np.ndarray
    factor: np.ndarray

    @classmethod
    def of(cls, jp: JointPosterior) -> "PathSampler":
        return cls(mu=jp.mu, factor=_factor_cov(jp.sigma_mat))

    def draw(self, k: int, seed: int) -> np.ndarray:
        """k independent joint paths, one per row."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        z = np.random.default_rng(seed).standard_normal((k, self.mu.size))
        return self.mu[None, :] + z @ self.factor.T

