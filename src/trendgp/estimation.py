"""Hyper-parameter estimation: marginal-likelihood ML and fully Bayesian MCMC.

The latent function is always marginalized analytically, so the marginal
likelihood of the observations is a plain multivariate normal density and
the remaining parameter space is at most six-dimensional.  ML maximizes it
by multi-start L-BFGS-B over the log-transformed kernel and noise
parameters, on the closed-form gradient of the likelihood with the mean
coefficients profiled out by generalized least squares.  Its starts are
deterministic: a default start, an optional warm start, and the points of
a fixed Kronecker sequence whose likelihood value is highest among the
first 32 (a screen that costs no gradient), so ML fitting draws no random
number.  The Bayesian path
samples the same space (mean coefficients included) with an adaptive
random-walk Metropolis chain targeting prior x marginal likelihood.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dsyr, dsyrk
from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dtrtri, dtrtrs
from scipy.optimize import minimize
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .kernels import FAMILIES, AssumptionError, KernelSpec, MeanSpec, kernel_log_param_grads, require_order
from .posterior import _LOG_2PI, Dataset, FactorizationError, Hyperparams, Posterior, _factor, _gauss_loglik, _whiten
from .indices import _checked_quadrature, evaluate_indices
from .parallel import fork_map

# An RQ shape parameter beyond this has numerically converged to the SE
# kernel; fits are then reported as an SE substitution.
NU_DIVERGENCE = 1e6


class FitError(RuntimeError):
    """Maximum-likelihood fitting failed on every restart."""


class McmcError(RuntimeError):
    """The sampler could not be initialized or diverged on every chain."""


# ---------------------------------------------------------------------------
# priors
#
# CDFs and quantiles call the scipy.special functions behind scipy.stats.t
# and scipy.stats.norm with the same loc/scale arithmetic, so they match
# scipy.stats bit for bit without importing it (about 0.6 s of start-up).


def _t_ppf(df: float, q: float) -> float:
    # stdtrit(df, 0) is +inf; scipy.stats.t.ppf returns the lower support bound.
    return -math.inf if q == 0 else float(stdtrit(df, q))


def _t_lognorm(df: float, scale: float) -> float:
    return (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
    )


@dataclass(frozen=True)
class StudentTPrior:
    """Location-scale Student-T prior on the whole real line."""

    loc: float
    scale: float
    df: float

    def __post_init__(self):
        if not (self.scale > 0 and self.df > 0):
            raise ValueError("scale and df must be positive")
        object.__setattr__(self, "_lognorm", _t_lognorm(self.df, self.scale))

    def logpdf(self, x: float) -> float:
        z = (x - self.loc) / self.scale
        return self._lognorm - 0.5 * (self.df + 1.0) * math.log1p(z * z / self.df)

    def ppf(self, q: float) -> float:
        return _t_ppf(self.df, q) * self.scale + self.loc


@dataclass(frozen=True)
class HalfStudentTPrior:
    """Student-T truncated to [0, inf) and renormalized."""

    loc: float
    scale: float
    df: float

    def __post_init__(self):
        if not (self.scale > 0 and self.df > 0):
            raise ValueError("scale and df must be positive")
        f0 = float(stdtr(self.df, (0.0 - self.loc) / self.scale))
        object.__setattr__(self, "_cdf0", f0)
        object.__setattr__(self, "_lognorm", _t_lognorm(self.df, self.scale) - math.log1p(-f0))

    def logpdf(self, x: float) -> float:
        if x < 0:
            return -math.inf
        z = (x - self.loc) / self.scale
        return self._lognorm - 0.5 * (self.df + 1.0) * math.log1p(z * z / self.df)

    def ppf(self, q: float) -> float:
        return _t_ppf(self.df, self._cdf0 + q * (1.0 - self._cdf0)) * self.scale + self.loc


@dataclass(frozen=True)
class HalfNormalPrior:
    """Normal truncated to [0, inf) and renormalized."""

    loc: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        f0 = float(ndtr((0.0 - self.loc) / self.scale))
        object.__setattr__(self, "_cdf0", f0)
        object.__setattr__(
            self,
            "_lognorm",
            -0.5 * _LOG_2PI - math.log(self.scale) - math.log1p(-f0),
        )

    def logpdf(self, x: float) -> float:
        if x < 0:
            return -math.inf
        z = (x - self.loc) / self.scale
        return self._lognorm - 0.5 * z * z

    def ppf(self, q: float) -> float:
        return float(ndtri(self._cdf0 + q * (1.0 - self._cdf0)) * self.scale + self.loc)


@dataclass(frozen=True)
class PriorSpec:
    """Independent one-dimensional priors keyed by hyper-parameter name."""

    priors: dict

    def for_param(self, name: str):
        try:
            return self.priors[name]
        except KeyError:
            raise ValueError(f"no prior given for parameter {name!r}") from None


def default_priors(theta_ml: Hyperparams) -> PriorSpec:
    """Heavy-tailed priors centered at the ML estimates.

    T(b_hat, 3, 3) on each mean coefficient, Half-T(., 3, 3) on alpha, nu
    and sigma, Half-Normal(rho_hat, 1) on the length-scale.  The unit scale
    on rho is in the data's time units.
    """
    space = _ModelSpace.of(theta_ml)
    return PriorSpec({
        name: StudentTPrior(v, 3.0, 3.0) if name in space.beta_names
        else HalfNormalPrior(v, 1.0) if name == "rho" else HalfStudentTPrior(v, 3.0, 3.0)
        for name, v in space.values(theta_ml).items()
    })


# ---------------------------------------------------------------------------
# model space


class _ModelSpace:
    """Parameter layout of one (mean degree, kernel family) candidate: the mean
    coefficients, then the positive kernel and noise parameters.  `theta`
    builds the hyper-parameters from {name: value} and `values` inverts it."""

    def __init__(self, degree: int, family: str):
        if degree not in (0, 1, 2):
            raise ValueError(f"mean degree must be 0, 1 or 2, got {degree}")
        if family not in FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
        self.degree = degree
        self.family = family
        self.beta_names = tuple(f"beta{j}" for j in range(degree + 1))
        kernel_names = ("alpha", "rho", "nu") if family == "RQ" else ("alpha", "rho")
        self.positive = kernel_names + ("sigma",)
        self.names = self.beta_names + self.positive

    @classmethod
    def of(cls, theta: Hyperparams) -> "_ModelSpace":
        return cls(theta.mean.degree, theta.kernel.family)

    def kernel(self, values: dict) -> KernelSpec:
        return KernelSpec(self.family, values["alpha"], values["rho"], values.get("nu"))

    def theta(self, values: dict) -> Hyperparams:
        betas = tuple(values[n] for n in self.beta_names)
        return Hyperparams(MeanSpec(betas), self.kernel(values), values["sigma"])

    def values(self, theta: Hyperparams) -> dict:
        """{name: value} of theta, in the order of `names`."""
        k = theta.kernel
        positive = {"alpha": k.alpha, "rho": k.rho, "nu": k.nu, "sigma": theta.sigma}
        return dict(zip(self.beta_names, theta.mean.coefficients)) | {n: positive[n] for n in self.positive}


# ---------------------------------------------------------------------------
# marginal likelihood


_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=16)
def _gelsd_work(m: int, p: int) -> tuple[int, int]:
    """Optimal gelsd workspace sizes (real, integer) for one right-hand side."""
    work, iwork, info = dgelsd_lwork(m, p, 1)
    if info != 0:
        raise ValueError(f"gelsd workspace query failed with info {info}")
    return int(work), int(iwork)


def _gls(Xw: np.ndarray, yw: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of the whitened response on the whitened design.

    LAPACK gelsd, called as np.linalg.lstsq(Xw, yw, rcond=None) calls it:
    singular values cut off below eps * max(m, p) times the largest, optimal
    workspace.  A non-finite design or a failed SVD raises ValueError, as
    lstsq's LinAlgError does; a non-finite response gives non-finite
    coefficients.
    """
    if not np.isfinite(Xw).all():
        raise ValueError("whitened design is not finite")
    m, p = Xw.shape
    b = yw[:, None] if m >= p else np.concatenate([yw, np.zeros(p - m)])[:, None]
    lwork, liwork = _gelsd_work(m, p)
    x, _, _, info = dgelsd(Xw, b, lwork, liwork, cond=_EPS * max(m, p))
    if info != 0:
        raise ValueError(f"least squares SVD did not converge (info {info})")
    return x[:p, 0]


def _ml_workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two n x n buffers of _profile_mll, which one ML fit reuses in every evaluation.

    The first, C-ordered, holds the gathered Gram, then its factor L, then
    L^-T.  The second, Fortran-ordered, receives K^-1 - a a^T in its upper
    triangle; its strict lower triangle is never written and stays zero.
    """
    return np.empty((n, n)), np.zeros((n, n), order="F")


def _profile_loglik(data: Dataset, design: np.ndarray, kernel: KernelSpec, sigma: float, k, buf):
    """Profile marginal log likelihood: mean coefficients replaced by GLS.

    Returns (loglik, betas, L, white): L is the covariance factor, held in
    buf, and white = L^-1 (y - X betas).  k is the kernel on the distinct
    lags, or None to evaluate it here.  _profile_mll adds the gradient; the
    start screen uses the value alone.  The caller checks the design for
    finiteness once per fit.
    """
    L = _factor(data, kernel, sigma, k, out=buf)
    Xw = _whiten(L, design)
    yw = _whiten(L, data.ys)
    betas = _gls(Xw, yw)
    white = yw - Xw @ betas
    return _gauss_loglik(L, white), betas, L, white


def _profile_mll(data: Dataset, design: np.ndarray, kernel: KernelSpec, sigma: float, work):
    """Profile marginal log likelihood and its gradient: mean coefficients replaced by GLS.

    Returns (loglik, betas, grad).  The GLS coefficients maximize the
    marginal likelihood exactly for fixed kernel and noise parameters, so
    the profile gradient has no beta term.  grad holds d loglik / d log theta
    for the kernel parameters (alpha, rho[, nu]) and then sigma, from
    GPML eq. 5.9: 1/2 tr((a a^T - K^-1) dK/d theta) with a = K^-1 (y - X beta).
    Each dK/d log theta is gathered from the distinct lags, so each trace is
    a dot product over them.  work is _ml_workspace(n); the values do not
    depend on what it held.  The caller checks the design for finiteness
    once per fit.
    """
    lags, index = data.lags
    buf, gap = work
    # one evaluation of k and k' serves the Gram and the gradient rows
    k, dk_dlog = kernel_log_param_grads(kernel, lags)
    ll, betas, L, white = _profile_loglik(data, design, kernel, sigma, k, buf)
    # a = L^-T white by trs; L^-T by trtri, in L's memory, then the upper
    # triangle of K^-1 - a a^T by syrk and a rank-one syr update.  Unlike
    # potri (its lauum step) or trmv, these, and the potrf behind L, gave the
    # same bits with one and two OpenBLAS threads up to n = 90, the range
    # test_ml_fit_is_blas_thread_invariant covers; from n = 128 on, all of
    # them differed.  numpy's matmul for the same product took ~100x longer
    # at n = 90 with two unpinned BLAS threads, in the optimizer's loop.
    a, _ = dtrtrs(L.T, white, lower=0)
    inv_lt, info = dtrtri(L.T, lower=0, overwrite_c=1)
    if info != 0:
        raise FactorizationError(f"triangular inverse failed at diagonal {info - 1}")
    del L
    # with beta = 0, BLAS syrk does not read C on input, so what gap held does not matter
    gap = dsyrk(1.0, inv_lt, c=gap, overwrite_c=1)
    del inv_lt
    gap = dsyr(-1.0, a, a=gap, overwrite_a=1)
    # gap is Fortran-ordered, so its memory-order ravel is the lower triangle
    # row by row; the lag index is symmetric, and the diagonal (lag 0) counts once.
    trace = gap.trace()
    per_lag = 2.0 * np.bincount(index.ravel(), weights=gap.ravel(order="K"), minlength=lags.size)
    per_lag[0] -= trace
    grad = -0.5 * (dk_dlog @ per_lag)
    # dK/d log sigma = 2 sigma^2 I
    grad = np.concatenate((grad, [-sigma**2 * trace]))
    return ll, tuple(betas), grad


# ---------------------------------------------------------------------------
# maximum likelihood


@dataclass(frozen=True)
class FitOptions:
    restarts: int = 16  # L-BFGS-B starts: the default one, warm_theta, then the screen's best
    warm_theta: Hyperparams | None = None  # extra restart, e.g. full-data optimum


@dataclass(frozen=True)
class FitResult:
    theta: Hyperparams
    loglik: float
    converged: bool
    substituted_from: str | None
    start_logliks: tuple[float, ...]
    n_failed_restarts: int


# alpha, rho and sigma are capped at 1e8, as upper box bounds on their log
# coordinates.  alpha is also kept above 1e-100: on constant data the
# likelihood grows without bound as alpha and sigma shrink, and below about
# 1e-154 the derivative variances (alpha/rho)^2 underflow to 0, which the
# posterior rejects (A4).
_LOG_CAP = math.log(1e8)
_LOG_ALPHA_FLOOR = math.log(1e-100)
# A fit counts as converged when no log coordinate's projected gradient
# exceeds this many nats per observation: a 1% move in any parameter then
# changes the mean log density by less than 1e-6 nats.
_CONVERGED_PGTOL = 1e-4
_MAXITER = 2000  # L-BFGS-B iterations, and objective evaluations, per restart


# The start screen scores the first _SCREEN_POINTS points (more when more
# starts are asked for) of the 4-d Kronecker sequence
# u_i = frac(0.5 + i (g^-1, g^-2, g^-3, g^-4)), i = 1, 2, ..., where g is
# the positive root of x^5 = x + 1, mapped log-uniformly onto the start box.
_KRONECKER_G = 1.1673039782614187
_SCREEN_POINTS = 32
# what a failed likelihood evaluation raises
_EVAL_ERRORS = (FactorizationError, ValueError, OverflowError)


def _kronecker_points(k: int) -> np.ndarray:
    """The first k points of the screen's 4-d Kronecker sequence, one row each."""
    i = np.arange(1.0, k + 1.0)[:, None]
    return np.modf(0.5 + i * _KRONECKER_G ** -np.arange(1.0, 5.0))[0]


def _start_points(data: Dataset, space: _ModelSpace, design: np.ndarray, opts: FitOptions, buf) -> list[dict]:
    """The L-BFGS-B starts: the default one, opts.warm_theta, then the screen's best.

    Starts beyond those fixed ones are the best of the screen's Kronecker
    points by profile log likelihood, a value alone (_profile_loglik in buf,
    no gradient); ties break toward the earlier point.  A point that fails,
    or lies above the box cap, scores -inf.  Non-RQ families ignore nu.  A
    pure function of the data, the model and opts: no random number.
    """
    span = data.ts[-1] - data.ts[0] if data.n > 1 else 1.0
    span = span if span > 0 else 1.0
    with np.errstate(all="ignore"):
        coefs = np.polyfit(data.ts, data.ys, space.degree)
        resid_sd = float(np.std(data.ys - np.polyval(coefs, data.ts)))
    if not np.isfinite(resid_sd):
        raise FitError("observations are too extreme for a finite residual scale")
    scale_y = max(resid_sd, 1e-8 * max(1.0, float(np.max(np.abs(data.ys)))), 1e-12)

    starts = [{"alpha": scale_y, "rho": span / 4.0, "nu": 1.0, "sigma": 0.5 * scale_y}]
    if opts.warm_theta is not None:
        w = opts.warm_theta
        starts.append(
            {"alpha": w.kernel.alpha, "rho": w.kernel.rho, "nu": w.kernel.nu or 1.0,
             "sigma": max(w.sigma, 1e-10 * scale_y)}
        )
    extra = opts.restarts - len(starts)
    if extra <= 0:
        return starts

    # the start box, as log bounds of (alpha, rho, nu, sigma)
    lo = np.log([0.125 * scale_y, span / 50.0, 0.1, 0.02 * scale_y])
    hi = np.log([4.0 * scale_y, 2.0 * span, 20.0, 2.0 * scale_y])
    candidates = [dict(zip(("alpha", "rho", "nu", "sigma"), map(float, np.exp(lo + u * (hi - lo)))))
                  for u in _kronecker_points(max(_SCREEN_POINTS, extra))]

    def score(point: dict) -> float:
        values = {n: point[n] for n in space.positive}
        if any(math.log(v) > _LOG_CAP for n, v in values.items() if n != "nu"):
            return -math.inf
        try:
            with np.errstate(all="ignore"):
                ll = _profile_loglik(data, design, space.kernel(values), values["sigma"], None, buf)[0]
        except _EVAL_ERRORS:
            return -math.inf
        return ll if np.isfinite(ll) else -math.inf

    scores = [score(c) for c in candidates]
    best = sorted(range(len(candidates)), key=lambda i: -scores[i])[:extra]  # stable: ties by index
    return starts + [candidates[i] for i in best]


def fit_ml(data: Dataset, degree: int = 0, family: str = "SE", opts: FitOptions | None = None) -> FitResult:
    """Maximize the marginal likelihood over (beta, alpha, rho[, nu], sigma).

    Multi-start L-BFGS-B in log coordinates on the closed-form profile
    gradient, with the mean coefficients profiled out, alpha, rho and sigma
    boxed below 1e8 and alpha above 1e-100; the reported optimum is never
    below the objective at any start point.  The starts are _start_points':
    the default, opts.warm_theta, then the best of the screened Kronecker
    points, so the fit is a function of its arguments.  An RQ fit whose nu diverges
    past NU_DIVERGENCE is refit under SE and flagged as a substitution.
    """
    if data.n < 3:
        raise ValueError(f"maximum-likelihood fitting needs n >= 3 observations, got {data.n}")
    opts = opts or FitOptions()
    space = _ModelSpace(degree, family)
    require_order(family, 1)
    design = np.vander(data.ts, space.degree + 1, increasing=True)
    if not np.all(np.isfinite(design)):
        raise FitError("the mean design matrix has non-finite entries")
    # The lag table first, so its transient memory is freed before the
    # workspace exists; every evaluation then gathers, factors and inverts in
    # the same two buffers instead of mapping fresh ones.
    data.lags
    work = _ml_workspace(data.n)

    # the optimizer's coordinates: logs of the positive parameters
    dims = space.positive
    lower = np.array([_LOG_ALPHA_FLOOR if n == "alpha" else -np.inf for n in dims])
    upper = np.array([np.inf if n == "nu" else _LOG_CAP for n in dims])

    def evaluate(z: np.ndarray):
        """(loglik, betas, grad) at log parameters z; None when it fails.

        Line searches probe extreme length-scales, where some kernel terms
        overflow; such a point is a failed evaluation, not a warning.
        """
        try:
            values = {n: math.exp(v) for n, v in zip(dims, z)}
            with np.errstate(all="ignore"):
                ll, betas, grad = _profile_mll(data, design, space.kernel(values), values["sigma"], work)
        except _EVAL_ERRORS:
            return None
        if not (np.isfinite(ll) and np.isfinite(grad).all()):
            return None
        return ll, betas, grad

    last: dict = {}  # the latest evaluation: a restart's first call repeats its start
    best: list = []  # [loglik, z, betas, grad] of the best point evaluated so far

    def objective(z: np.ndarray):
        key = z.tobytes()
        if key not in last:
            last.clear()
            last[key] = out = evaluate(z)
            # L-BFGS-B can return a point other than its best one after an
            # abnormal line-search stop, so the fit keeps the best itself.
            if out is not None and (not best or out[0] > best[0]):
                best[:] = [out[0], z.copy(), out[1], out[2]]
        out = last[key]
        if out is None:
            return math.inf, np.zeros_like(z)
        return -out[0], -out[2]

    start_lls: list[float] = []
    n_failed = 0
    for start in _start_points(data, space, design, opts, work[0]):
        z0 = np.array([math.log(start[n]) for n in dims])
        f0 = math.inf if np.any(z0 > upper) else objective(z0)[0]
        if not np.isfinite(f0):
            n_failed += 1
            continue
        start_lls.append(-f0)
        minimize(objective, z0, jac=True, method="L-BFGS-B", bounds=list(zip(lower, upper)),
                 options={"maxiter": _MAXITER, "maxfun": _MAXITER})
    if not best:
        raise FitError("all optimization restarts failed to produce a finite marginal likelihood")

    ll, z_best, betas, grad = best
    # Judged by the projected gradient at the returned point: L-BFGS-B also
    # reports success when a line search ends on a failed evaluation.
    held = ((z_best >= upper) & (grad > 0)) | ((z_best <= lower) & (grad < 0))
    converged = bool(np.max(np.abs(np.where(held, 0.0, grad))) <= _CONVERGED_PGTOL * data.n)
    values = {n: math.exp(v) for n, v in zip(dims, z_best)}
    theta = space.theta(dict(zip(space.beta_names, betas)) | values)

    if family == "RQ" and values["nu"] > NU_DIVERGENCE:
        del work  # the SE refit allocates its own
        return replace(fit_ml(data, degree, "SE", opts), substituted_from="RQ")
    return FitResult(
        theta=theta,
        loglik=ll,
        converged=converged,
        substituted_from=None,
        start_logliks=tuple(start_lls),
        n_failed_restarts=n_failed,
    )


# ---------------------------------------------------------------------------
# MCMC


_TARGET_ACCEPT = 0.3  # the acceptance rate warmup adapts the proposal scale toward
_INIT_STEP = 0.1  # spread of the initial points and first proposals, in unconstrained coordinates


@dataclass(frozen=True)
class McmcOptions:
    chains: int = 4
    iters: int = 25_000  # per chain, warmup included
    seed: int = 0
    fixed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McmcSamples:
    """Post-warmup draws of the hyper-parameters, one slab per chain."""

    param_names: tuple[str, ...]
    draws: np.ndarray  # (chains, kept_iters, n_params), constrained scale
    warmup: int
    acceptance: np.ndarray  # per-chain post-warmup acceptance rate
    degree: int
    family: str
    fixed: dict

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_kept(self) -> int:
        return self.draws.shape[1]

    def flat(self, param: str) -> np.ndarray:
        j = self.param_names.index(param)
        return self.draws[:, :, j].reshape(-1)

    def theta_at(self, chain: int, i: int) -> Hyperparams:
        space = _ModelSpace(self.degree, self.family)
        values = dict(self.fixed)
        values.update({n: float(v) for n, v in zip(self.param_names, self.draws[chain, i])})
        return space.theta(values)


def _log_posterior_fn(data: Dataset, space: _ModelSpace, priors: PriorSpec, fixed: dict, sampled: list):
    positive = space.positive

    def log_post(x: np.ndarray) -> float:
        values = dict(fixed)
        lp = 0.0
        for name, xi in zip(sampled, x):
            if name in positive:
                if xi > 700.0:  # exp overflow guard
                    return -math.inf
                v = math.exp(xi)
                lp += xi  # Jacobian of the log transform
            else:
                v = xi
            lp += priors.for_param(name).logpdf(v)
            values[name] = v
        if not np.isfinite(lp):
            return -math.inf
        try:
            theta = space.theta(values)
            ll = Posterior(data, theta).loglik
        except _EVAL_ERRORS:
            return -math.inf
        return lp + ll if np.isfinite(ll) else -math.inf

    return log_post


def fit_bayes(
    data: Dataset,
    degree: int = 0,
    family: str = "SE",
    priors: PriorSpec | None = None,
    opts: McmcOptions | None = None,
) -> McmcSamples:
    """Sample the hyper-parameter posterior by adaptive random-walk Metropolis.

    The chain runs in unconstrained coordinates (log transforms on the
    positive parameters, with Jacobian corrections).  Proposal scale and
    covariance adapt during warmup toward a 0.25-0.40 acceptance rate and
    are frozen afterwards.  When no priors are given, an ML fit seeds the
    default heavy-tailed priors.
    """
    if data.n < 3:
        raise ValueError(f"Bayesian fitting needs n >= 3 observations, got {data.n}")
    opts = opts or McmcOptions()
    space = _ModelSpace(degree, family)
    require_order(family, 1)
    if priors is None:
        ml = fit_ml(data, degree, family)
        priors = default_priors(ml.theta)
    sampled = [n for n in space.names if n not in opts.fixed]
    if not sampled:
        raise ValueError("at least one parameter must be sampled")
    for name in sampled:
        priors.for_param(name)  # raises when a prior is missing

    log_post = _log_posterior_fn(data, space, priors, dict(opts.fixed), sampled)
    d = len(sampled)
    warmup = opts.iters // 2
    kept = opts.iters - warmup
    if kept < 1:
        raise ValueError("iters must leave at least one post-warmup draw")

    # Median-of-prior initialization in unconstrained coordinates.
    x_center = np.empty(d)
    for j, name in enumerate(sampled):
        med = priors.for_param(name).ppf(0.5)
        x_center[j] = math.log(max(med, 1e-8)) if name in space.positive else med

    def chain(seed_seq: np.random.SeedSequence) -> tuple[np.ndarray, float]:
        """One chain's post-warmup draws (unconstrained) and acceptance rate."""
        rng = np.random.default_rng(seed_seq)
        x = None
        for _ in range(50):
            cand = x_center + _INIT_STEP * rng.standard_normal(d)
            if np.isfinite(log_post(cand)):
                x = cand
                break
        if x is None:
            raise McmcError("non-finite posterior density at initialization")
        lp = log_post(x)

        log_scale = math.log(2.38 / math.sqrt(d) * _INIT_STEP * 10.0)
        run_mean = x.copy()
        run_cov = np.eye(d) * _INIT_STEP**2
        prop_chol = np.linalg.cholesky(run_cov)
        accepted_post = 0
        draws = np.empty((kept, d))

        for it in range(opts.iters):
            step = math.exp(log_scale) * (prop_chol @ rng.standard_normal(d))
            x_new = x + step
            lp_new = log_post(x_new)
            log_alpha = lp_new - lp
            # 1 - U lies in (0, 1], so the log never hits a zero argument
            accept = math.log(1.0 - rng.uniform()) < log_alpha
            if accept:
                x, lp = x_new, lp_new
            if it < warmup:
                # Robbins-Monro scale adaptation plus a running proposal
                # covariance (Haario-style); both freeze after warmup.
                gamma = (it + 1) ** -0.6
                acc_prob = min(1.0, math.exp(min(log_alpha, 0.0)))
                log_scale += gamma * (acc_prob - _TARGET_ACCEPT)
                delta = x - run_mean
                run_mean += gamma * delta
                run_cov += gamma * (np.outer(delta, delta) - run_cov)
                if (it + 1) % 200 == 0 and it + 1 >= 10 * d:
                    try:
                        prop_chol = np.linalg.cholesky(run_cov + 1e-12 * np.eye(d))
                    except np.linalg.LinAlgError:
                        pass
            else:
                if accept:
                    accepted_post += 1
                draws[it - warmup] = x
        return draws, accepted_post / kept

    # Each chain owns its seed, so the chains run in forked workers.
    runs = fork_map(chain, [(ss,) for ss in np.random.SeedSequence(opts.seed).spawn(opts.chains)])
    all_draws = np.empty((opts.chains, kept, d))
    acceptance = np.empty(opts.chains)
    for c, (draws, rate) in enumerate(runs):
        all_draws[c], acceptance[c] = draws, rate

    if np.all(acceptance < 0.01):
        raise McmcError(f"all chains diverged: acceptance rates {acceptance}")

    # Map back to the constrained scale.
    for j, name in enumerate(sampled):
        if name in space.positive:
            all_draws[:, :, j] = np.exp(all_draws[:, :, j])

    return McmcSamples(
        param_names=tuple(sampled),
        draws=all_draws,
        warmup=warmup,
        acceptance=acceptance,
        degree=degree,
        family=family,
        fixed=dict(opts.fixed),
    )


# The fewest chains, and post-warmup draws per chain, that rhat accepts.
RHAT_MIN_CHAINS = 2
RHAT_MIN_KEPT = 100


def rhat(samples: McmcSamples, param: str) -> float:
    """Split potential scale reduction factor for one parameter."""
    if samples.n_chains < RHAT_MIN_CHAINS:
        raise ValueError(f"rhat needs at least {RHAT_MIN_CHAINS} chains")
    if samples.n_kept < RHAT_MIN_KEPT:
        raise ValueError(f"rhat needs at least {RHAT_MIN_KEPT} post-warmup draws per chain")
    j = samples.param_names.index(param)
    half = samples.n_kept // 2
    chains = []
    for c in range(samples.n_chains):
        chains.append(samples.draws[c, :half, j])
        chains.append(samples.draws[c, half : 2 * half, j])
    chains = np.asarray(chains)
    n = chains.shape[1]
    means = chains.mean(axis=1)
    within = chains.var(axis=1, ddof=1).mean()
    between = n * means.var(ddof=1)
    if within <= 0.0:
        return 1.0
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


# ---------------------------------------------------------------------------
# posterior trend indices


@dataclass(frozen=True)
class IndexPosterior:
    """Each used draw's grid moments and trend indices, one row per draw in thinned draw order.

    Every row array holds the same draws: a draw that fails to factorize, or
    fails A4 at some evaluation point, is in none of them.
    """

    mu_f: np.ndarray  # (n_used, p)
    var_f: np.ndarray
    mu_df: np.ndarray
    var_df: np.ndarray
    noise_var: np.ndarray  # (n_used,); each draw's sigma**2
    tdi: np.ndarray  # (n_used, p)
    local_eti: np.ndarray | None  # (n_used, p); None without ETI
    eti: np.ndarray  # (n_used, n_intervals); no columns without ETI
    skipped_fraction: float

    @property
    def n_used(self) -> int:
        return self.tdi.shape[0]


# The default cap on the thinned draws that the index pass evaluates.
_MAX_DRAWS = 1000
# Draws per work unit of the index pass: a block costs far more than the
# round trip to a worker, and a few blocks per worker balance the load.
_DRAW_BLOCK = 32


def index_posterior(
    data: Dataset,
    samples: McmcSamples,
    grid,
    want_eti: bool = True,
    intervals: tuple = (),
    n_quad: int = 256,
    max_draws: int = _MAX_DRAWS,
) -> IndexPosterior:
    """Push MCMC draws through the trend indices and return each draw's values.

    The one pass over the thinned draws: each draw is conditioned once and
    evaluated once on the grid and, with `want_eti`, the quadrature nodes
    together; without it no curvature moments are computed and no interval
    ETI is returned.  One draw set feeds every row: a draw that fails to
    factorize, or fails A4 at some evaluation point, is skipped and counted,
    and leaves no grid moments either.  The caller summarizes the per-draw
    rows, e.g. by quantiles over axis 0.  Raises AssumptionError (A3) for
    `want_eti` without a curvature process, ValueError for max_draws < 1.
    """
    require_order(samples.family, 2 if want_eti else 1)
    if max_draws < 1:
        raise ValueError(f"max_draws must be >= 1, got {max_draws}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    p = grid.size
    intervals, n_quad = _checked_quadrature(intervals, n_quad)
    if not want_eti:
        intervals = ()  # nothing to integrate: each draw gives no interval ETI

    total = samples.n_chains * samples.n_kept
    stride = max(1, math.ceil(total / max_draws))
    picks = [(c, i) for c in range(samples.n_chains) for i in range(samples.n_kept)][::stride]
    # The row fields of IndexPosterior and one draw's shape in each; no local ETI without ETI.
    shapes = {"mu_f": (p,), "var_f": (p,), "mu_df": (p,), "var_df": (p,), "noise_var": (),
              "tdi": (p,), "eti": (len(intervals),)} | ({"local_eti": (p,)} if want_eti else {})

    def draw_block(lo: int, hi: int) -> dict:
        """The pass over picks[lo:hi]: each row field, stacked over the used draws."""
        rows = []
        for c, i in picks[lo:hi]:
            theta = samples.theta_at(c, i)
            try:
                mm, tdi_vals, rates, etis = evaluate_indices(
                    Posterior(data, theta), grid, intervals, want_eti, n_quad)
            except (FactorizationError, AssumptionError):
                continue
            rows.append(dict(mu_f=mm.mu_f, var_f=mm.var_f, mu_df=mm.mu_df, var_df=mm.var_df,
                             noise_var=theta.sigma**2, tdi=tdi_vals, eti=etis, local_eti=rates))
        return {name: np.array([r[name] for r in rows], dtype=float).reshape(len(rows), *shape)
                for name, shape in shapes.items()}

    # Draws are independent, so contiguous blocks of them run in forked
    # workers and are reassembled in pick order.
    blocks = fork_map(draw_block, [(lo, min(lo + _DRAW_BLOCK, len(picks)))
                                   for lo in range(0, len(picks), _DRAW_BLOCK)])
    rows = {name: np.concatenate([b[name] for b in blocks]) for name in shapes}
    del blocks
    n_used = rows["tdi"].shape[0]
    if not n_used:
        raise McmcError("every MCMC draw failed the pointwise assumption checks")
    rows.setdefault("local_eti", None)
    return IndexPosterior(**rows, skipped_fraction=(len(picks) - n_used) / len(picks))
