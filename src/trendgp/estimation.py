"""Hyper-parameter estimation: marginal-likelihood ML and fully Bayesian MCMC.

The latent function is always marginalized analytically, so the marginal
likelihood of the observations is a plain multivariate normal density and
the remaining parameter space is at most six-dimensional.  ML maximizes it
by multi-start L-BFGS-B over the log-transformed kernel and noise
parameters, on the closed-form gradient of the likelihood with the mean
coefficients profiled out by generalized least squares.  The Bayesian path
samples the same space (mean coefficients included) with an adaptive
random-walk Metropolis chain targeting prior x marginal likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.blas import dsyr, dsyrk
from scipy.linalg.lapack import dtrtri, dtrtrs
from scipy.optimize import minimize
from scipy.stats import norm as _norm, t as _t

from .kernels import AssumptionError, KernelSpec, MeanSpec, kernel_log_param_grads, require_assumptions
from .posterior import _LOG_2PI, Dataset, FactorizationError, Hyperparams, Posterior, _factor, _gauss_loglik, _whiten
from .indices import _gauss_upper, _local_eti_from_moments, _simpson
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
        return float(_t.ppf(q, self.df, loc=self.loc, scale=self.scale))


@dataclass(frozen=True)
class HalfStudentTPrior:
    """Student-T truncated to [0, inf) and renormalized."""

    loc: float
    scale: float
    df: float

    def __post_init__(self):
        if not (self.scale > 0 and self.df > 0):
            raise ValueError("scale and df must be positive")
        f0 = float(_t.cdf(0.0, self.df, loc=self.loc, scale=self.scale))
        object.__setattr__(self, "_cdf0", f0)
        object.__setattr__(self, "_lognorm", _t_lognorm(self.df, self.scale) - math.log1p(-f0))

    def logpdf(self, x: float) -> float:
        if x < 0:
            return -math.inf
        z = (x - self.loc) / self.scale
        return self._lognorm - 0.5 * (self.df + 1.0) * math.log1p(z * z / self.df)

    def ppf(self, q: float) -> float:
        return float(_t.ppf(self._cdf0 + q * (1.0 - self._cdf0), self.df, loc=self.loc, scale=self.scale))


@dataclass(frozen=True)
class HalfNormalPrior:
    """Normal truncated to [0, inf) and renormalized."""

    loc: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        f0 = float(_norm.cdf(0.0, loc=self.loc, scale=self.scale))
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
        return float(_norm.ppf(self._cdf0 + q * (1.0 - self._cdf0), loc=self.loc, scale=self.scale))


@dataclass(frozen=True)
class PriorSpec:
    """Independent one-dimensional priors keyed by hyper-parameter name."""

    priors: dict

    def for_param(self, name: str):
        try:
            return self.priors[name]
        except KeyError:
            raise ValueError(f"no prior given for parameter {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self.priors)


def default_priors(theta_ml: Hyperparams) -> PriorSpec:
    """Heavy-tailed priors centered at the ML estimates.

    T(b_hat, 3, 3) on each mean coefficient, Half-T(., 3, 3) on alpha, nu
    and sigma, Half-Normal(rho_hat, 1) on the length-scale.  The unit scale
    on rho is in the data's time units.
    """
    priors = {}
    for j, b in enumerate(theta_ml.mean.coefficients):
        priors[f"beta{j}"] = StudentTPrior(b, 3.0, 3.0)
    priors["alpha"] = HalfStudentTPrior(theta_ml.kernel.alpha, 3.0, 3.0)
    priors["rho"] = HalfNormalPrior(theta_ml.kernel.rho, 1.0)
    if theta_ml.kernel.family == "RQ":
        priors["nu"] = HalfStudentTPrior(theta_ml.kernel.nu, 3.0, 3.0)
    priors["sigma"] = HalfStudentTPrior(theta_ml.sigma, 3.0, 3.0)
    return PriorSpec(priors)


# ---------------------------------------------------------------------------
# model space


class _ModelSpace:
    """Parameter bookkeeping for one (mean degree, kernel family) candidate."""

    def __init__(self, degree: int, family: str):
        if degree not in (0, 1, 2):
            raise ValueError(f"mean degree must be 0, 1 or 2, got {degree}")
        self.degree = degree
        self.family = family
        self.beta_names = tuple(f"beta{j}" for j in range(degree + 1))
        kernel_names = ("alpha", "rho", "nu") if family == "RQ" else ("alpha", "rho")
        self.names = self.beta_names + kernel_names + ("sigma",)
        self.positive = frozenset(("alpha", "rho", "nu", "sigma"))

    def theta(self, values: dict) -> Hyperparams:
        betas = tuple(values[n] for n in self.beta_names)
        nu = values.get("nu")
        kernel = KernelSpec(self.family, values["alpha"], values["rho"], nu)
        return Hyperparams(MeanSpec(betas), kernel, values["sigma"])


# ---------------------------------------------------------------------------
# marginal likelihood


def _profile_mll(data: Dataset, design: np.ndarray, kernel: KernelSpec, sigma: float):
    """Profile marginal log likelihood and its gradient: mean coefficients replaced by GLS.

    Returns (loglik, betas, grad).  The GLS coefficients maximize the
    marginal likelihood exactly for fixed kernel and noise parameters, so
    the profile gradient has no beta term.  grad holds d loglik / d log theta
    for the kernel parameters (alpha, rho[, nu]) and then sigma, from
    GPML eq. 5.9: 1/2 tr((a a^T - K^-1) dK/d theta) with a = K^-1 (y - X beta).
    Each dK/d log theta is gathered from the distinct lags, so each trace is
    a dot product over them.  The caller checks the design for finiteness
    once per fit.
    """
    L = _factor(data, kernel, sigma)
    Xw = _whiten(L, design)
    yw = _whiten(L, data.ys)
    betas, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    white = yw - Xw @ betas
    ll = _gauss_loglik(L, white)
    # a = L^-T white by trs; L^-T by trtri, then the upper triangle of
    # K^-1 - a a^T by syrk and a rank-one syr update.  Unlike potri (its
    # lauum step) or trmv, these give the same bits under any BLAS thread
    # count.  numpy's matmul for the same product took ~100x longer at
    # n = 90 with two unpinned BLAS threads, in the optimizer's loop.
    a, _ = dtrtrs(L.T, white, lower=0)
    inv_lt, info = dtrtri(L.T, lower=0)
    if info != 0:
        raise FactorizationError(f"triangular inverse failed at diagonal {info - 1}")
    del L
    gap = dsyrk(1.0, inv_lt, c=np.zeros_like(inv_lt), overwrite_c=1)
    del inv_lt
    gap = dsyr(-1.0, a, a=gap, overwrite_a=1)
    # gap is Fortran-ordered, so its memory-order ravel is the lower triangle
    # row by row; the lag index is symmetric, and the diagonal (lag 0) counts once.
    lags, index = data.lags
    trace = np.trace(gap)
    per_lag = 2.0 * np.bincount(index.ravel(), weights=gap.ravel(order="K"), minlength=lags.size)
    per_lag[0] -= trace
    grad = -0.5 * (kernel_log_param_grads(kernel, lags) @ per_lag)
    # dK/d log sigma = 2 sigma^2 I
    grad = np.append(grad, -sigma**2 * trace)
    return ll, tuple(betas), grad


def marginal_loglik(data: Dataset, theta: Hyperparams) -> float:
    """Log density of the observations with the latent GP integrated out.

    Includes the -(n/2) log 2 pi constant, so the value matches a direct
    multivariate-normal log density evaluation.
    """
    return Posterior(data, theta).loglik


# ---------------------------------------------------------------------------
# maximum likelihood


@dataclass(frozen=True)
class FitOptions:
    restarts: int = 16
    seed: int = 0
    maxiter: int = 2000
    warm_theta: Hyperparams | None = None  # extra restart, e.g. full-data optimum


@dataclass(frozen=True)
class FitResult:
    theta: Hyperparams
    loglik: float
    converged: bool
    substituted_from: str | None
    start_logliks: tuple[float, ...]
    n_failed_restarts: int


def _start_points(data: Dataset, space: _ModelSpace, opts: FitOptions) -> list[dict]:
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
    rng = np.random.default_rng(opts.seed)
    lo_rho, hi_rho = math.log(span / 50.0), math.log(2.0 * span)
    for _ in range(max(opts.restarts - len(starts), 0)):
        starts.append(
            {
                "alpha": scale_y * math.exp(rng.uniform(math.log(0.125), math.log(4.0))),
                "rho": math.exp(rng.uniform(lo_rho, hi_rho)),
                "nu": math.exp(rng.uniform(math.log(0.1), math.log(20.0))),
                "sigma": scale_y * math.exp(rng.uniform(math.log(0.02), math.log(2.0))),
            }
        )
    return starts


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


def fit_ml(data: Dataset, degree: int = 0, family: str = "SE", opts: FitOptions | None = None) -> FitResult:
    """Maximize the marginal likelihood over (beta, alpha, rho[, nu], sigma).

    Multi-start L-BFGS-B in log coordinates on the closed-form profile
    gradient, with the mean coefficients profiled out, alpha, rho and sigma
    boxed below 1e8 and alpha above 1e-100; the reported optimum is never
    below the objective at any start point.  An RQ fit whose nu diverges
    past NU_DIVERGENCE is refit under SE and flagged as a substitution.
    """
    if data.n < 3:
        raise ValueError(f"maximum-likelihood fitting needs n >= 3 observations, got {data.n}")
    opts = opts or FitOptions()
    space = _ModelSpace(degree, family)
    require_assumptions(KernelSpec.unit(family))
    design = np.vander(data.ts, space.degree + 1, increasing=True)
    if not np.all(np.isfinite(design)):
        raise FitError("the mean design matrix has non-finite entries")

    kernel_dims = ["alpha", "rho"] + (["nu"] if family == "RQ" else []) + ["sigma"]
    lower = np.array([_LOG_ALPHA_FLOOR if n == "alpha" else -np.inf for n in kernel_dims])
    upper = np.array([np.inf if n == "nu" else _LOG_CAP for n in kernel_dims])

    def evaluate(z: np.ndarray):
        """(loglik, betas, grad) at log parameters z; None when it fails.

        Line searches probe extreme length-scales, where some kernel terms
        overflow; such a point is a failed evaluation, not a warning.
        """
        try:
            values = {n: math.exp(v) for n, v in zip(kernel_dims, z)}
            kernel = KernelSpec(family, values["alpha"], values["rho"], values.get("nu"))
            with np.errstate(all="ignore"):
                ll, betas, grad = _profile_mll(data, design, kernel, values["sigma"])
        except (FactorizationError, ValueError, OverflowError):
            return None
        if not (np.isfinite(ll) and np.all(np.isfinite(grad))):
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
    for start in _start_points(data, space, opts):
        z0 = np.array([math.log(start[n]) for n in kernel_dims])
        f0 = math.inf if np.any(z0 > upper) else objective(z0)[0]
        if not np.isfinite(f0):
            n_failed += 1
            continue
        start_lls.append(-f0)
        minimize(objective, z0, jac=True, method="L-BFGS-B", bounds=list(zip(lower, upper)),
                 options={"maxiter": opts.maxiter, "maxfun": opts.maxiter})
    if not best:
        raise FitError("all optimization restarts failed to produce a finite marginal likelihood")

    ll, z_best, betas, grad = best
    # Judged by the projected gradient at the returned point: L-BFGS-B also
    # reports success when a line search ends on a failed evaluation.
    held = ((z_best >= upper) & (grad > 0)) | ((z_best <= lower) & (grad < 0))
    converged = bool(np.max(np.abs(np.where(held, 0.0, grad))) <= _CONVERGED_PGTOL * data.n)
    values = {n: math.exp(v) for n, v in zip(kernel_dims, z_best)}
    kernel = KernelSpec(family, values["alpha"], values["rho"], values.get("nu"))
    theta = Hyperparams(MeanSpec(betas), kernel, values["sigma"])

    if family == "RQ" and values["nu"] > NU_DIVERGENCE:
        se_fit = fit_ml(data, degree, "SE", opts)
        return FitResult(
            theta=se_fit.theta,
            loglik=se_fit.loglik,
            converged=se_fit.converged,
            substituted_from="RQ",
            start_logliks=se_fit.start_logliks,
            n_failed_restarts=se_fit.n_failed_restarts,
        )
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


@dataclass(frozen=True)
class McmcOptions:
    chains: int = 4
    iters: int = 25_000  # per chain, warmup included
    seed: int = 0
    target_accept: float = 0.3
    init_step: float = 0.1
    fixed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McmcSamples:
    """Post-warmup draws of the hyper-parameters, one slab per chain."""

    param_names: tuple[str, ...]
    draws: np.ndarray  # (chains, kept_iters, n_params), constrained scale
    warmup: int
    seed: int
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
        except (FactorizationError, ValueError, OverflowError):
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
    require_assumptions(KernelSpec.unit(family))
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
            cand = x_center + opts.init_step * rng.standard_normal(d)
            if np.isfinite(log_post(cand)):
                x = cand
                break
        if x is None:
            raise McmcError("non-finite posterior density at initialization")
        lp = log_post(x)

        log_scale = math.log(2.38 / math.sqrt(d) * opts.init_step * 10.0)
        run_mean = x.copy()
        run_cov = np.eye(d) * opts.init_step**2
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
                log_scale += gamma * (acc_prob - opts.target_accept)
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
        seed=opts.seed,
        acceptance=acceptance,
        degree=degree,
        family=family,
        fixed=dict(opts.fixed),
    )


def rhat(samples: McmcSamples, param: str) -> float:
    """Split potential scale reduction factor for one parameter."""
    if samples.n_chains < 2:
        raise ValueError("rhat needs at least 2 chains")
    if samples.n_kept < 100:
        raise ValueError("rhat needs at least 100 post-warmup draws per chain")
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
class QuantileCurve:
    """Per-grid-point posterior quantiles at the requested tau levels."""

    grid: np.ndarray
    taus: tuple[float, ...]
    values: np.ndarray  # (len(taus), p)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.taus), np.asarray(self.grid).size):
            raise ValueError("values must have shape (len(taus), len(grid))")
        if np.any(np.diff(values, axis=0) < -1e-12):
            raise ValueError("quantiles must be non-decreasing in tau")
        object.__setattr__(self, "values", values)

    def at(self, tau: float) -> np.ndarray:
        return self.values[self.taus.index(tau)]


@dataclass(frozen=True)
class DrawMoments:
    """Grid moments of f and df, one row per draw whose factorization succeeded.

    Rows follow the thinned draw order; `noise_var` holds each draw's sigma**2.
    """

    mu_f: np.ndarray  # (draws, p)
    var_f: np.ndarray
    mu_df: np.ndarray
    var_df: np.ndarray
    noise_var: np.ndarray  # (draws,)


@dataclass(frozen=True)
class IndexPosterior:
    tdi: QuantileCurve
    local_eti: QuantileCurve | None
    eti_draws: dict
    skipped_fraction: float
    n_used: int
    level: DrawMoments

    def eti_quantiles(self, interval, taus=(0.025, 0.5, 0.975)) -> dict:
        draws = self.eti_draws[tuple(float(v) for v in interval)]
        return {tau: float(np.quantile(draws, tau)) for tau in taus}


# Draws per work unit of the index pass: a block costs far more than the
# round trip to a worker, and a few blocks per worker balance the load.
_DRAW_BLOCK = 32


def index_posterior(
    data: Dataset,
    samples: McmcSamples,
    grid,
    anchor: float,
    taus: tuple[float, ...] = (0.025, 0.5, 0.975),
    intervals: tuple = (),
    n_quad: int = 256,
    max_draws: int = 2000,
) -> IndexPosterior:
    """Push MCMC draws through the trend indices and summarize by quantiles.

    The one pass over the thinned draws: each draw is conditioned once and
    evaluated once on the grid and the quadrature nodes together.  Draws
    where assumption A4 fails at some evaluation point are skipped and
    counted, but their grid moments are kept in `level` when the
    factorization itself succeeded.  For families without a curvature
    process only the TDI is summarized.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    p = grid.size
    taus = tuple(sorted(taus))
    want_eti = KernelSpec.unit(samples.family).max_order() >= 2

    n_quad += n_quad % 2
    intervals = [tuple(float(v) for v in iv) for iv in intervals]
    quad_nodes = [np.linspace(a, b, n_quad + 1) for a, b in intervals]
    all_points = np.concatenate([grid] + quad_nodes) if (want_eti and quad_nodes) else grid

    total = samples.n_chains * samples.n_kept
    stride = max(1, math.ceil(total / max_draws))
    picks = [(c, i) for c in range(samples.n_chains) for i in range(samples.n_kept)][::stride]

    def draw_block(lo: int, hi: int):
        """The pass over picks[lo:hi]: level moments, then TDI and ETI rows."""
        level = DrawMoments(*(np.empty((hi - lo, p)) for _ in range(4)), np.empty(hi - lo))
        n_level = 0
        tdi_rows, eti_rows, eti_int_rows = [], [], []
        for c, i in picks[lo:hi]:
            theta = samples.theta_at(c, i)
            try:
                mm = Posterior(data, theta).marginal(all_points, need_d2f=want_eti)
            except (AssumptionError, FactorizationError):
                continue
            level.mu_f[n_level], level.var_f[n_level] = mm.mu_f[:p], mm.var_f[:p]
            level.mu_df[n_level], level.var_df[n_level] = mm.mu_df[:p], mm.var_df[:p]
            level.noise_var[n_level] = theta.sigma**2
            n_level += 1
            try:
                tdi_vals = _gauss_upper(mm.mu_df[:p], mm.var_df[:p])
                if want_eti:
                    rate, _, _, _ = _local_eti_from_moments(mm)
            except AssumptionError:
                continue
            tdi_rows.append(tdi_vals)
            if want_eti:
                eti_rows.append(rate[:p])
                row = []
                offset = p
                for (a, b) in intervals:
                    h = (b - a) / n_quad if b > a else 0.0
                    row.append(_simpson(rate[offset : offset + n_quad + 1], h))
                    offset += n_quad + 1
                eti_int_rows.append(row)
        rows = (np.array(r, dtype=float).reshape(len(r), width)
                for r, width in ((tdi_rows, p), (eti_rows, p), (eti_int_rows, len(intervals))))
        return DrawMoments(*(getattr(level, f.name)[:n_level] for f in fields(DrawMoments))), *rows

    # Draws are independent, so contiguous blocks of them run in forked
    # workers and are reassembled in pick order.
    blocks = fork_map(draw_block, [(lo, min(lo + _DRAW_BLOCK, len(picks)))
                                   for lo in range(0, len(picks), _DRAW_BLOCK)])
    level = DrawMoments(*(np.concatenate([getattr(b[0], f.name) for b in blocks])
                          for f in fields(DrawMoments)))
    tdi_arr, eti_arr, int_arr = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3))
    del blocks
    n_used = tdi_arr.shape[0]
    if not n_used:
        raise McmcError("every MCMC draw failed the pointwise assumption checks")

    tdi_q = QuantileCurve(grid=grid, taus=taus, values=np.quantile(tdi_arr, list(taus), axis=0))
    local_q = None
    eti_draws: dict = {}
    if want_eti:
        local_q = QuantileCurve(grid=grid, taus=taus, values=np.quantile(eti_arr, list(taus), axis=0))
        eti_draws = {iv: int_arr[:, j] for j, iv in enumerate(intervals)}
    return IndexPosterior(
        tdi=tdi_q,
        local_eti=local_q,
        eti_draws=eti_draws,
        skipped_fraction=(len(picks) - n_used) / len(picks),
        n_used=n_used,
        level=level,
    )
