"""Cross-validated selection over (mean degree, kernel family) candidates.

Leave-one-out scoring refits the marginal-likelihood optimum without each
observation and predicts it back; one-step-ahead scoring walks forward
through time.  Both are lists of (training rows, held-out row) folds
scored by one engine.  At fixed hyper-parameters the fold errors of either
scheme follow in closed form from one Cholesky factor, so a selection
scores every candidate that way first and refits the folds only of the
candidates that can still win.  A fold refit is guarded Newton steps
from the full-data optimum to the fold's optimum (Rad & Maleki 2020,
approximate leave-one-out), and a two-start L-BFGS-B refit where the guard
rejects a step.  Leave-one-out folds run one after another in the calling
process, one-step-ahead folds in forked workers.  The winner minimizes the
refit mean squared error of prediction, with deterministic tie-breaking
toward simpler models.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtrtri, dtrtrs

from .estimation import NU_DIVERGENCE, FitError, FitOptions, FitResult, _LogObjective, _ModelSpace, fit_ml
from .parallel import fork_pool
from .posterior import Dataset, FactorizationError, Hyperparams, Posterior, marginal_moments

SCHEMES = ("loo", "osa")  # leave-one-out, one-step-ahead

# Tie-break order from fewest to most kernel parameters, then by smoothness.
_FAMILY_RANK = {"SE": 0, "M52": 1, "M32": 2, "RQ": 3}

# A fold's Newton steps: the Hessian is a forward difference of the
# closed-form gradient with this step in each log coordinate, accepted steps
# move no log coordinate further than the radius from the full-data optimum,
# and a fold that has not converged after this many steps falls back.
_NEWTON_H = 1e-5
_NEWTON_RADIUS = 0.25
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class CandidateGrid:
    """Candidate mean degrees crossed with kernel families (OU excluded)."""

    degrees: tuple[int, ...] = (0, 1, 2)
    families: tuple[str, ...] = ("SE", "RQ", "M32", "M52")

    def __post_init__(self):
        if not self.degrees or not self.families:
            raise ValueError("candidate grid must be non-empty")
        if any(d not in (0, 1, 2) for d in self.degrees):
            raise ValueError("mean degrees must lie in {0, 1, 2}")
        bad = [f for f in self.families if f not in _FAMILY_RANK]
        if bad:
            raise ValueError(f"unsupported candidate families: {bad} (OU is never a candidate)")

    def candidates(self):
        return [(d, f) for d in self.degrees for f in self.families]


@dataclass(frozen=True)
class CandidateScore:
    degree: int
    family: str
    mspe: float | None
    substituted_to_se: bool
    failed: bool
    error: str | None = None
    fit: FitResult | None = None  # the full-data fit, unless the candidate failed
    # mspe is the closed-form score at the full-data optimum: the folds were
    # not refit, because that score already exceeded the leader's refit score
    screened: bool = False
    # folds whose Newton steps the guard rejected, so they ran the two-start refit
    fold_fallbacks: int = 0


@dataclass(frozen=True)
class SelectionResult:
    scheme: str
    scores: tuple[CandidateScore, ...]
    winner: CandidateScore

    def table_rows(self) -> tuple[CandidateScore, ...]:
        """Scores with nu-diverged RQ entries merged into their SE twin."""
        rows = []
        for s in self.scores:
            if s.substituted_to_se and any(
                o.family == "SE" and o.degree == s.degree and not o.failed for o in self.scores
            ):
                continue
            rows.append(s)
        return tuple(rows)


def _folds(n: int, scheme: str, min_train: int = 3) -> list[tuple[np.ndarray, int]]:
    """(training rows, held-out row) of each fold of a scheme on n rows.

    Leave-one-out trains on every row but i; one-step-ahead trains on the
    first k rows and predicts row k, for k from min_train to n - 1.
    """
    if scheme == "loo":
        if n < 4:
            raise ValueError(f"leave-one-out scoring needs n >= 4 observations, got {n}")
        return [(np.delete(np.arange(n), i), i) for i in range(n)]
    if scheme != "osa":
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if min_train < 3:
        raise ValueError(f"min_train must be >= 3, got {min_train}")
    if n <= min_train:
        raise ValueError(f"one-step-ahead scoring needs n > min_train, got n={n}")
    return [(np.arange(k), k) for k in range(min_train, n)]


def _newton_fold(head: Dataset, full_theta: Hyperparams) -> Hyperparams | None:
    """The fold's optimum by guarded Newton steps from the full-data optimum,
    or None when the guard rejects a step or the steps stop short of it.

    In fit_ml's log coordinates z, on the fold's profile log likelihood l,
    from z0 = log theta: while the gradient g at z fails fit_ml's
    convergence rule, at most _NEWTON_STEPS times, take the Hessian H by
    forward differences of g (_NEWTON_H) and the step s = -H^-1 g, clipped
    to fit_ml's box.  A step is accepted when -H is positive definite,
    z + s lies within _NEWTON_RADIUS of z0 in every coordinate, and the
    gain l(z + s) - l(z) is between 0.5 and 1.5 times the quadratic
    model's gain g.s + s.H.s / 2 (a trust-region ratio test, Nocedal &
    Wright ch. 4).  The result is the first z that meets the convergence
    rule.  A full-data optimum on the box's bound, an evaluation that
    fails, or an RQ nu past NU_DIVERGENCE (where fit_ml substitutes SE)
    rejects the steps.  d + 1 evaluations of l per step for d log
    coordinates, and one more.
    """
    evaluate = _LogObjective(head, _ModelSpace.of(full_theta))
    values = evaluate.space.values(full_theta)
    z0 = np.log([values[n] for n in evaluate.space.positive])
    if np.any(z0 <= evaluate.lower) or np.any(z0 >= evaluate.upper):
        return None
    z, at = z0, evaluate(z0)
    steps = 0
    while at is not None and not evaluate.converged(z, at[2]):
        if steps == _NEWTON_STEPS:
            return None
        steps += 1
        ll, _, g = at
        hess = np.empty((g.size, g.size))
        for j in range(g.size):
            zj = z.copy()
            zj[j] += _NEWTON_H
            out = evaluate(zj)
            if out is None:
                return None
            hess[:, j] = (out[2] - g) / _NEWTON_H
        hess = 0.5 * (hess + hess.T)
        try:
            c = np.linalg.cholesky(-hess)
        except np.linalg.LinAlgError:
            return None
        step = np.linalg.solve(c.T, np.linalg.solve(c, g))
        step = np.clip(z + step, evaluate.lower, evaluate.upper) - z
        if np.max(np.abs(z + step - z0)) > _NEWTON_RADIUS:
            return None
        model_gain = g @ step + 0.5 * step @ hess @ step
        at = evaluate(z + step)
        if at is None or not model_gain > 0 or not 0.5 <= (at[0] - ll) / model_gain <= 1.5:
            return None
        z = z + step
    if at is None:
        return None
    theta = evaluate.theta(z, at[1])
    return None if theta.kernel.family == "RQ" and theta.kernel.nu > NU_DIVERGENCE else theta


def _fold_error(data: Dataset, full_theta: Hyperparams, train: np.ndarray, i: int) -> tuple[float, bool]:
    """Squared error of predicting row i from the fold's refit on the training
    rows, and whether the refit fell back from the Newton steps.

    The refit is `_newton_fold`'s optimum from the full-data one; where the
    guard rejects it, an ML fit with the model of that optimum from two fixed
    starts, the default one and that optimum.  Either way no random number
    is drawn.  Raises the FitError or ValueError of that fit or prediction.
    """
    head = Dataset(data.ts[train], data.ys[train])
    theta = _newton_fold(head, full_theta)
    fell_back = theta is None
    if fell_back:
        two_starts = FitOptions(restarts=2, warm_theta=full_theta)
        theta = fit_ml(head, full_theta.mean.degree, full_theta.kernel.family, two_starts).theta
    pred = marginal_moments(head, theta, [data.ts[i]]).mu_f[0]
    return (data.ys[i] - pred) ** 2, fell_back


def _cv_score(fold_results: list) -> tuple[float, int]:
    """A candidate's mean squared fold error over the `_fold_error` results
    of its folds, and the number of them that fell back to the two-start refit."""
    errors, fell_back = zip(*fold_results)
    return float(np.array(errors).mean()), sum(fell_back)


def _fold_runs(scheme: str, jobs: list):
    """A context that yields `run(indices)`, the `_fold_error` results of
    those jobs.

    One-step-ahead folds run in forked workers (`fork_pool`): a fold trained
    on the first k points has its optimum far from the full-data one, so
    most of them fall back to the two-start refit.  Leave-one-out folds run
    in this process: most of them take the Newton step, a few likelihood
    evaluations, less work than a fork costs.
    """
    if scheme == "osa":
        return fork_pool(_fold_error, jobs)
    return nullcontext(lambda indices: [_fold_error(*jobs[i]) for i in indices])


def _fixed_theta_mspe(data: Dataset, theta: Hyperparams, scheme: str, folds: list) -> float:
    """Mean squared fold error with theta held fixed in every fold, from one factor.

    With L L^T = K = C(ts, ts) + sigma^2 I and r = y - m(ts):
    - leave-one-out (GPML eq. 5.12): e_i = [K^-1 r]_i / [K^-1]_ii;
    - one-step-ahead (the prediction-error decomposition): the leading k x k
      block of L factors the first k rows, so e_k = L_kk (L^-1 r)_k.
    Each equals the fold's kriging residual up to rounding, not bit for bit.
    Raises what `Posterior` raises when K cannot be factored or r is not finite.
    """
    post = Posterior(data, theta)
    L, white = post.chol, post.white_resid
    held = np.array([i for _, i in folds])
    if scheme == "osa":
        errors = L.diagonal()[held] * white[held]
    else:
        # K^-1 r = L^-T white; [K^-1]_ii is the squared norm of row i of L^-T
        a, _ = dtrtrs(L.T, white, lower=0)
        inv_lt, info = dtrtri(L.T, lower=0)
        if info != 0:
            raise FactorizationError(f"triangular inverse failed at diagonal {info - 1}")
        errors = a[held] / np.einsum("ij,ij->i", inv_lt, inv_lt)[held]
    return float(np.mean(errors**2))


def _mspe(data: Dataset, scheme: str, folds: list, degree: int, family: str, opts: FitOptions | None,
          fixed_theta: Hyperparams | None) -> float:
    """One candidate's mean squared error over the given folds; raises its first fold error."""
    if fixed_theta is not None:
        return _fixed_theta_mspe(data, fixed_theta, scheme, folds)
    theta = fit_ml(data, degree, family, opts).theta
    jobs = [(data, theta, train, i) for train, i in folds]
    with _fold_runs(scheme, jobs) as run:
        return _cv_score(run(range(len(jobs))))[0]


def loo_mspe(
    data: Dataset,
    degree: int,
    family: str,
    opts: FitOptions | None = None,
    fixed_theta: Hyperparams | None = None,
) -> float:
    """Leave-one-out mean squared error of prediction.

    Each fold refits the ML optimum without observation i from the full-data
    fit (which `opts` sets): guarded Newton steps, or where the guard
    rejects one a two-start refit (`_fold_error`).  It then predicts the
    latent mean at t_i.  The folds run one after another in this process,
    and a candidate that `select_model` refits gets this score bit for bit.
    With `fixed_theta` the given hyper-parameters hold in every fold, and
    the score follows in closed form from one factor (GPML eq. 5.12), with
    no fit; a candidate that `select_model` screens out gets that score at
    its full-data optimum, bit for bit.
    """
    return _mspe(data, "loo", _folds(data.n, "loo"), degree, family, opts, fixed_theta)


def osa_mspe(
    data: Dataset,
    degree: int,
    family: str,
    min_train: int = 3,
    opts: FitOptions | None = None,
    fixed_theta: Hyperparams | None = None,
) -> float:
    """One-step-ahead mean squared error over successive partitions.

    For each k from min_train to n-1 the model is fit on the first k points
    and predicts point k+1, yielding exactly n - min_train residuals.  Each
    fold's refit sees only its first k points but, as a leave-one-out fold
    does, steps from the full-data optimum, which `opts` sets, and falls
    back to a two-start refit where the guard rejects a step.  The folds
    run in forked workers (`fork_pool`).  With `fixed_theta` the given
    hyper-parameters hold in every fold, and the residuals follow in closed
    form from one factor (the prediction-error decomposition), with no fit.
    With the default min_train, `select_model` gives a refit candidate the
    first score and a screened one the second, at its full-data optimum,
    bit for bit.
    """
    return _mspe(data, "osa", _folds(data.n, "osa", min_train), degree, family, opts, fixed_theta)


def select_model(
    data: Dataset,
    grid: CandidateGrid,
    scheme: str = "loo",
    opts: FitOptions | None = None,
) -> SelectionResult:
    """Score every candidate and pick the one with the lowest refit MSPE.

    Each candidate is fit on the full data with `opts` and scored in closed
    form with that optimum held fixed in every fold.  The leader, the
    lowest such score, has its folds refit first, each by guarded Newton
    steps from the full-data optimum or, where the guard rejects a step, a
    two-start refit; `fold_fallbacks` counts the latter.  Every other
    candidate whose closed-form score is at most the leader's refit score
    is refit next.  The full-data optimum has seen each held-out point, so
    a closed-form score is optimistic: a candidate whose score already
    exceeds the leader's refit score is not expected to win.  It keeps that
    score and is marked `screened`.  If a fold of the leader fails, every
    other candidate is refit.  Leave-one-out folds run in this process;
    one-step-ahead folds, most of which fall back, run in the workers of
    one `fork_pool`, a `run` per candidate (`_fold_runs`).

    Ties break toward fewer parameters, then toward the simpler family.
    RQ candidates whose nu diverged are scored as their SE refit and marked.
    An unknown scheme, or too few observations for its folds, raises
    ValueError before any fit.
    """
    folds = _folds(data.n, scheme)
    # The full-data fits come first: each decides nu divergence, gives the
    # candidate's closed-form score and starts its fold refits.  An RQ fit
    # whose nu diverged holds the SE refit, whose family the folds refit.
    scores: list[CandidateScore] = []
    for degree, family in grid.candidates():
        score = CandidateScore(degree, family, None, substituted_to_se=False, failed=False)
        try:
            full = fit_ml(data, degree, family, opts)
            mspe = _fixed_theta_mspe(data, full.theta, scheme, folds)
            score = replace(score, mspe=mspe, substituted_to_se=full.substituted_from == "RQ", fit=full)
        except (FitError, FactorizationError, ValueError) as exc:
            score = replace(score, failed=True, error=str(exc))
        scores.append(score)

    def sort_key(s: CandidateScore):
        return (s.mspe, len(_ModelSpace(s.degree, s.family).names), _FAMILY_RANK[s.family], s.degree)

    # The candidates in closed-form order, each with its folds' jobs: the
    # leader's folds are refit first, and a leader whose folds all refit
    # screens the candidates it beats in closed form.  The rest are refit,
    # one `run` each, in the workers of the leader's run.
    bound = np.inf
    order = sorted((k for k, s in enumerate(scores) if not s.failed), key=lambda k: sort_key(scores[k]))
    m = len(folds)
    jobs = [(data, scores[k].fit.theta, train, i) for k in order for train, i in folds]
    with _fold_runs(scheme, jobs) as run:
        for p, k in enumerate(order):
            if scores[k].mspe > bound:
                scores[k] = replace(scores[k], screened=True)
                continue
            try:
                mspe, fallbacks = _cv_score(run(range(p * m, (p + 1) * m)))
            except (FitError, ValueError) as exc:
                scores[k] = replace(scores[k], mspe=None, failed=True, error=str(exc), fit=None)
                continue
            scores[k] = replace(scores[k], mspe=mspe, fold_fallbacks=fallbacks)
            if p == 0:
                bound = mspe
    refitted = [s for s in scores if not (s.failed or s.screened)]
    if not refitted:
        raise FitError("every candidate model failed to fit")
    winner = min(refitted, key=sort_key)
    return SelectionResult(scheme=scheme, scores=tuple(scores), winner=winner)
