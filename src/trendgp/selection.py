"""Cross-validated selection over (mean degree, kernel family) candidates.

Leave-one-out scoring refits the marginal-likelihood optimum without each
observation and predicts it back; one-step-ahead scoring walks forward
through time.  The winner minimizes the mean squared error of prediction,
with deterministic tie-breaking toward simpler models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimation import FitError, FitOptions, FitResult, fit_ml
from .parallel import fork_map
from .posterior import Dataset, Hyperparams, marginal_moments

# Tie-break order from fewest to most kernel parameters, then by smoothness.
_FAMILY_RANK = {"SE": 0, "M52": 1, "M32": 2, "RQ": 3}
_N_KERNEL_PARAMS = {"SE": 2, "M52": 2, "M32": 2, "RQ": 3}


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


def _loo_fold(data: Dataset, degree: int, family: str, fold_opts: FitOptions,
              fixed_theta: Hyperparams | None, i: int):
    """Squared error of predicting observation i from the others, or the
    FitError or ValueError of that fold's refit, returned so that one pool
    can carry the folds of every candidate."""
    rest = Dataset(np.delete(data.ts, i), np.delete(data.ys, i))
    try:
        theta = fixed_theta if fixed_theta is not None else fit_ml(rest, degree, family, fold_opts).theta
        pred = marginal_moments(rest, theta, [data.ts[i]]).mu_f[0]
    except (FitError, ValueError) as exc:
        return exc
    return (data.ys[i] - pred) ** 2


def _loo_scores(data: Dataset, jobs: list) -> list:
    """Leave-one-out MSPE per (degree, family, fold_opts, fixed_theta) job, or
    the error of its first failed fold.  Every (job, fold) pair goes
    through one `fork_map`, so a selection forks one pool."""
    n = data.n
    errors = fork_map(_loo_fold, [(data, *job, i) for job in jobs for i in range(n)])
    scores = []
    for j in range(len(jobs)):
        folds = errors[j * n : (j + 1) * n]
        failed = next((e for e in folds if isinstance(e, Exception)), None)
        scores.append(failed if failed is not None else float(np.array(folds).mean()))
    return scores


def _check_loo(data: Dataset) -> None:
    if data.n < 4:
        raise ValueError(f"leave-one-out scoring needs n >= 4 observations, got {data.n}")


def _fold_opts(opts: FitOptions, full: FitResult) -> FitOptions:
    """Fold refits warm-start from the full-data optimum with a quarter of the restarts."""
    return replace(opts, warm_theta=full.theta, restarts=max(4, opts.restarts // 4))


def loo_mspe(
    data: Dataset,
    degree: int,
    family: str,
    opts: FitOptions | None = None,
    fixed_theta: Hyperparams | None = None,
    full_fit: FitResult | None = None,
) -> float:
    """Leave-one-out mean squared error of prediction.

    Each fold refits the ML optimum without observation i, warm-started from
    the full-data fit, and predicts the latent mean at t_i.  A caller that
    already holds `fit_ml(data, degree, family, opts)` passes it as
    `full_fit`.  With `fixed_theta` the refits are skipped and the given
    hyper-parameters are used in every fold (useful for hand checks).  The
    folds run in forked workers (`fork_map`); `select_model` scores each
    candidate with the same folds, bit for bit.
    """
    _check_loo(data)
    opts = opts or FitOptions()
    fold_opts = opts
    if fixed_theta is None:
        full = full_fit if full_fit is not None else fit_ml(data, degree, family, opts)
        fold_opts = _fold_opts(opts, full)
    (score,) = _loo_scores(data, [(degree, family, fold_opts, fixed_theta)])
    if isinstance(score, Exception):
        raise score
    return score


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
    and predicts point k+1, yielding exactly n - min_train residuals.
    """
    if min_train < 3:
        raise ValueError(f"min_train must be >= 3, got {min_train}")
    if data.n <= min_train:
        raise ValueError(f"one-step-ahead scoring needs n > min_train, got n={data.n}")
    opts = opts or FitOptions()
    fold_opts = replace(opts, restarts=max(4, opts.restarts // 4))
    errors = []
    warm = None
    for k in range(min_train, data.n):
        head = Dataset(data.ts[:k], data.ys[:k])
        if fixed_theta is not None:
            theta = fixed_theta
        else:
            fit = fit_ml(head, degree, family, replace(fold_opts, warm_theta=warm))
            theta = fit.theta
            warm = theta
        pred = marginal_moments(head, theta, [data.ts[k]]).mu_f[0]
        errors.append((data.ys[k] - pred) ** 2)
    return float(np.mean(errors))


def select_model(
    data: Dataset,
    grid: CandidateGrid,
    scheme: str = "loo",
    min_train: int = 3,
    opts: FitOptions | None = None,
) -> SelectionResult:
    """Score every candidate and pick the MSPE minimizer.

    Ties break toward fewer parameters, then toward the simpler family.
    RQ candidates whose nu diverged are scored as their SE refit and marked.
    """
    if scheme not in ("loo", "osa"):
        raise ValueError(f"scheme must be 'loo' or 'osa', got {scheme!r}")
    opts = opts or FitOptions()
    # The full-data fits come first: each decides nu divergence and
    # warm-starts its candidate's leave-one-out refits.
    scores: list[CandidateScore] = []
    loo_jobs = {}  # position in scores -> that candidate's fold job
    for degree, family in grid.candidates():
        score = CandidateScore(degree, family, None, substituted_to_se=False, failed=False)
        try:
            full = fit_ml(data, degree, family, opts)
            score = replace(score, substituted_to_se=full.substituted_from == "RQ", fit=full)
            # an RQ fit whose nu diverged already holds the SE refit
            eff_family = "SE" if score.substituted_to_se else family
            if scheme == "loo":
                _check_loo(data)
                loo_jobs[len(scores)] = (degree, eff_family, _fold_opts(opts, full), None)
            else:
                score = replace(score, mspe=osa_mspe(data, degree, eff_family, min_train, opts))
        except (FitError, ValueError) as exc:
            score = replace(score, failed=True, error=str(exc), fit=None)
        scores.append(score)
    # then the folds of every candidate, in one pool
    for k, mspe in zip(loo_jobs, _loo_scores(data, list(loo_jobs.values()))):
        failed = isinstance(mspe, Exception)
        scores[k] = (replace(scores[k], failed=True, error=str(mspe), fit=None) if failed
                     else replace(scores[k], mspe=mspe))
    ok = [s for s in scores if not s.failed]
    if not ok:
        raise FitError("every candidate model failed to fit")

    def sort_key(s: CandidateScore):
        n_params = s.degree + 1 + _N_KERNEL_PARAMS[s.family] + 1
        return (s.mspe, n_params, _FAMILY_RANK[s.family], s.degree)

    winner = min(ok, key=sort_key)
    return SelectionResult(scheme=scheme, scores=tuple(scores), winner=winner)
