"""Cross-validated selection over (mean degree, kernel family) candidates.

Leave-one-out scoring refits the marginal-likelihood optimum without each
observation and predicts it back; one-step-ahead scoring walks forward
through time.  Both are lists of (training rows, held-out row) folds
scored by one engine.  The winner minimizes the mean squared error of
prediction, with deterministic tie-breaking toward simpler models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimation import FitError, FitOptions, FitResult, _ModelSpace, fit_ml
from .parallel import fork_map
from .posterior import Dataset, Hyperparams, marginal_moments

# Tie-break order from fewest to most kernel parameters, then by smoothness.
_FAMILY_RANK = {"SE": 0, "M52": 1, "M32": 2, "RQ": 3}


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
        raise ValueError(f"scheme must be 'loo' or 'osa', got {scheme!r}")
    if min_train < 3:
        raise ValueError(f"min_train must be >= 3, got {min_train}")
    if n <= min_train:
        raise ValueError(f"one-step-ahead scoring needs n > min_train, got n={n}")
    return [(np.arange(k), k) for k in range(min_train, n)]


def _fold_error(data: Dataset, degree: int, family: str, fold_opts: FitOptions,
                fixed_theta: Hyperparams | None, train: np.ndarray, i: int):
    """Squared error of predicting row i from the training rows, or the
    FitError or ValueError of that fold's refit, returned so that one pool
    can carry the folds of every candidate."""
    head = Dataset(data.ts[train], data.ys[train])
    try:
        theta = fixed_theta if fixed_theta is not None else fit_ml(head, degree, family, fold_opts).theta
        pred = marginal_moments(head, theta, [data.ts[i]]).mu_f[0]
    except (FitError, ValueError) as exc:
        return exc
    return (data.ys[i] - pred) ** 2


def _cv_scores(data: Dataset, folds: list, jobs: list) -> list:
    """Mean squared fold error per (degree, family, fold_opts, fixed_theta)
    job, or the error of its first failed fold.  Every (job, fold) pair goes
    through one `fork_map`, so a selection forks one pool."""
    m = len(folds)
    errors = fork_map(_fold_error, [(data, *job, train, i) for job in jobs for train, i in folds])
    scores = []
    for j in range(len(jobs)):
        job_errors = errors[j * m : (j + 1) * m]
        failed = next((e for e in job_errors if isinstance(e, Exception)), None)
        scores.append(failed if failed is not None else float(np.array(job_errors).mean()))
    return scores


def _fold_opts(opts: FitOptions, full: FitResult) -> FitOptions:
    """Fold refits warm-start from the full-data optimum with a quarter of the restarts."""
    return replace(opts, warm_theta=full.theta, restarts=max(4, opts.restarts // 4))


def _mspe(data: Dataset, folds: list, degree: int, family: str, opts: FitOptions | None,
          fixed_theta: Hyperparams | None) -> float:
    """One candidate's mean squared error over the given folds; raises its first fold error."""
    opts = opts or FitOptions()
    job = (degree, family, opts, fixed_theta)
    if fixed_theta is None:
        full = fit_ml(data, degree, family, opts)
        job = (degree, full.theta.kernel.family, _fold_opts(opts, full), None)
    (score,) = _cv_scores(data, folds, [job])
    if isinstance(score, Exception):
        raise score
    return score


def loo_mspe(
    data: Dataset,
    degree: int,
    family: str,
    opts: FitOptions | None = None,
    fixed_theta: Hyperparams | None = None,
) -> float:
    """Leave-one-out mean squared error of prediction.

    Each fold refits the ML optimum without observation i, warm-started from
    the full-data fit, and predicts the latent mean at t_i.  With
    `fixed_theta` the refits are skipped and the given hyper-parameters are
    used in every fold (useful for hand checks).  The folds run in forked
    workers (`fork_map`); `select_model` scores each candidate with the same
    folds, bit for bit.
    """
    return _mspe(data, _folds(data.n, "loo"), degree, family, opts, fixed_theta)


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
    does, warm-starts from the full-data fit, with a quarter of the
    restarts; `fixed_theta` skips the refits.  The folds run in forked
    workers, and with the default min_train `select_model` scores each
    candidate with the same folds, bit for bit.
    """
    return _mspe(data, _folds(data.n, "osa", min_train), degree, family, opts, fixed_theta)


def select_model(
    data: Dataset,
    grid: CandidateGrid,
    scheme: str = "loo",
    opts: FitOptions | None = None,
) -> SelectionResult:
    """Score every candidate and pick the MSPE minimizer.

    Ties break toward fewer parameters, then toward the simpler family.
    RQ candidates whose nu diverged are scored as their SE refit and marked.
    An unknown scheme, or too few observations for its folds, raises
    ValueError before any fit.
    """
    folds = _folds(data.n, scheme)
    opts = opts or FitOptions()
    # The full-data fits come first: each decides nu divergence and
    # warm-starts its candidate's fold refits.
    scores: list[CandidateScore] = []
    jobs = {}  # position in scores -> that candidate's fold job
    for degree, family in grid.candidates():
        score = CandidateScore(degree, family, None, substituted_to_se=False, failed=False)
        try:
            full = fit_ml(data, degree, family, opts)
            score = replace(score, substituted_to_se=full.substituted_from == "RQ", fit=full)
            # an RQ fit whose nu diverged holds the SE refit, whose family the folds refit
            jobs[len(scores)] = (degree, full.theta.kernel.family, _fold_opts(opts, full), None)
        except (FitError, ValueError) as exc:
            score = replace(score, failed=True, error=str(exc))
        scores.append(score)
    # then the folds of every candidate, in one pool
    for k, mspe in zip(jobs, _cv_scores(data, folds, list(jobs.values()))):
        failed = isinstance(mspe, Exception)
        scores[k] = (replace(scores[k], failed=True, error=str(mspe), fit=None) if failed
                     else replace(scores[k], mspe=mspe))
    ok = [s for s in scores if not s.failed]
    if not ok:
        raise FitError("every candidate model failed to fit")

    def sort_key(s: CandidateScore):
        return (s.mspe, len(_ModelSpace(s.degree, s.family).names), _FAMILY_RANK[s.family], s.degree)

    winner = min(ok, key=sort_key)
    return SelectionResult(scheme=scheme, scores=tuple(scores), winner=winner)
