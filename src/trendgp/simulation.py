"""Simulation study: known-truth GP replicates and estimator summaries.

Each replicate draws a ground-truth function and its derivative jointly
from a GP prior on the unit interval, observes it with noise, refits the
model by maximum likelihood and scores the latent estimates, the TDI and
the local/integrated ETI against the realized truth with integrated
residuals and squared L2 norms.

A replicate's seed stream draws its truth and its noise and nothing else:
the refit starts from `fit_ml`'s deterministic list (the default start and
the best of a fixed Kronecker point set screened by the likelihood value),
so equal data give equal fits in every replicate and every study.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitError, FitOptions, fit_ml
from .indices import count_crossings, evaluate_indices
from .kernels import AssumptionError, KernelSpec, MeanSpec
from .parallel import fork_map
from .posterior import Dataset, Hyperparams, PathSampler, Posterior, prior_joint


def paper_truth_kernel() -> KernelSpec:
    """The study's generator: unit scale and length-scale sqrt(3)/(2 pi).

    That length-scale makes the prior derivative cross zero twice per unit
    interval in expectation.
    """
    return KernelSpec("SE", 1.0, math.sqrt(3.0) / (2.0 * math.pi))


@dataclass(frozen=True)
class Scenario:
    """One cell of the study design.

    Every cell draws its truth from `paper_truth_kernel()` and refits a
    constant mean with the SE kernel.
    """

    n: int
    sigma: float
    reps: int
    seed: int = 0
    grid_size: int = 201
    restarts: int = 8

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"scenario needs n >= 3 observations, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"scenario seed must be a non-negative integer, got {self.seed}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"scenario noise must be finite and non-negative, got {self.sigma}")
        if self.reps < 1:
            raise ValueError(f"scenario needs at least one replicate, got {self.reps}")
        if self.grid_size < 3:
            raise ValueError(f"grid_size must be >= 3, got {self.grid_size}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class ScenarioSummary:
    """Aggregates for one scenario, inclusive and exclusive of degenerate fits.

    Residual entries are means across replicates except the ETI pair, which
    report medians.  `excluded` counts degenerate fits (the latent estimate
    collapsed to a constant or to interpolation); `failed` counts replicates
    whose optimizer produced no finite optimum at all, or whose fitted
    posterior has no positive trend variance on the grid (A4).
    """

    n: int
    sigma: float
    reps_done: int
    failed: int
    excluded: int
    inclusive: dict
    exclusive: dict


@dataclass(frozen=True)
class StudyResult:
    summaries: tuple[ScenarioSummary, ...]

    def to_csv(self) -> str:
        cols = ["int_resid_f", "int_resid_df", "int_resid_tdi", "int_resid_eti",
                "l2_f", "l2_df", "l2_tdi", "l2_eti"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "sigma", "reps", "failed", "excluded", "aggregate"] + cols)
        for s in self.summaries:
            for label, agg in (("inclusive", s.inclusive), ("exclusive", s.exclusive)):
                writer.writerow(
                    [s.n, f"{s.sigma:g}", s.reps_done, s.failed, s.excluded, label]
                    + [f"{agg[c]:.6f}" for c in cols]
                )
        return buf.getvalue()


def _fdf_sampler(theta: Hyperparams, grid) -> PathSampler:
    """The factored prior of (f, df) on the grid."""
    return PathSampler.of(prior_joint(theta, grid, blocks=("f", "df")))


def _draw_fdf(sampler: PathSampler, seed: int) -> tuple[np.ndarray, np.ndarray]:
    draw = sampler.draw(1, seed)[0]
    p = draw.size // 2
    return draw[:p], draw[p:]


@dataclass(frozen=True)
class _TruthLaw:
    """What every replicate of a (grid_size, n) cell shares.

    The study grid, the observation times, the factored prior of (f, df) on
    their union (where the truth is drawn) and the indices of both in that
    union.  The truth prior is `paper_truth_kernel()`; neither the seed nor
    the noise level enters it.
    """

    grid: np.ndarray
    obs_ts: np.ndarray
    grid_ix: np.ndarray
    obs_ix: np.ndarray
    sampler: PathSampler

    @classmethod
    def of(cls, grid_size: int, n: int) -> "_TruthLaw":
        grid = np.linspace(0.0, 1.0, grid_size)
        obs_ts = np.linspace(0.0, 1.0, n)
        all_ts = np.unique(np.concatenate([grid, obs_ts]))
        truth_theta = Hyperparams(MeanSpec((0.0,)), paper_truth_kernel(), 0.0)
        return cls(grid, obs_ts, np.searchsorted(all_ts, grid),
                   np.searchsorted(all_ts, obs_ts), _fdf_sampler(truth_theta, all_ts))


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid rule over 1-D samples, with scipy.integrate.trapezoid's arithmetic."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def integrated_residual(truth, estimate, grid) -> float:
    """Trapezoid integral of (truth - estimate) over the grid span."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not truth.shape == estimate.shape == grid.shape:
        raise ValueError("truth, estimate and grid must have equal length")
    return _trapezoid(truth - estimate, grid)


def squared_l2(truth, estimate, grid) -> float:
    """Trapezoid integral of (truth - estimate)^2 over the grid span."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not truth.shape == estimate.shape == grid.shape:
        raise ValueError("truth, estimate and grid must have equal length")
    return _trapezoid((truth - estimate) ** 2, grid)


def _replicate(scenario: Scenario, rep: int, laws: dict) -> dict | None:
    """Run one replicate; None when the fit fails outright or its posterior
    violates A4 on the grid.

    `laws` memoizes the truth law by (grid_size, n): the first
    replicate of a cell in this process builds it, later ones reuse it.
    """
    sigma_key = int(round(scenario.sigma * 1e9))
    seed_seq = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(scenario.n, sigma_key, rep))
    rng = np.random.default_rng(seed_seq)

    key = (scenario.grid_size, scenario.n)
    if key not in laws:
        laws[key] = _TruthLaw.of(*key)
    law = laws[key]
    grid = law.grid
    f_all, df_all = _draw_fdf(law.sampler, seed=int(rng.integers(2**63)))
    f_truth, df_truth = f_all[law.grid_ix], df_all[law.grid_ix]

    ys = f_all[law.obs_ix] + scenario.sigma * rng.standard_normal(scenario.n)
    data = Dataset(law.obs_ts, ys)
    try:
        fit = fit_ml(data, 0, "SE", FitOptions(restarts=scenario.restarts))
    except FitError:
        return None

    theta = fit.theta
    try:
        mm, tdi_vals, _, (eti_total,) = evaluate_indices(Posterior(data, theta), grid, [(grid[0], grid[-1])])
    except AssumptionError:  # A4 fails at the fitted theta, e.g. a noise-free fit
        return None

    indicator = (df_truth > 0).astype(float)
    crossings = count_crossings(df_truth, grid)

    scale_y = max(float(np.std(ys)), 1e-12)
    degenerate = theta.kernel.alpha < 1e-6 * scale_y or theta.sigma < 1e-6 * scale_y

    return {
        "int_resid_f": integrated_residual(f_truth, mm.mu_f, grid),
        "int_resid_df": integrated_residual(df_truth, mm.mu_df, grid),
        "int_resid_tdi": integrated_residual(indicator, tdi_vals, grid),
        "int_resid_eti": crossings.total - eti_total,
        "l2_f": squared_l2(f_truth, mm.mu_f, grid),
        "l2_df": squared_l2(df_truth, mm.mu_df, grid),
        "l2_tdi": squared_l2(indicator, tdi_vals, grid),
        "l2_eti": (crossings.total - eti_total) ** 2,
        "degenerate": degenerate,
    }


_MEAN_COLS = ("int_resid_f", "int_resid_df", "int_resid_tdi", "l2_f", "l2_df", "l2_tdi")
_MEDIAN_COLS = ("int_resid_eti", "l2_eti")


def _aggregate(rows: list[dict]) -> dict:
    out = {}
    for col in _MEAN_COLS:
        out[col] = float(np.mean([r[col] for r in rows])) if rows else math.nan
    for col in _MEDIAN_COLS:
        out[col] = float(np.median([r[col] for r in rows])) if rows else math.nan
    return out


def run_study(scenarios) -> StudyResult:
    """Run every scenario; deterministic for a fixed seed and scenario list.

    Replicates are keyed by (scenario, replicate index) so the result does
    not depend on evaluation order, and they run in forked workers
    (`fork_map`).  Fit failures, and fits whose posterior violates A4 on
    the grid, are dropped and counted; degenerate fits stay in the
    inclusive aggregate and leave the exclusive one, mirroring how weak
    identifiability shows up in practice.

    The truth law of each (grid_size, n) is built once per process
    that runs its replicates, in a memo that lives for this call only: each
    forked worker fills its own copy, so the parent holds no factor, and a
    later call factors afresh under its own BLAS thread count.
    """
    scenarios = list(scenarios)
    laws: dict = {}
    done = iter(fork_map(_replicate, [(sc, rep, laws) for sc in scenarios for rep in range(sc.reps)]))
    summaries = []
    for scenario in scenarios:
        results = [next(done) for _ in range(scenario.reps)]
        rows = [r for r in results if r is not None]
        failed = len(results) - len(rows)
        keep = [r for r in rows if not r["degenerate"]]
        summaries.append(
            ScenarioSummary(
                n=scenario.n,
                sigma=scenario.sigma,
                reps_done=len(rows),
                failed=failed,
                excluded=len(rows) - len(keep),
                inclusive=_aggregate(rows),
                exclusive=_aggregate(keep),
            )
        )
    return StudyResult(summaries=tuple(summaries))
