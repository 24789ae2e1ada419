"""Simulation study: known-truth GP replicates and estimator summaries.

Each replicate draws a ground-truth function and its derivative jointly
from a GP prior on the unit interval, observes it with noise, refits the
model by maximum likelihood and scores the latent estimates, the TDI and
the local/integrated ETI against the realized truth with integrated
residuals and squared L2 norms.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import trapezoid

from .estimation import FitError, FitOptions, fit_ml
from .indices import _gauss_upper, _local_eti_from_moments, count_crossings
from .kernels import KernelSpec, MeanSpec
from .parallel import fork_map
from .posterior import Dataset, Hyperparams, marginal_moments, prior_joint, sample_paths


def paper_truth_kernel() -> KernelSpec:
    """The study's generator: unit scale and length-scale sqrt(3)/(2 pi).

    That length-scale makes the prior derivative cross zero twice per unit
    interval in expectation.
    """
    return KernelSpec("SE", 1.0, math.sqrt(3.0) / (2.0 * math.pi))


@dataclass(frozen=True)
class Scenario:
    """One cell of the study design."""

    n: int
    sigma: float
    reps: int
    seed: int = 0
    kernel: KernelSpec = field(default_factory=paper_truth_kernel)
    grid_size: int = 201
    fit_degree: int = 0
    fit_family: str = "SE"
    restarts: int = 8

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"scenario needs n >= 3 observations, got {self.n}")
        if self.sigma < 0:
            raise ValueError(f"scenario noise must be non-negative, got {self.sigma}")
        if self.reps < 1:
            raise ValueError(f"scenario needs at least one replicate, got {self.reps}")
        if self.grid_size < 3:
            raise ValueError(f"grid_size must be >= 3, got {self.grid_size}")


@dataclass(frozen=True)
class ScenarioSummary:
    """Aggregates for one scenario, inclusive and exclusive of degenerate fits.

    Residual entries are means across replicates except the ETI pair, which
    report medians.  `excluded` counts degenerate fits (the latent estimate
    collapsed to a constant or to interpolation); `failed` counts replicates
    whose optimizer produced no finite optimum at all.
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


def simulate_gp(theta: Hyperparams, grid, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One joint draw of (f, df) from the prior on the given grid."""
    grid = np.asarray(grid, dtype=float)
    jp = prior_joint(theta, grid, blocks=("f", "df"))
    draw = sample_paths(jp, 1, seed)[0]
    return draw[: grid.size], draw[grid.size :]


def integrated_residual(truth, estimate, grid) -> float:
    """Trapezoid integral of (truth - estimate) over the grid span."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not truth.shape == estimate.shape == grid.shape:
        raise ValueError("truth, estimate and grid must have equal length")
    return float(trapezoid(truth - estimate, grid))


def squared_l2(truth, estimate, grid) -> float:
    """Trapezoid integral of (truth - estimate)^2 over the grid span."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not truth.shape == estimate.shape == grid.shape:
        raise ValueError("truth, estimate and grid must have equal length")
    return float(trapezoid((truth - estimate) ** 2, grid))


def naive_sign_changes(data: Dataset) -> int:
    """Sign changes of consecutive first differences of the raw outcomes.

    The crude finite-difference baseline for "how often did the trend flip".
    """
    if data.n < 3:
        raise ValueError(f"sign-change counting needs n >= 3 observations, got {data.n}")
    diffs = np.diff(data.ys)
    return count_crossings(diffs).total


def _replicate(scenario: Scenario, rep: int) -> dict | None:
    """Run one replicate; None when the fit fails outright."""
    sigma_key = int(round(scenario.sigma * 1e9))
    seed_seq = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(scenario.n, sigma_key, rep))
    rng = np.random.default_rng(seed_seq)

    grid = np.linspace(0.0, 1.0, scenario.grid_size)
    obs_ts = np.linspace(0.0, 1.0, scenario.n)
    all_ts = np.unique(np.concatenate([grid, obs_ts]))
    truth_theta = Hyperparams(MeanSpec((0.0,)), scenario.kernel, 0.0)
    f_all, df_all = simulate_gp(truth_theta, all_ts, seed=int(rng.integers(2**63)))
    grid_ix = np.searchsorted(all_ts, grid)
    obs_ix = np.searchsorted(all_ts, obs_ts)
    f_truth, df_truth = f_all[grid_ix], df_all[grid_ix]

    ys = f_all[obs_ix] + scenario.sigma * rng.standard_normal(scenario.n)
    data = Dataset(obs_ts, ys)
    try:
        fit = fit_ml(
            data,
            scenario.fit_degree,
            scenario.fit_family,
            FitOptions(restarts=scenario.restarts, seed=int(rng.integers(2**63))),
        )
    except FitError:
        return None

    theta = fit.theta
    mm = marginal_moments(data, theta, grid, need_d2f=True)
    tdi_vals = _gauss_upper(mm.mu_df, mm.var_df)
    deti_vals, _, _, _ = _local_eti_from_moments(mm)

    indicator = (df_truth > 0).astype(float)
    crossings = count_crossings(df_truth, grid)
    eti_total = float(trapezoid(deti_vals, grid))

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
    (`fork_map`).  Fit failures are dropped and counted; degenerate fits
    stay in the inclusive aggregate and leave the exclusive one, mirroring
    how weak identifiability shows up in practice.
    """
    scenarios = list(scenarios)
    done = iter(fork_map(_replicate, [(sc, rep) for sc in scenarios for rep in range(sc.reps)]))
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
