"""Analysis configuration and machine-readable trend reports.

A run writes one directory: `report.json` (schema-stable, byte-identical
for a fixed seed), per-curve CSVs under `curves/`, and `provenance.json`.
Everything the report contains is derived deterministically from the
input file, the configuration and the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np
from scipy.special import ndtri

from . import __version__
from .estimation import (
    RHAT_MIN_CHAINS,
    RHAT_MIN_KEPT,
    FitOptions,
    HalfNormalPrior,
    HalfStudentTPrior,
    McmcOptions,
    PriorSpec,
    StudentTPrior,
    _MAX_DRAWS,
    _ModelSpace,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
    rhat,
)
from .indices import TdiCurve, crosspoint, evaluate_indices
from .kernels import FAMILIES, AssumptionError, order_violation, require_order
from .posterior import Dataset, Hyperparams, Posterior
from .selection import SCHEMES, CandidateGrid, select_model
from .transforms import TRANSFORM_KINDS, TransformSpec, back_transform_summary, transform_dataset

_Z975 = float(ndtri(0.975))
SCHEMA_VERSION = 1
ESTIMATORS = ("ml", "bayes")


class ConfigError(ValueError):
    """The analysis configuration is invalid for the given data."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a fit run needs besides the data itself."""

    model: str = "auto"  # "auto" or "<degree>:<family>", e.g. "0:RQ"
    estimator: str = "ml"  # "ml" | "bayes"
    grid_size: int = 500
    intervals: tuple = ()  # ETI intervals; empty means the full data span
    anchor: float | None = None  # default: last observation time
    transform: str = "identity"
    seed: int = 0
    chains: int = McmcOptions.chains
    iters: int = McmcOptions.iters
    threshold: float = 0.5
    crosspoint_window: tuple | None = None
    forecast: bool = False
    compute_eti: bool = True
    selection_scheme: str = "loo"
    candidate_degrees: tuple = CandidateGrid.degrees
    candidate_families: tuple = CandidateGrid.families
    restarts: int = FitOptions.restarts
    max_draws: int = _MAX_DRAWS
    prior_overrides: dict = field(default_factory=dict)

    def parsed_model(self) -> tuple[int, str] | None:
        """None for auto selection, else (degree, family)."""
        if self.model == "auto":
            return None
        try:
            deg_s, family = self.model.split(":")
            degree = int(deg_s)
        except ValueError:
            raise ConfigError(
                f"model must be 'auto' or '<degree>:<family>', got {self.model!r}"
            ) from None
        family = family.upper()
        if degree not in (0, 1, 2) or family not in FAMILIES:
            raise ConfigError(f"unknown model {self.model!r}")
        return degree, family

    def validate(self, data: Dataset) -> None:
        """Reject a configuration before any fit: ConfigError, or AssumptionError (A3)."""
        parsed = self.parsed_model()
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold}")
        for name, values in (("anchor", () if self.anchor is None else (self.anchor,)),
                             ("interval end", [v for iv in self.intervals for v in iv]),
                             ("crosspoint window end", self.crosspoint_window or ())):
            bad = [v for v in values if not math.isfinite(v)]
            if bad:
                raise ConfigError(f"{name} must be finite, got {bad[0]}")
        # R-hat's draws per chain come after a warmup of half the iterations
        if self.estimator == "bayes" and (self.chains < RHAT_MIN_CHAINS
                                          or self.iters - self.iters // 2 < RHAT_MIN_KEPT):
            raise ConfigError(f"R-hat needs >= {RHAT_MIN_CHAINS} chains and >= {2 * RHAT_MIN_KEPT - 1} "
                              f"iterations, got {self.chains} and {self.iters}")
        if self.estimator == "bayes" and self.max_draws < 1:
            raise ConfigError(f"max draws must be >= 1, got {self.max_draws}")
        if self.grid_size < 2:
            raise ConfigError(f"grid size must be >= 2, got {self.grid_size}")
        if self.transform not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.selection_scheme not in SCHEMES:
            raise ConfigError(f"selection scheme must be one of {SCHEMES}, got {self.selection_scheme!r}")
        lo, hi = data.span
        if not self.forecast:
            for a, b in self.resolved_intervals(data):
                if a < lo - 1e-9 or b > hi + 1e-9:
                    raise ConfigError(
                        f"interval [{a}, {b}] lies outside the data span [{lo}, {hi}]; "
                        "pass --forecast to allow extrapolation"
                    )
            if self.anchor is not None and not lo - 1e-9 <= self.anchor <= hi + 1e-9:
                raise ConfigError(
                    f"anchor {self.anchor} lies outside the data span; pass --forecast to allow it"
                )
        if self.crosspoint_window is not None:  # crosspoint's bounds: the TDI grid spans the data
            a, b = (float(v) for v in self.crosspoint_window)
            if not lo - 1e-12 <= a <= b <= hi + 1e-12:
                raise ConfigError(f"crosspoint window [{a}, {b}] must lie within the data span [{lo}, {hi}]")
        if parsed is None:
            grid = self.candidate_grid()
            spaces = [_ModelSpace(d, f) for d in grid.degrees for f in grid.families]
        else:
            require_order(parsed[1], 2 if self.compute_eti else 1)
            spaces = [_ModelSpace(*parsed)]
        # each prior override is a JSON object named after a parameter of the model (any candidate)
        names = list(dict.fromkeys(name for space in spaces for name in space.names))
        if not isinstance(self.prior_overrides, dict):
            raise ConfigError("prior overrides must be a JSON object of {name: {\"dist\": ...}} entries, "
                              f"got {type(self.prior_overrides).__name__}")
        for name, spec in self.prior_overrides.items():
            if not isinstance(spec, dict):
                raise ConfigError(f"prior override for {name!r} must be a JSON object, got {spec!r}")
            if name not in names:
                model = "any candidate model" if parsed is None else f"model {self.model!r}"
                raise ConfigError(f"prior override {name!r} is not a parameter of {model}; "
                                  f"expected one of {names}")
        priors_from_overrides(PriorSpec({}), self.prior_overrides)  # each entry builds its prior

    def candidate_grid(self) -> CandidateGrid:
        """The auto-selection grid less the families that cannot give the reported indices (A3).

        Raises ConfigError for an invalid grid and AssumptionError when no family is left."""
        try:
            grid = CandidateGrid(degrees=tuple(self.candidate_degrees),
                                 families=tuple(self.candidate_families))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        violations = [order_violation(f, 2 if self.compute_eti else 1) for f in grid.families]
        if all(violations):
            raise AssumptionError(str(violations[0]))
        return replace(grid, families=tuple(f for f, v in zip(grid.families, violations) if v is None))

    def resolved_intervals(self, data: Dataset) -> tuple:
        if not self.compute_eti:
            return ()
        if self.intervals:
            return tuple((float(a), float(b)) for a, b in self.intervals)
        lo, hi = data.span
        return ((lo, hi),)

    def resolved_anchor(self, data: Dataset) -> float:
        return float(data.ts[-1]) if self.anchor is None else float(self.anchor)

    def to_dict(self) -> dict:
        return asdict(self)  # JSON writes its tuples as arrays

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_PRIOR_KINDS = {
    "t": StudentTPrior,
    "half_t": HalfStudentTPrior,
    "half_normal": HalfNormalPrior,
}


def priors_from_overrides(base: PriorSpec, overrides: dict) -> PriorSpec:
    """Replace individual default priors from {"name": {"dist": ..., ...}} entries.

    Raises ConfigError for an unknown dist, and for parameters that are
    missing, extra, not finite numbers, or out of the prior's range.
    """
    priors = dict(base.priors)
    for name, spec in overrides.items():
        kind = spec.get("dist")
        if not isinstance(kind, str) or kind not in _PRIOR_KINDS:
            raise ConfigError(f"unknown prior dist {kind!r} for {name!r}; expected one of {sorted(_PRIOR_KINDS)}")
        kwargs = {k: v for k, v in spec.items() if k != "dist"}
        for k, v in kwargs.items():
            try:  # type() rules out bool; float() of an integer too large for a float overflows
                finite = type(v) in (int, float) and math.isfinite(float(v))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"bad prior parameters for {name!r}: {k} must be a finite number, got {v!r}")
        try:
            priors[name] = _PRIOR_KINDS[kind](**{k: float(v) for k, v in kwargs.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad prior parameters for {name!r}: {exc}") from None
    return PriorSpec(priors)


def _curve_dict(grid: np.ndarray, cols: dict, scale: str) -> dict:
    out = {"t": [float(v) for v in grid]}
    for name, values in cols.items():
        out[name] = [float(v) for v in np.asarray(values)]
    out["scale"] = scale
    return out


# The posterior quantiles a Bayesian report carries, by column name.
_QUANTILES = {"q2_5": 0.025, "q50": 0.5, "q97_5": 0.975}


def _quantile_cols(draws) -> dict:
    """Column name -> quantiles over the draws (axis 0) at that level, from one np.quantile call."""
    return dict(zip(_QUANTILES, np.quantile(draws, list(_QUANTILES.values()), axis=0)))


def _gauss_band(mu: np.ndarray, var: np.ndarray) -> dict:
    """The columns of a Gaussian curve: its mean and central 95% band."""
    sd = np.sqrt(np.maximum(var, 0.0))
    return {"mean": mu, "lo2_5": mu - _Z975 * sd, "hi97_5": mu + _Z975 * sd}


@dataclass
class TrendReport:
    """In-memory form of one run's outputs; `payload` is the report.json body."""

    payload: dict

    def write(self, out_dir: str) -> None:
        curves_dir = os.path.join(out_dir, "curves")
        os.makedirs(curves_dir, exist_ok=True)
        for name, body in (("report.json", self.payload), ("provenance.json", self.payload["provenance"])):
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                json.dump(body, fh, indent=2, sort_keys=True)
                fh.write("\n")
        for name, curve in self.payload["curves"].items():
            if curve is None:
                continue
            cols = [k for k in curve if k != "t" and k != "scale"]
            path = os.path.join(curves_dir, f"{name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["t"] + cols)
                for i, t in enumerate(curve["t"]):
                    writer.writerow([repr(t)] + [repr(curve[c][i]) for c in cols])


# The fields of each selection candidate's row in diagnostics.selection.scores.
_SCORE_KEYS = ("degree", "family", "mspe", "substituted_to_se", "failed", "screened")


def run_fit(data: Dataset, config: AnalysisConfig, data_digest: str) -> TrendReport:
    """Execute the full analysis pipeline for one dataset and configuration."""
    config.validate(data)
    tf = TransformSpec(config.transform)
    fit_data = transform_dataset(tf, data)
    intervals = config.resolved_intervals(data)
    grid = np.linspace(*data.span, config.grid_size)

    selection_info = None
    parsed = config.parsed_model()
    opts = FitOptions(restarts=config.restarts, seed=config.seed)
    if parsed is None:
        sel = select_model(fit_data, config.candidate_grid(), scheme=config.selection_scheme, opts=opts)
        # the selection's full-data fit of the winner, as fit_ml of the family
        # it fitted (SE for a diverged RQ) would redo it, with no substitution
        fit = replace(sel.winner.fit, substituted_from=None)
        degree, family = sel.winner.degree, fit.theta.kernel.family
        selection_info = {
            "scheme": sel.scheme,
            "winner": {"degree": sel.winner.degree, "family": sel.winner.family},
            "scores": [{key: getattr(s, key) for key in _SCORE_KEYS} for s in sel.scores],
        }
    else:
        degree, family = parsed
        fit = fit_ml(fit_data, degree, family, opts)

    outputs = _ml_outputs if config.estimator == "ml" else _bayes_outputs
    fit_block, curve_cols, eti_cols, diagnostics = outputs(fit_data, config, tf, fit, grid, intervals)
    if selection_info is not None:
        diagnostics["selection"] = selection_info

    # the level f is on the outcome's scale, every other curve (f_latent too) on the model's
    model_scale = "original" if tf.kind == "identity" else "transformed"
    curves = {name: None if cols is None else _curve_dict(grid, cols, "original" if name == "f" else model_scale)
              for name, cols in curve_cols.items()}
    eti_block = [{"interval": [a, b], **{name: float(col[j]) for name, col in eti_cols.items()}}
                 for j, (a, b) in enumerate(intervals)]
    tdi = TdiCurve(grid=grid, values=curve_cols["tdi"]["value" if config.estimator == "ml" else "q50"],
                   anchor=config.resolved_anchor(data))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "package_version": __version__,
            "config_hash": config.config_hash(),
            "data_digest": data_digest,
            "seed": config.seed,
        },
        "config": config.to_dict(),
        "model": {
            "mean_degree": degree,
            "kernel_family": family,
            "estimator": config.estimator,
            "transform": config.transform,
            "selected_by": "user" if parsed is not None else f"auto-{config.selection_scheme}",
        },
        "fit": fit_block,
        "grid": [float(v) for v in grid],
        "curves": curves,
        "eti": eti_block,
        "crosspoint": crosspoint(tdi, config.crosspoint_window or data.span, threshold=config.threshold),
        "diagnostics": diagnostics,
    }
    return TrendReport(payload=payload)


def _ml_outputs(fit_data, config, tf, fit, grid, intervals):
    """The report parts of an ML fit: (fit block, curve columns, ETI columns, diagnostics).

    Curve columns map each curve's name to its columns, {column name: values
    on the grid} in the CSV's order, or to None for a curve the run does not
    compute.  The TDI curve's column is `value`.  ETI columns map each
    column name to one value per interval.  `run_fit` builds the report's
    curves, scale tags, ETI block and crosspoint from them.
    """
    theta = fit.theta
    post = Posterior(fit_data, theta)
    mm, tdi_vals, rates, etis = evaluate_indices(post, grid, intervals, want_eti=config.compute_eti)
    level = _gauss_band(mm.mu_f, mm.var_f)
    curves = {
        "df": _gauss_band(mm.mu_df, mm.var_df),
        "tdi": {"value": tdi_vals},
        "predictive": _gauss_band(mm.mu_f, mm.var_f + theta.sigma**2),
        "local_eti": None if rates is None else {"value": rates},
    }
    if tf.kind == "identity":
        curves["f"] = level
    else:
        if tf.kind == "arcsine_sqrt":
            # sin^2 increases only on [0, pi/2], which the latent band can leave
            qs = back_transform_summary(tf, post.joint(grid, blocks=("f",)), k=4000, seed=config.seed,
                                        taus=tuple(_QUANTILES.values()))
        else:
            # exp and expit increase on the whole line: they map quantiles of f exactly
            qs = [tf.inverse(level[c]) for c in ("lo2_5", "mean", "hi97_5")]
        curves["f"] = dict(zip(_QUANTILES, qs))
        # keep the transformed-scale level too; its bands are exact
        curves["f_latent"] = level

    fit_block = {
        "params": _theta_params(theta),
        "loglik": fit.loglik,
        "converged": fit.converged,
        "substituted_from": fit.substituted_from,
    }
    diagnostics = {
        "n_failed_restarts": fit.n_failed_restarts,
        "n_restarts": len(fit.start_logliks),
    }
    return fit_block, curves, {"value": etis}, diagnostics


def _theta_params(theta: Hyperparams) -> dict:
    return {name: float(v) for name, v in _ModelSpace.of(theta).values(theta).items()}


def _bayes_outputs(fit_data, config, tf, ml, grid, intervals):
    """The report parts of a Bayesian fit, in `_ml_outputs`'s layout.

    Curve and ETI columns are the posterior quantiles q2_5, q50 and q97_5
    (df, and f under the identity transform, also carry a `mean`), so the
    TDI curve's column is its median `q50`.
    """
    priors = default_priors(ml.theta)
    if config.prior_overrides:
        priors = priors_from_overrides(priors, config.prior_overrides)
    # the ML fit's family is SE when an RQ fit was substituted
    samples = fit_bayes(fit_data, ml.theta.mean.degree, ml.theta.kernel.family, priors=priors,
                        opts=McmcOptions(chains=config.chains, iters=config.iters, seed=config.seed))
    idx = index_posterior(fit_data, samples, grid, want_eti=config.compute_eti, intervals=intervals,
                          max_draws=config.max_draws)

    curves = {
        "tdi": _quantile_cols(idx.tdi),
        "local_eti": None if idx.local_eti is None else _quantile_cols(idx.local_eti),
    }
    eti = _quantile_cols(idx.eti)  # one entry per interval; none without ETI
    diagnostics = {"skipped_draw_fraction": idx.skipped_fraction, "n_draws_used": idx.n_used}
    level = (idx.mu_f, idx.var_f, idx.mu_df, idx.var_df, idx.noise_var)
    # the per-draw indices are summarized: free them before the level curves draw
    del idx
    curves |= _bayes_level_curves(*level, tf, config.seed)

    param_quantiles = {
        name: {q: float(v) for q, v in _quantile_cols(samples.flat(name)).items()}
        for name in samples.param_names
    }
    fit_block = {
        "ml_params": _theta_params(ml.theta),
        "param_quantiles": param_quantiles,
        "substituted_from": ml.substituted_from,
    }
    diagnostics["rhat"] = {name: rhat(samples, name) for name in samples.param_names}
    diagnostics["acceptance"] = [float(a) for a in samples.acceptance]
    return fit_block, curves, eti, diagnostics


def _bayes_level_curves(mu_f, var_f, mu_df, var_df, noise_var, tf, seed) -> dict:
    """Columns of the f, df and predictive mixture curves, by sampling one
    realization per used draw from its grid moments (`IndexPosterior` rows);
    quantiles then reflect both parameter and path noise."""

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((mu_f.shape[0], 3, mu_f.shape[1]))
    # mu + sd * z, written over z so the draws need no second buffer
    f_arr, df_arr, pred_arr = z[:, 0], z[:, 1], z[:, 2]
    f_arr *= np.sqrt(np.maximum(var_f, 0.0))
    f_arr += mu_f
    df_arr *= np.sqrt(np.maximum(var_df, 0.0))
    df_arr += mu_df
    pred_arr *= np.sqrt(np.maximum(var_f, 0.0) + noise_var[:, None])
    pred_arr += mu_f
    out = {
        "df": {"mean": np.mean(mu_df, axis=0), **_quantile_cols(df_arr)},
        "predictive": _quantile_cols(pred_arr),
    }
    if tf.kind == "identity":
        out["f"] = {"mean": np.mean(mu_f, axis=0), **_quantile_cols(f_arr)}
    else:
        out["f"] = _quantile_cols(tf.inverse(f_arr))
    return out
