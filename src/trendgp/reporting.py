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
import os
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.stats import norm as _norm

from . import __version__
from .estimation import (
    DrawMoments,
    FitOptions,
    HalfNormalPrior,
    HalfStudentTPrior,
    McmcOptions,
    PriorSpec,
    StudentTPrior,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
    rhat,
)
from .indices import TdiCurve, _eti, _gauss_upper, _local_eti_from_moments, crosspoint
from .kernels import FAMILIES, KernelSpec, require_assumptions
from .posterior import Dataset, Hyperparams, Posterior
from .selection import CandidateGrid, select_model
from .transforms import TransformSpec, back_transform_summary, transform_dataset

_Z975 = float(_norm.ppf(0.975))
SCHEMA_VERSION = 1


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
    chains: int = 4
    iters: int = 25_000
    threshold: float = 0.5
    crosspoint_window: tuple | None = None
    forecast: bool = False
    compute_eti: bool = True
    selection_scheme: str = "loo"
    candidate_degrees: tuple = (0, 1, 2)
    candidate_families: tuple = ("SE", "RQ", "M32", "M52")
    restarts: int = 16
    max_draws: int = 1000
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
        self.parsed_model()
        if self.estimator not in ("ml", "bayes"):
            raise ConfigError(f"estimator must be 'ml' or 'bayes', got {self.estimator!r}")
        if self.grid_size < 2:
            raise ConfigError(f"grid size must be >= 2, got {self.grid_size}")
        if self.transform not in ("identity", "log", "logit", "arcsine_sqrt"):
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.selection_scheme not in ("loo", "osa"):
            raise ConfigError(f"selection scheme must be 'loo' or 'osa', got {self.selection_scheme!r}")
        if self.model == "auto":
            try:
                CandidateGrid(degrees=tuple(self.candidate_degrees),
                              families=tuple(self.candidate_families))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
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
        out = asdict(self)
        out["intervals"] = [list(iv) for iv in self.intervals]
        out["candidate_degrees"] = list(self.candidate_degrees)
        out["candidate_families"] = list(self.candidate_families)
        if self.crosspoint_window is not None:
            out["crosspoint_window"] = list(self.crosspoint_window)
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_PRIOR_KINDS = {
    "t": StudentTPrior,
    "half_t": HalfStudentTPrior,
    "half_normal": HalfNormalPrior,
}


def priors_from_overrides(base: PriorSpec, overrides: dict) -> PriorSpec:
    """Replace individual default priors from {"name": {"dist": ..., ...}} entries."""
    priors = dict(base.priors)
    for name, spec in overrides.items():
        kind = spec.get("dist")
        if kind not in _PRIOR_KINDS:
            raise ConfigError(f"unknown prior dist {kind!r} for {name!r}; expected one of {sorted(_PRIOR_KINDS)}")
        kwargs = {k: float(v) for k, v in spec.items() if k != "dist"}
        try:
            priors[name] = _PRIOR_KINDS[kind](**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad prior parameters for {name!r}: {exc}") from None
    return PriorSpec(priors)


def _curve_dict(grid: np.ndarray, **cols) -> dict:
    out = {"t": [float(v) for v in grid]}
    for name, values in cols.items():
        out[name] = [float(v) for v in np.asarray(values)]
    return out


def _gauss_band(mu: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sd = np.sqrt(np.maximum(var, 0.0))
    return mu - _Z975 * sd, mu + _Z975 * sd


@dataclass
class TrendReport:
    """In-memory form of one run's outputs; `payload` is the report.json body."""

    payload: dict

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        curves_dir = os.path.join(out_dir, "curves")
        os.makedirs(curves_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "provenance.json"), "w", encoding="utf-8") as fh:
            json.dump(self.payload["provenance"], fh, indent=2, sort_keys=True)
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


def run_fit(data: Dataset, config: AnalysisConfig, data_digest: str) -> TrendReport:
    """Execute the full analysis pipeline for one dataset and configuration."""
    config.validate(data)
    tf = TransformSpec(config.transform)
    fit_data = transform_dataset(tf, data)
    anchor = config.resolved_anchor(data)
    intervals = config.resolved_intervals(data)
    lo, hi = data.span
    grid = np.linspace(lo, hi, config.grid_size)

    selection_info = None
    parsed = config.parsed_model()
    if parsed is None:
        sel = select_model(
            fit_data,
            CandidateGrid(degrees=config.candidate_degrees, families=config.candidate_families),
            scheme=config.selection_scheme,
            opts=FitOptions(restarts=config.restarts, seed=config.seed),
        )
        degree, family = sel.winner.degree, sel.winner.family
        if sel.winner.substituted_to_se:
            family = "SE"
        selection_info = {
            "scheme": sel.scheme,
            "winner": {"degree": sel.winner.degree, "family": sel.winner.family},
            "scores": [
                {
                    "degree": s.degree,
                    "family": s.family,
                    "mspe": s.mspe,
                    "substituted_to_se": s.substituted_to_se,
                    "failed": s.failed,
                }
                for s in sel.scores
            ],
        }
    else:
        degree, family = parsed

    if config.estimator == "ml":
        fit_block, curves, eti_block, cp, diagnostics = _ml_outputs(
            fit_data, config, tf, degree, family, grid, anchor, intervals
        )
    else:
        fit_block, curves, eti_block, cp, diagnostics = _bayes_outputs(
            fit_data, config, tf, degree, family, grid, anchor, intervals
        )
    if selection_info is not None:
        diagnostics["selection"] = selection_info

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
        "crosspoint": cp,
        "diagnostics": diagnostics,
    }
    return TrendReport(payload=payload)


def _crosspoint_value(curve: TdiCurve, config: AnalysisConfig, data_span) -> float | None:
    window = config.crosspoint_window or data_span
    cp = crosspoint(curve, window, threshold=config.threshold)
    return None if cp is None else float(cp)


def _ml_outputs(fit_data, config, tf, degree, family, grid, anchor, intervals):
    fit = fit_ml(fit_data, degree, family, FitOptions(restarts=config.restarts, seed=config.seed))
    theta = fit.theta
    if config.compute_eti:
        require_assumptions(theta.kernel, require_eti=True)
    post = Posterior(fit_data, theta)
    mm = post.marginal(grid, need_d2f=config.compute_eti)
    tdi_c = TdiCurve(grid=grid, values=_gauss_upper(mm.mu_df, mm.var_df), anchor=anchor)
    f_lo, f_hi = _gauss_band(mm.mu_f, mm.var_f)
    df_lo, df_hi = _gauss_band(mm.mu_df, mm.var_df)
    pred_lo, pred_hi = _gauss_band(mm.mu_f, mm.var_f + theta.sigma**2)

    scale = "original" if config.transform == "identity" else "transformed"
    curves = {
        "df": _curve_dict(grid, mean=mm.mu_df, lo2_5=df_lo, hi97_5=df_hi) | {"scale": scale},
        "tdi": _curve_dict(grid, value=tdi_c.values) | {"scale": scale},
        "predictive": _curve_dict(grid, mean=mm.mu_f, lo2_5=pred_lo, hi97_5=pred_hi) | {"scale": scale},
    }
    if config.transform == "identity":
        curves["f"] = _curve_dict(grid, mean=mm.mu_f, lo2_5=f_lo, hi97_5=f_hi) | {"scale": "original"}
    else:
        qs = back_transform_summary(tf, post.joint(grid, blocks=("f",)), k=4000, seed=config.seed)
        curves["f"] = _curve_dict(grid, q2_5=qs[0], q50=qs[1], q97_5=qs[2]) | {"scale": "original"}
        # keep the transformed-scale level too; its bands are exact
        curves["f_latent"] = _curve_dict(grid, mean=mm.mu_f, lo2_5=f_lo, hi97_5=f_hi) | {"scale": "transformed"}

    if config.compute_eti:
        deti, _, _, _ = _local_eti_from_moments(mm)
        curves["local_eti"] = _curve_dict(grid, value=deti) | {"scale": scale}
        eti_block = [{"interval": [a, b], "value": _eti(post, (a, b))} for a, b in intervals]
    else:
        curves["local_eti"] = None
        eti_block = []

    cp = _crosspoint_value(tdi_c, config, fit_data.span)
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
    return fit_block, curves, eti_block, cp, diagnostics


def _theta_params(theta: Hyperparams) -> dict:
    params = {f"beta{j}": float(b) for j, b in enumerate(theta.mean.coefficients)}
    params["alpha"] = float(theta.kernel.alpha)
    params["rho"] = float(theta.kernel.rho)
    if theta.kernel.nu is not None:
        params["nu"] = float(theta.kernel.nu)
    params["sigma"] = float(theta.sigma)
    return params


def _bayes_outputs(fit_data, config, tf, degree, family, grid, anchor, intervals):
    if config.compute_eti:
        require_assumptions(KernelSpec.unit(family), require_eti=True)
    ml = fit_ml(fit_data, degree, family, FitOptions(restarts=config.restarts, seed=config.seed))
    if ml.substituted_from == "RQ":
        family = "SE"
    priors = default_priors(ml.theta)
    if config.prior_overrides:
        priors = priors_from_overrides(priors, config.prior_overrides)
    samples = fit_bayes(
        fit_data,
        degree,
        family,
        priors=priors,
        opts=McmcOptions(chains=config.chains, iters=config.iters, seed=config.seed),
    )
    idx = index_posterior(
        fit_data,
        samples,
        grid,
        anchor,
        intervals=intervals,
        max_draws=config.max_draws,
    )

    level = _bayes_level_curves(idx.level, grid, tf, config)
    scale = "original" if config.transform == "identity" else "transformed"
    taus = idx.tdi.taus
    curves = {
        "f": level["f"],
        "df": level["df"],
        "predictive": level["predictive"],
        "tdi": _curve_dict(
            grid,
            q2_5=idx.tdi.at(taus[0]),
            q50=idx.tdi.at(taus[1]),
            q97_5=idx.tdi.at(taus[2]),
        )
        | {"scale": scale},
    }
    if config.compute_eti and idx.local_eti is not None:
        curves["local_eti"] = _curve_dict(
            grid,
            q2_5=idx.local_eti.at(taus[0]),
            q50=idx.local_eti.at(taus[1]),
            q97_5=idx.local_eti.at(taus[2]),
        ) | {"scale": scale}
        eti_block = []
        for iv in intervals:
            qs = idx.eti_quantiles(iv)
            eti_block.append(
                {"interval": [iv[0], iv[1]], "q2_5": qs[0.025], "q50": qs[0.5], "q97_5": qs[0.975]}
            )
    else:
        curves["local_eti"] = None
        eti_block = []

    median_curve = TdiCurve(grid=grid, values=idx.tdi.at(taus[1]), anchor=anchor)
    cp = _crosspoint_value(median_curve, config, fit_data.span)

    q_names = ("q2_5", "q50", "q97_5")
    param_quantiles = {}
    for name in samples.param_names:
        vals = samples.flat(name)
        param_quantiles[name] = {
            q: float(np.quantile(vals, tau)) for q, tau in zip(q_names, (0.025, 0.5, 0.975))
        }
    fit_block = {
        "ml_params": _theta_params(ml.theta),
        "param_quantiles": param_quantiles,
        "substituted_from": ml.substituted_from,
    }
    diagnostics = {
        "rhat": {name: rhat(samples, name) for name in samples.param_names},
        "acceptance": [float(a) for a in samples.acceptance],
        "skipped_draw_fraction": idx.skipped_fraction,
        "n_draws_used": idx.n_used,
    }
    return fit_block, curves, eti_block, cp, diagnostics


def _bayes_level_curves(level: DrawMoments, grid, tf, config) -> dict:
    """Mixture curves for f, df and the predictive by sampling one realization
    per retained draw; quantiles then reflect both parameter and path noise."""

    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((level.mu_f.shape[0], 3, grid.size))
    # mu + sd * z, written over z so the draws need no second buffer
    f_arr, df_arr, pred_arr = z[:, 0], z[:, 1], z[:, 2]
    f_arr *= np.sqrt(np.maximum(level.var_f, 0.0))
    f_arr += level.mu_f
    df_arr *= np.sqrt(np.maximum(level.var_df, 0.0))
    df_arr += level.mu_df
    pred_arr *= np.sqrt(np.maximum(level.var_f, 0.0) + level.noise_var[:, None])
    pred_arr += level.mu_f
    scale = "original" if config.transform == "identity" else "transformed"

    def q(arr, tau):
        return np.quantile(arr, tau, axis=0)

    out = {
        "df": _curve_dict(
            grid, mean=np.mean(level.mu_df, axis=0), q2_5=q(df_arr, 0.025), q50=q(df_arr, 0.5), q97_5=q(df_arr, 0.975)
        )
        | {"scale": scale},
        "predictive": _curve_dict(
            grid, q2_5=q(pred_arr, 0.025), q50=q(pred_arr, 0.5), q97_5=q(pred_arr, 0.975)
        )
        | {"scale": scale},
    }
    if config.transform == "identity":
        out["f"] = _curve_dict(
            grid, mean=np.mean(level.mu_f, axis=0), q2_5=q(f_arr, 0.025), q50=q(f_arr, 0.5), q97_5=q(f_arr, 0.975)
        ) | {"scale": "original"}
    else:
        back = tf.inverse(f_arr)
        out["f"] = _curve_dict(
            grid, q2_5=q(back, 0.025), q50=q(back, 0.5), q97_5=q(back, 0.975)
        ) | {"scale": "original"}
        out["f_latent"] = _curve_dict(
            grid, q2_5=q(f_arr, 0.025), q50=q(f_arr, 0.5), q97_5=q(f_arr, 0.975)
        ) | {"scale": "transformed"}
    return out
