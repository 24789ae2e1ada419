"""Monotone outcome transformations and mapping trend statements back.

Fitting the latent model on g(Y) for a strictly increasing g leaves the
sign of the trend unchanged, so the TDI on the original scale equals the
TDI computed under the transformed-scale model.  Summaries of the latent
level itself are mapped back through g^{-1} by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit as _logit

from .posterior import Dataset, Hyperparams, JointPosterior, joint_posterior, sample_paths
from .indices import tdi

TRANSFORM_KINDS = ("identity", "log", "logit", "arcsine_sqrt")


@dataclass(frozen=True)
class TransformSpec:
    """One of the supported strictly increasing outcome transformations."""

    kind: str

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform {self.kind!r}; expected one of {TRANSFORM_KINDS}")

    @property
    def domain(self) -> tuple[float, float]:
        """Open interval on which g is defined."""
        if self.kind == "identity":
            return (-math.inf, math.inf)
        if self.kind == "log":
            return (0.0, math.inf)
        return (0.0, 1.0)

    def in_domain(self, y) -> np.ndarray:
        lo, hi = self.domain
        y = np.asarray(y, dtype=float)
        return (y > lo) & (y < hi)

    def forward(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "identity":
            return y.copy()
        if self.kind == "log":
            return np.log(y)
        if self.kind == "logit":
            return _logit(y)
        return np.arcsin(np.sqrt(y))

    def inverse(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "identity":
            return z.copy()
        if self.kind == "log":
            return np.exp(z)
        if self.kind == "logit":
            return expit(z)
        return np.sin(z) ** 2

    def deriv(self, y):
        """g'(y) on the domain interior; strictly positive."""
        y = np.asarray(y, dtype=float)
        if self.kind == "identity":
            return np.ones_like(y)
        if self.kind == "log":
            return 1.0 / y
        if self.kind == "logit":
            return 1.0 / (y * (1.0 - y))
        return 1.0 / (2.0 * np.sqrt(y * (1.0 - y)))


def transform_dataset(spec: TransformSpec, data: Dataset) -> Dataset:
    """Apply g to the outcomes; times are untouched.

    Boundary values are rejected rather than clipped: a y of exactly 0 or 1
    under logit carries information the transform cannot represent, and the
    caller should decide how to handle it.
    """
    ok = spec.in_domain(data.ys)
    if not np.all(ok):
        idx = int(np.flatnonzero(~ok)[0])
        lo, hi = spec.domain
        raise ValueError(
            f"y[{idx}] = {data.ys[idx]:g} is outside the open domain ({lo:g}, {hi:g}) "
            f"of the {spec.kind} transform"
        )
    return Dataset(ts=data.ts, ys=spec.forward(data.ys))


def tdi_original_scale(
    data: Dataset,
    spec: TransformSpec,
    theta: Hyperparams,
    t: float,
    delta: float = 0.0,
    method: str = "exact",
    k: int = 100_000,
    seed: int = 0,
) -> float:
    """TDI of the original-scale outcome under a model fitted on g(Y).

    Since g is strictly increasing, sign(d/dt g^{-1}(h)) = sign(dh), so the
    exact pathway is just the transformed-scale TDI.  The Monte-Carlo
    pathway samples (h, dh) pairs and evaluates the original-scale trend
    dh * 1/g'(g^{-1}(h)) directly; it exists to verify the identity.
    """
    tdata = transform_dataset(spec, data)
    if method == "exact":
        return tdi(tdata, theta, t, delta)
    if method != "mc":
        raise ValueError(f"method must be 'exact' or 'mc', got {method!r}")
    jp = joint_posterior(tdata, theta, [float(t) + float(delta)], blocks=("f", "df"))
    draws = sample_paths(jp, k, seed)
    h, dh = draws[:, 0], draws[:, 1]
    y = spec.inverse(h)
    slope = dh / spec.deriv(y)  # d/dt g^{-1}(h) by the inverse-function rule
    return float(np.mean(slope > 0.0))


def back_transform_summary(
    spec: TransformSpec,
    jp: JointPosterior,
    k: int,
    seed: int,
    taus: tuple[float, ...] = (0.025, 0.5, 0.975),
) -> np.ndarray:
    """Quantiles of g^{-1}(f) per grid point, shape (len(taus), p).

    jp must live on the transformed scale and contain the level block.
    """
    if "f" not in jp.blocks:
        raise ValueError("joint posterior must contain the f block")
    if k < 1:
        raise ValueError("k must be >= 1")
    draws = sample_paths(jp, k, seed)
    f_draws = draws[:, : jp.p]
    return np.quantile(spec.inverse(f_draws), list(taus), axis=0)
