"""Monotone outcome transformations and mapping trend statements back.

Fitting the latent model on g(Y) for a strictly increasing g leaves the
sign of the trend unchanged where g^{-1} increases, so there the TDI on the
original scale equals the TDI under the transformed-scale model.  Where g^{-1}
increases on the whole real line (log, logit) it maps latent-level quantiles
back exactly; the arcsine_sqrt inverse sin^2 folds back outside [0, pi/2], so
its TDI identity holds only while the latent level stays there (ROADMAP item
3) and its level summaries come from Monte Carlo in `back_transform_summary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit as _logit

from .posterior import Dataset, JointPosterior, PathSampler

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
    draws = PathSampler.of(jp).draw(k, seed)
    f_draws = draws[:, : jp.p]
    return np.quantile(spec.inverse(f_draws), list(taus), axis=0)
