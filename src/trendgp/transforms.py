"""Monotone outcome transformations and mapping trend statements back.

Fitting the latent model on g(Y) for a strictly increasing g leaves the
sign of the trend unchanged where g^{-1} increases, so there the TDI on the
original scale equals the TDI under the transformed-scale model.  Where g^{-1}
increases on the whole real line (log, logit) it maps latent-level quantiles
back exactly; the arcsine_sqrt inverse sin^2 folds back outside [0, pi/2], so
its TDI identity holds only while the latent level stays there (ROADMAP item
3), and `arcsine_sqrt_quantiles` inverts the folded level's distribution
function instead.  `back_transform_summary`, a Monte Carlo summary over joint
paths, checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit as _logit, ndtr

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


# Past this latent sd the level modulo pi is uniform to within about
# 2 exp(-2 * 5^2) < 1e-21, so a wider level has the same quantiles of sin^2.
_ASIN_SD_CAP = 5.0


def arcsine_sqrt_quantiles(mu, var, taus: tuple[float, ...] = (0.025, 0.5, 0.975)) -> np.ndarray:
    """Quantiles of sin^2(X) for X ~ N(mu, var) at each point, shape (len(taus), p).

    For a in [0, pi/2], sin^2 X <= sin^2 a exactly when X lies within a of
    some k pi, so P(sin^2 X <= sin^2 a) = sum_k [Phi((k pi + a - mu)/s) -
    Phi((k pi - a - mu)/s)], which increases in a.  Bisection on a inverts
    it to float resolution.  The sum runs over every k whose half-period
    [k pi - pi/2, k pi + pi/2] meets some mu +- 9 s, which leaves out less
    than 1e-18 of the mass.  A point with var <= 0 is a point mass at
    sin^2 mu, as the latent band floors its variance at 0.
    """
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    taus = np.asarray(taus, dtype=float)[:, None]
    out = np.tile(np.sin(mu) ** 2, (taus.shape[0], 1))
    spread = var > 0
    if not spread.any():
        return out
    # the distribution of sin^2 X has period pi in mu
    m = mu[spread] - math.pi * np.round(mu[spread] / math.pi)
    s = np.minimum(np.sqrt(var[spread]), _ASIN_SD_CAP)
    ks = np.arange(math.ceil(np.min(m - 9.0 * s) / math.pi - 0.5),
                   math.floor(np.max(m + 9.0 * s) / math.pi + 0.5) + 1)
    centre = (ks[:, None] * math.pi - m) / s  # (k, point)
    lo = np.zeros((taus.shape[0], m.size))
    hi = np.full_like(lo, math.pi / 2)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((mid > lo) & (mid < hi)):
            break
        r = mid[:, None, :] / s
        below = np.sum(ndtr(centre + r) - ndtr(centre - r), axis=1) < taus
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[:, spread] = np.sin(hi) ** 2
    return out
