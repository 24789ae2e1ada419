"""Trend direction and trend instability indices.

The Trend Direction Index (TDI) is the posterior probability that the
latent derivative is positive at a point in time.  The Expected Trend
Instability (ETI) is the expected number of sign changes of the derivative
on an interval; its local intensity comes from the level-crossing rate of
the posterior (df, d2f) pair and is integrated by composite Simpson
quadrature.

`evaluate_indices` gives all three from one `Posterior.marginal` call on a grid
and the Simpson nodes, for the ML report, the Bayesian draws, the study,
`tdi_curve`, `local_eti_curve` and `eti`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import erf

from .kernels import AssumptionError
from .posterior import Dataset, Hyperparams, MarginalMoments, Posterior

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TdiCurve:
    """TDI along a grid, anchored at the conditioning time.

    The value at grid point u is TDI(anchor, u - anchor): the probability of
    a positive trend at u given the full sample, looking backwards for
    u < anchor and forecasting for u > anchor.
    """

    grid: np.ndarray
    values: np.ndarray
    anchor: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape:
            raise ValueError("grid and values must have equal length")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("TDI values must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CrossingProcess:
    """Cumulative count of derivative sign changes along a grid."""

    grid: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts[-1]) if self.counts.size else 0


def _phi(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.asarray(x) ** 2)


def _gauss_upper(mean, var):
    """P(N(mean, var) > 0), guarding the degenerate-variance case."""
    var = np.asarray(var, dtype=float)
    if np.any(var <= 0.0):
        raise AssumptionError(
            "posterior variance of the trend is not positive (assumption A4 fails pointwise)"
        )
    z = np.asarray(mean, dtype=float) / np.sqrt(var)
    return 0.5 + 0.5 * erf(z / _SQRT2)


def _local_eti_from_moments(mm: MarginalMoments):
    """Vectorized crossing intensity from pointwise (df, d2f) moments."""
    if np.any(mm.var_df <= 0):
        raise AssumptionError("Var[df] <= 0 at an evaluation point (assumption A4)")
    if np.any(mm.var_d2f <= 0):
        raise AssumptionError("Var[d2f] <= 0 at an evaluation point (assumption A4)")
    s1 = np.sqrt(mm.var_df)
    s2 = np.sqrt(mm.var_d2f)
    omega = mm.cov_df_d2f / (s1 * s2)
    if np.any(np.abs(omega) >= 1.0):
        raise AssumptionError("|Cor[df, d2f]| >= 1 at an evaluation point (assumption A4)")
    root = np.sqrt(1.0 - omega**2)
    lam = s2 / s1 * root
    zeta = (mm.mu_df * s2 * omega / s1 - mm.mu_d2f) / (s2 * root)
    rate = lam * _phi(mm.mu_df / s1) * (2.0 * _phi(zeta) + zeta * erf(zeta / _SQRT2))
    return np.maximum(rate, 0.0), lam, omega, zeta


def _simpson(rate: np.ndarray, h: float) -> float:
    """Composite Simpson integral of rate sampled at spacing h (even panel count)."""
    w = np.ones(rate.size)  # 1, 4, 2, ..., 2, 4, 1
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, rate))


def _checked_quadrature(intervals, n_quad: int) -> tuple[tuple[tuple[float, float], ...], int]:
    """Intervals as float pairs with a <= b, and the Simpson panel count made even."""
    intervals = tuple((float(a), float(b)) for a, b in intervals)
    for a, b in intervals:
        if not a <= b:
            raise ValueError(f"interval must satisfy a <= b, got ({a}, {b})")
    if n_quad < 2:
        raise ValueError(f"n_quad must be >= 2, got {n_quad}")
    return intervals, n_quad + n_quad % 2


def evaluate_indices(post: Posterior, grid, intervals=(), want_eti: bool = True, n_quad: int = 512):
    """Condition once on the grid and, when ETI is wanted, each interval's Simpson nodes.

    Returns the grid moments, the TDI and local ETI (None without ETI) on the
    grid, and each interval's ETI (none without ETI).  Raises ValueError for
    b < a or n_quad < 2, and AssumptionError for ETI of a kernel without A3
    or where the pointwise A4 checks fail at an evaluation point.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    intervals, n_quad = _checked_quadrature(intervals, n_quad)
    nodes = [np.linspace(a, b, n_quad + 1) for a, b in intervals] if want_eti else []
    mm = post.marginal(np.concatenate([grid, *nodes]), want_eti)
    p = grid.size
    # grid values are copies, so a caller that keeps them keeps no node buffer alive
    on_grid = replace(mm, **{f.name: getattr(mm, f.name)[:p].copy() for f in fields(mm)
                             if getattr(mm, f.name) is not None})
    tdi_vals = _gauss_upper(on_grid.mu_df, on_grid.var_df)
    if not want_eti:
        return on_grid, tdi_vals, None, ()
    rate = _local_eti_from_moments(mm)[0]
    on_nodes = rate[p:].reshape(len(intervals), n_quad + 1)
    etis = tuple(_simpson(r, (b - a) / n_quad) for r, (a, b) in zip(on_nodes, intervals))
    return on_grid, tdi_vals, rate[:p].copy(), etis


def tdi_curve(data: Dataset, theta: Hyperparams, grid, anchor: float) -> TdiCurve:
    """Elementwise TDI over a grid under the anchor reparameterization."""
    mm, values, _, _ = evaluate_indices(Posterior(data, theta), grid, want_eti=False)
    return TdiCurve(grid=mm.grid, values=values, anchor=float(anchor))


def local_eti_curve(data: Dataset, theta: Hyperparams, grid) -> tuple[np.ndarray, np.ndarray]:
    """Local ETI over a grid; returns (grid, rates)."""
    mm, _, rates, _ = evaluate_indices(Posterior(data, theta), grid)
    return mm.grid, rates


def eti(data: Dataset, theta: Hyperparams, interval, n_quad: int = 512) -> float:
    """Expected number of trend sign changes on [a, b] by Simpson quadrature."""
    _, _, _, (value,) = evaluate_indices(Posterior(data, theta), [], [interval], n_quad=n_quad)
    return value


def count_crossings(df_path, grid=None) -> CrossingProcess:
    """Cumulative strict sign changes of consecutive values.

    Zeros carry no sign: a change is a nonzero value whose sign differs from
    that of the previous nonzero value.  So an exact zero, or a run of zeros,
    between opposite signs counts as a single crossing, and a zero touch that
    returns to the same sign does not count.  NaN counts as negative.
    """
    values = np.asarray(df_path, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("a crossing count needs at least 2 grid points")
    if grid is None:
        grid = np.arange(values.size, dtype=float)
    else:
        grid = np.asarray(grid, dtype=float).ravel()
        if grid.shape != values.shape:
            raise ValueError("grid and df_path must have equal length")
    signed = np.flatnonzero(values)
    positive = values[signed] > 0.0
    flips = np.zeros(values.size, dtype=int)
    flips[signed[1:][positive[1:] != positive[:-1]]] = 1
    return CrossingProcess(grid=grid, counts=np.cumsum(flips))


def crosspoint(curve: TdiCurve, window, threshold: float = 0.5):
    """Earliest time in the window where the TDI reaches the threshold.

    Linear interpolation refines the crossing between the bracketing grid
    points; returns None when the threshold is never reached.
    """
    a, b = float(window[0]), float(window[1])
    grid, values = curve.grid, curve.values
    if grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("crosspoint needs a strictly increasing grid of >= 2 points")
    if a < grid[0] - 1e-12 or b > grid[-1] + 1e-12 or a > b:
        raise ValueError("window must lie within the curve's grid span")
    # the curve at a, at the grid points in (a, b], and at b
    inside = (grid > a) & (grid <= b)
    ts = np.concatenate(([a], grid[inside], [b]))
    vs = np.concatenate(([np.interp(a, grid, values)], values[inside], [np.interp(b, grid, values)]))
    reached = vs >= threshold
    if not reached.any():
        return None
    i = int(np.argmax(reached))
    if i == 0:
        return a
    frac = (threshold - vs[i - 1]) / (vs[i] - vs[i - 1])
    return float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))
