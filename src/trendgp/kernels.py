"""Covariance and mean functions with analytic derivatives.

The trend machinery needs the mixed partial derivatives of the covariance
function up to order (2, 2) -- once per argument for the derivative process
and twice per argument for the curvature process.  All partials here are
hand-derived closed forms; for a stationary kernel ``C(s, t) = k(s - t)``
the mixed partial is

    d^j/ds^j d^m/dt^m C(s, t) = (-1)^m k^(j+m)(s - t)

so each family only needs its univariate derivatives ``k`` through ``k''''``.

Supported families: squared exponential (SE), rational quadratic (RQ),
Matern 5/2 (M52), Matern 3/2 (M32, first-order derivatives only) and
Ornstein-Uhlenbeck (OU, evaluation only; it is not mean-square
differentiable and exists here so that validation can name it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("SE", "RQ", "M52", "M32", "OU")

# Highest admissible derivative order per argument.  M32 covariances have a
# continuous (1,1) partial at the diagonal but no curvature process; OU is
# not differentiable at all.
_MAX_ORDER = {"SE": 2, "RQ": 2, "M52": 2, "M32": 1, "OU": 0}


class InadmissibleOrderError(ValueError):
    """A derivative order the covariance family cannot support (assumption A3)."""


class AssumptionError(RuntimeError):
    """A model assumption failed hard during computation."""


@dataclass(frozen=True)
class AssumptionViolation:
    """Structured description of a failed regularity assumption."""

    assumption: str  # "A3" or "A4"
    message: str

    def __str__(self) -> str:
        return f"{self.assumption}: {self.message}"


@dataclass(frozen=True)
class KernelSpec:
    """Stationary covariance family with parameters (alpha, rho[, nu]).

    alpha is the output scale (same units as the data), rho the length-scale
    in time units, and nu the shape parameter of the rational quadratic
    family.  nu must be given iff family == "RQ".
    """

    family: str
    alpha: float
    rho: float
    nu: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.rho > 0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.family == "RQ":
            if self.nu is None or not (self.nu > 0 and np.isfinite(self.nu)):
                raise ValueError(f"RQ requires a positive finite nu, got {self.nu}")
        elif self.nu is not None:
            raise ValueError(f"nu is only meaningful for the RQ family, got nu={self.nu} for {self.family}")

    @classmethod
    def unit(cls, family: str) -> "KernelSpec":
        """The family at unit parameters: a probe for checks that depend on the family alone."""
        return cls(family, 1.0, 1.0, 1.0 if family == "RQ" else None)

    def max_order(self) -> int:
        return _MAX_ORDER[self.family]


@dataclass(frozen=True)
class MeanSpec:
    """Polynomial mean of degree <= 2 with coefficients (b0[, b1[, b2]])."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coefs = tuple(float(c) for c in self.coefficients)
        if not 1 <= len(coefs) <= 3:
            raise ValueError("mean polynomial must have 1 to 3 coefficients (degree <= 2)")
        if not all(np.isfinite(coefs)):
            raise ValueError("mean coefficients must be finite")
        object.__setattr__(self, "coefficients", coefs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def mean_eval(spec: MeanSpec, deriv_order: int, t):
    """Evaluate the deriv_order-th derivative of the polynomial mean at t."""
    if deriv_order not in (0, 1, 2):
        raise ValueError(f"deriv_order must be 0, 1 or 2, got {deriv_order}")
    t = np.asarray(t, dtype=float)
    c = spec.coefficients
    b0 = c[0]
    b1 = c[1] if len(c) > 1 else 0.0
    b2 = c[2] if len(c) > 2 else 0.0
    if deriv_order == 0:
        out = b0 + t * (b1 + t * b2)
    elif deriv_order == 1:
        out = b1 + 2.0 * b2 * t
    else:
        out = np.full_like(t, 2.0 * b2)
    return out if out.ndim else float(out)


def _check_order(spec: KernelSpec, order_s: int, order_t: int) -> None:
    if not (0 <= order_s <= 2 and 0 <= order_t <= 2):
        raise ValueError(f"derivative orders must lie in 0..2, got ({order_s}, {order_t})")
    m = spec.max_order()
    if order_s > m or order_t > m:
        raise InadmissibleOrderError(
            f"{spec.family} does not admit the ({order_s}, {order_t}) mixed partial; "
            f"assumption A3 limits it to orders up to ({m}, {m})"
        )


def _derivs_se(alpha: float, rho: float, u: np.ndarray, order: int) -> np.ndarray:
    z = u / rho
    base = alpha * alpha * np.exp(-0.5 * z * z)
    if order == 0:
        return base
    if order == 1:
        return -z / rho * base
    if order == 2:
        return (z * z - 1.0) / rho**2 * base
    if order == 3:
        return z * (3.0 - z * z) / rho**3 * base
    return (3.0 - z * z * (6.0 - z * z)) / rho**4 * base


def _derivs_rq(alpha: float, rho: float, nu: float, u: np.ndarray, order: int) -> np.ndarray:
    # Powers of Q = 1 + u^2/(2 rho^2 nu) go through log1p so that large nu
    # degrades gracefully to the SE limit instead of losing precision.
    a2 = alpha * alpha
    q = u * u / (2.0 * rho * rho * nu)
    lq = np.log1p(q)

    def qpow(expo: float) -> np.ndarray:
        return np.exp(-expo * lq)

    if order == 0:
        return a2 * qpow(nu)
    if order == 1:
        return -a2 * u / rho**2 * qpow(nu + 1.0)
    if order == 2:
        return -a2 / rho**2 * (qpow(nu + 1.0) - (nu + 1.0) * u * u / (rho**2 * nu) * qpow(nu + 2.0))
    a_c = a2 * (nu + 1.0) / (rho**4 * nu)
    b_c = a2 * (nu + 1.0) * (nu + 2.0) / (rho**6 * nu * nu)
    if order == 3:
        return 3.0 * a_c * u * qpow(nu + 2.0) - b_c * u**3 * qpow(nu + 3.0)
    return (
        3.0 * a_c * qpow(nu + 2.0)
        - 6.0 * b_c * u * u * qpow(nu + 3.0)
        + b_c * (nu + 3.0) * u**4 / (rho**2 * nu) * qpow(nu + 4.0)
    )


def _derivs_m52(alpha: float, rho: float, u: np.ndarray, order: int) -> np.ndarray:
    # Even extension of k(x) = alpha^2 (1 + x + x^2/3) e^{-x}, x = sqrt(5)|u|/rho.
    # Odd-order derivatives pick up sign(u) and vanish at u = 0.
    c = np.sqrt(5.0) / rho
    x = c * np.abs(u)
    e = alpha * alpha * np.exp(-x) / 3.0
    if order == 0:
        return e * (3.0 + 3.0 * x + x * x)
    sgn = np.sign(u)
    if order == 1:
        return -sgn * c * e * x * (1.0 + x)
    if order == 2:
        return -c * c * e * (1.0 + x - x * x)
    if order == 3:
        return sgn * c**3 * e * x * (3.0 - x)
    return c**4 * e * (3.0 - 5.0 * x + x * x)


def _derivs_m32(alpha: float, rho: float, u: np.ndarray, order: int) -> np.ndarray:
    # The (1,1) partial at the diagonal is the continuous extension
    # 3 alpha^2 / rho^2; higher orders are rejected before reaching here.
    c = np.sqrt(3.0) / rho
    x = c * np.abs(u)
    e = alpha * alpha * np.exp(-x)
    if order == 0:
        return e * (1.0 + x)
    if order == 1:
        return -np.sign(u) * c * e * x
    return -c * c * e * (1.0 - x)


def _derivs_ou(alpha: float, rho: float, u: np.ndarray) -> np.ndarray:
    return alpha * alpha * np.exp(-np.abs(u) / rho)


def _stationary_deriv(spec: KernelSpec, u: np.ndarray, order: int) -> np.ndarray:
    if spec.family == "SE":
        return _derivs_se(spec.alpha, spec.rho, u, order)
    if spec.family == "RQ":
        return _derivs_rq(spec.alpha, spec.rho, spec.nu, u, order)
    if spec.family == "M52":
        return _derivs_m52(spec.alpha, spec.rho, u, order)
    if spec.family == "M32":
        return _derivs_m32(spec.alpha, spec.rho, u, order)
    return _derivs_ou(spec.alpha, spec.rho, u)


def kernel_eval(spec: KernelSpec, s, t):
    """Covariance C(s, t); symmetric in its arguments."""
    u = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    out = _stationary_deriv(spec, u, 0)
    return out if out.ndim else float(out)


def kernel_partial(spec: KernelSpec, order_s: int, order_t: int, s, t):
    """Mixed partial d^order_s/ds d^order_t/dt of C at (s, t).

    Raises InadmissibleOrderError when the family is too rough for the
    requested order (M32 beyond (1,1), OU beyond (0,0)).
    """
    _check_order(spec, order_s, order_t)
    u = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    sign = -1.0 if order_t % 2 else 1.0
    out = sign * _stationary_deriv(spec, u, order_s + order_t)
    return out if out.ndim else float(out)


def kernel_gram(spec: KernelSpec, ts, us, order_s: int = 0, order_t: int = 0) -> np.ndarray:
    """Matrix of kernel_partial over the product grid ts x us."""
    _check_order(spec, order_s, order_t)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    diff = ts[:, None] - us[None, :]
    sign = -1.0 if order_t % 2 else 1.0
    return sign * _stationary_deriv(spec, diff, order_s + order_t)


def _q_over_1pq_minus_log1p(q: np.ndarray) -> np.ndarray:
    """q/(1+q) - log1p(q) for q >= 0, without cancellation at small q.

    Below q = 1e-3 the difference is -q^2/2 + O(q^3) while each term is
    O(q), so it comes from the alternating series sum_k (-1)^(k+1) (k-1)/k q^k
    instead; five terms leave a truncation error below 1e-14 relative.
    """
    series = -q * q * (0.5 - q * (2.0 / 3.0 - q * (0.75 - q * (0.8 - q * 5.0 / 6.0))))
    return np.where(q < 1e-3, series, q / (1.0 + q) - np.log1p(q))


def kernel_log_param_grads(spec: KernelSpec, u) -> np.ndarray:
    """Derivatives of k(u) with respect to log alpha, log rho and (RQ) log nu.

    One row per parameter, one column per lag: d k/d log alpha = 2 k; every
    family depends on u only through u/rho, so d k/d log rho = -u k'(u); and
    for RQ, d k/d log nu = nu k (q/(1+q) - log1p q) with q = u^2/(2 rho^2 nu).
    OU is rejected, having no k'.
    """
    _check_order(spec, 1, 0)
    u = np.asarray(u, dtype=float)
    k = _stationary_deriv(spec, u, 0)
    rows = [2.0 * k, -u * _stationary_deriv(spec, u, 1)]
    if spec.family == "RQ":
        q = u * u / (2.0 * spec.rho * spec.rho * spec.nu)
        rows.append(spec.nu * k * _q_over_1pq_minus_log1p(q))
    return np.array(rows)


def validate_assumptions(spec: KernelSpec, require_eti: bool = False) -> AssumptionViolation | None:
    """Check whether the family supports the requested trend indices.

    Returns None when the spec is admissible, otherwise an
    AssumptionViolation naming the failed assumption.  TDI needs the
    derivative process (orders up to (1,1)); ETI additionally needs the
    curvature process (orders up to (2,2)).
    """
    if spec.family == "OU":
        return AssumptionViolation(
            "A3", "the Ornstein-Uhlenbeck covariance is not mean-squared differentiable"
        )
    if spec.family == "M32" and require_eti:
        return AssumptionViolation(
            "A3",
            "Matern 3/2 has no continuous mixed third-order partials at the diagonal; "
            "it cannot be used when the Expected Trend Instability is required",
        )

    # Numeric probe of A4 at an arbitrary point (stationarity makes the
    # choice irrelevant): the derivative must have positive variance and,
    # when the curvature process exists, must not be perfectly correlated
    # with it.
    var_df = kernel_partial(spec, 1, 1, 0.0, 0.0)
    if not var_df > 0.0:
        return AssumptionViolation("A4", f"Var[df] = {var_df:g} is not positive under the prior")
    if require_eti or spec.max_order() >= 2:
        if spec.family == "M32":
            return None  # TDI-only use; no curvature process to probe
        var_d2f = kernel_partial(spec, 2, 2, 0.0, 0.0)
        if not var_d2f > 0.0:
            return AssumptionViolation("A4", f"Var[d2f] = {var_d2f:g} is not positive under the prior")
        # separate roots: the product of two tiny variances can underflow
        cor = kernel_partial(spec, 1, 2, 0.0, 0.0) / (np.sqrt(var_df) * np.sqrt(var_d2f))
        if not abs(cor) < 1.0:
            return AssumptionViolation("A4", f"|Cor[df, d2f]| = {abs(cor):g} is degenerate under the prior")
    return None


def require_assumptions(spec: KernelSpec, require_eti: bool = False) -> None:
    """Raise AssumptionError when validate_assumptions reports a violation."""
    violation = validate_assumptions(spec, require_eti=require_eti)
    if violation is not None:
        raise AssumptionError(str(violation))
