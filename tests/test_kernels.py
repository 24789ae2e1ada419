"""Kernel evaluations, analytic partials and assumption validation."""

import math

import numpy as np
import pytest

from trendgp.kernels import (
    AssumptionViolation,
    InadmissibleOrderError,
    KernelSpec,
    MeanSpec,
    kernel_eval,
    kernel_gram,
    kernel_log_param_grads,
    kernel_partial,
    mean_eval,
    validate_assumptions,
)

import mpmath as mp

from conftest import fd_partial, fd_rel_err, kernel_mp

ALL_FAMILIES = ("SE", "RQ", "M52", "M32")


def _spec(family, alpha=1.0, rho=1.0, nu=2.0):
    return KernelSpec(family, alpha, rho, nu if family == "RQ" else None)


class TestKernelEval:
    def test_se_diagonal_is_alpha_squared(self):
        assert kernel_eval(KernelSpec("SE", 1.0, 1.0), 0.7, 0.7) == 1.0
        assert kernel_eval(KernelSpec("SE", 2.5, 0.3), -1.2, -1.2) == pytest.approx(6.25)

    def test_se_off_diagonal(self):
        val = kernel_eval(KernelSpec("SE", 2.0, 1.0), 1.0, 0.0)
        assert val == pytest.approx(4.0 * math.exp(-0.5), rel=1e-14)

    def test_rq_large_nu_approaches_se(self):
        rq = KernelSpec("RQ", 1.0, 1.0, nu=1e6)
        assert abs(kernel_eval(rq, 1.0, 0.0) - math.exp(-0.5)) < 1e-6

    def test_rq_se_limit_uniform_on_grid(self):
        alpha, rho = 1.7, 0.6
        rq = KernelSpec("RQ", alpha, rho, nu=1e8)
        se = KernelSpec("SE", alpha, rho)
        diffs = np.linspace(-3 * rho, 3 * rho, 201)
        gap = np.abs(kernel_eval(rq, diffs, 0.0) - kernel_eval(se, diffs, 0.0))
        assert gap.max() < 1e-6

    def test_symmetry(self, rng):
        for family in ALL_FAMILIES + ("OU",):
            spec = _spec(family, alpha=1.3, rho=0.8)
            for _ in range(50):
                s, t = rng.uniform(-3, 3, 2)
                assert kernel_eval(spec, s, t) == pytest.approx(kernel_eval(spec, t, s), rel=1e-14)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("SE", -1.0, 1.0)
        with pytest.raises(ValueError):
            KernelSpec("SE", 1.0, 0.0)
        with pytest.raises(ValueError):
            KernelSpec("RQ", 1.0, 1.0)  # nu missing
        with pytest.raises(ValueError):
            KernelSpec("SE", 1.0, 1.0, nu=2.0)  # nu not meaningful
        with pytest.raises(ValueError):
            KernelSpec("XX", 1.0, 1.0)


class TestKernelPartial:
    def test_odd_partial_vanishes_at_diagonal(self):
        for family in ALL_FAMILIES:
            spec = _spec(family)
            assert kernel_partial(spec, 1, 0, 0.4, 0.4) == 0.0
            assert kernel_partial(spec, 0, 1, 0.4, 0.4) == 0.0

    def test_se_diagonal_values(self):
        # Symbolic differentiation gives alpha^2/rho^2 for (1,1) and
        # 3 alpha^2/rho^4 for (2,2) at the diagonal.
        se = KernelSpec("SE", 1.0, 1.0)
        assert kernel_partial(se, 1, 1, 0.2, 0.2) == pytest.approx(1.0, rel=1e-14)
        assert kernel_partial(se, 2, 2, 0.2, 0.2) == pytest.approx(3.0, rel=1e-14)
        se2 = KernelSpec("SE", 1.5, 0.5)
        assert kernel_partial(se2, 1, 1, 0.0, 0.0) == pytest.approx(1.5**2 / 0.25, rel=1e-13)
        assert kernel_partial(se2, 2, 2, 0.0, 0.0) == pytest.approx(3 * 1.5**2 / 0.5**4, rel=1e-13)

    def test_se_diagonal_cross_checked_by_finite_differences(self):
        se = KernelSpec("SE", 1.0, 1.0)
        h = 1e-4
        assert fd_partial(se, 1, 1, 0.2, 0.2, h) == pytest.approx(1.0, rel=1e-7)
        assert fd_partial(se, 2, 2, 0.2, 0.2, h) == pytest.approx(3.0, rel=1e-7)

    def test_matern_diagonal_derivative_variances(self):
        m52 = KernelSpec("M52", 1.0, 1.0)
        assert kernel_partial(m52, 1, 1, 0.0, 0.0) == pytest.approx(5.0 / 3.0, rel=1e-13)
        assert kernel_partial(m52, 2, 2, 0.0, 0.0) == pytest.approx(25.0, rel=1e-13)
        m32 = KernelSpec("M32", 2.0, 0.5)
        # continuous extension at the diagonal: 3 alpha^2 / rho^2
        assert kernel_partial(m32, 1, 1, 1.3, 1.3) == pytest.approx(3 * 4.0 / 0.25, rel=1e-13)

    def test_against_finite_differences_random_points(self, rng):
        # Away from the diagonal every admissible partial must match the
        # high-precision central-difference oracle.
        orders = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
        for family in ("SE", "RQ", "M52"):
            for _ in range(25):
                alpha = float(rng.uniform(0.5, 2.0))
                rho = float(rng.uniform(0.3, 1.5))
                nu = float(rng.uniform(0.5, 5.0)) if family == "RQ" else None
                spec = KernelSpec(family, alpha, rho, nu)
                t = float(rng.uniform(-1, 1))
                s = t + float(rng.choice([-1, 1])) * float(rng.uniform(0.1, 2.5)) * rho
                for os_, ot in orders:
                    assert fd_rel_err(spec, os_, ot, s, t) < 1e-6

    def test_m32_against_finite_differences(self, rng):
        spec = KernelSpec("M32", 1.2, 0.7)
        for _ in range(25):
            t = float(rng.uniform(-1, 1))
            s = t + float(rng.choice([-1, 1])) * float(rng.uniform(0.1, 2.0)) * spec.rho
            for os_, ot in ((1, 0), (0, 1), (1, 1)):
                assert fd_rel_err(spec, os_, ot, s, t) < 1e-6

    def test_inadmissible_orders(self):
        m32 = KernelSpec("M32", 1.0, 1.0)
        ou = KernelSpec("OU", 1.0, 1.0)
        with pytest.raises(InadmissibleOrderError, match="A3"):
            kernel_partial(m32, 2, 0, 0.0, 1.0)
        with pytest.raises(InadmissibleOrderError, match="A3"):
            kernel_partial(m32, 1, 2, 0.0, 1.0)
        with pytest.raises(InadmissibleOrderError):
            kernel_partial(ou, 1, 0, 0.0, 1.0)
        assert kernel_partial(ou, 0, 0, 0.0, 1.0) == pytest.approx(math.exp(-1.0))
        with pytest.raises(ValueError):
            kernel_partial(KernelSpec("SE", 1.0, 1.0), 3, 0, 0.0, 1.0)

    def test_third_order_mixed_vanishes_at_diagonal(self):
        # d1 d2^2 C = 0 on the diagonal for stationary kernels; this is what
        # forces omega = 0 under the prior.
        for family in ("SE", "RQ", "M52"):
            spec = _spec(family, alpha=1.4, rho=0.9)
            assert kernel_partial(spec, 1, 2, 0.5, 0.5) == 0.0
            assert kernel_partial(spec, 2, 1, 0.5, 0.5) == 0.0


class TestKernelGram:
    def test_diagonal_and_symmetry(self):
        spec = KernelSpec("SE", 1.5, 1.0)
        ts = np.array([0.0, 0.7, 2.0])
        gram = kernel_gram(spec, ts, ts)
        assert gram.shape == (3, 3)
        assert np.allclose(np.diag(gram), 1.5**2)
        assert np.allclose(gram, gram.T)

    def test_shape_contract(self):
        spec = KernelSpec("SE", 1.0, 1.0)
        out = kernel_gram(spec, np.linspace(0, 1, 2), np.linspace(0, 1, 5))
        assert out.shape == (2, 5)

    def test_matches_entrywise_loop(self, rng):
        for family in ALL_FAMILIES:
            spec = _spec(family, alpha=0.9, rho=0.6)
            ts = rng.uniform(-2, 2, 4)
            us = rng.uniform(-2, 2, 6)
            max_o = 1 if family == "M32" else 0 if family == "OU" else 2
            for os_ in range(max_o + 1):
                for ot in range(max_o + 1):
                    gram = kernel_gram(spec, ts, us, os_, ot)
                    loop = np.array(
                        [[kernel_partial(spec, os_, ot, s, u) for u in us] for s in ts]
                    )
                    assert np.array_equal(gram, loop)

    def test_gram_psd(self, rng):
        for family in ALL_FAMILIES:
            spec = _spec(family, alpha=1.8, rho=0.5)
            ts = np.sort(rng.uniform(0, 4, 12))
            eigs = np.linalg.eigvalsh(kernel_gram(spec, ts, ts))
            assert eigs.min() >= -1e-8 * spec.alpha**2


def _log_param_grads_mp(spec: KernelSpec, u: float, h: float = 1e-15) -> list[float]:
    """Central differences of k(u) in each log parameter, in 80-digit arithmetic.

    The h^2 truncation term is far below double precision.  At nu ~ 1e6 and
    small lags the nu derivative is ~1e-23 of k, so the difference of the
    two k values needs more digits than the 50 the partials oracle uses.
    """
    names = ("alpha", "rho", "nu") if spec.family == "RQ" else ("alpha", "rho")
    out = []
    with mp.workdps(80):
        logs = {n: mp.log(mp.mpf(getattr(spec, n))) for n in names}
        for name in names:
            vals = []
            for sign in (1, -1):
                p = dict(logs)
                p[name] += sign * mp.mpf(h)
                e = {n: mp.e ** v for n, v in p.items()}
                vals.append(kernel_mp(spec.family, e["alpha"], e["rho"], e.get("nu"), u, 0))
            out.append(float((vals[0] - vals[1]) / (2 * mp.mpf(h))))
    return out


class TestLogParamGrads:
    @pytest.mark.parametrize("spec", [
        KernelSpec("SE", 1.7, 0.4),
        KernelSpec("RQ", 0.6, 1.3, 0.35),
        KernelSpec("RQ", 2.0, 0.05, 7.0),
        KernelSpec("RQ", 1.1, 0.8, 1e6),
        KernelSpec("RQ", 1.1, 0.8, 1.05e6),
        KernelSpec("M52", 3.0, 0.25),
        KernelSpec("M32", 0.8, 2.0),
    ], ids=lambda s: f"{s.family}-nu{s.nu}")
    def test_against_mpmath_central_differences(self, spec):
        lags = spec.rho * np.array([0.0, 1e-4, 1e-2, 0.3, 1.0, 2.5, 7.0])
        _, got = kernel_log_param_grads(spec, lags)
        assert got.shape == (3 if spec.family == "RQ" else 2, lags.size)
        for j, u in enumerate(lags):
            want = _log_param_grads_mp(spec, float(u))
            for i, w in enumerate(want):
                # exact zeros (every non-alpha row at lag 0) must come out exact
                assert abs(got[i, j] - w) <= 1e-12 * abs(w), (i, float(u), got[i, j], w)

    def test_rows_gather_like_the_gram(self):
        spec = KernelSpec("M52", 1.3, 0.7)
        lags = np.linspace(0.0, 3.0, 7)
        k, rows = kernel_log_param_grads(spec, lags)
        assert np.array_equal(k, kernel_gram(spec, lags, [0.0])[:, 0])
        assert np.array_equal(rows[0], 2.0 * k)

    def test_ou_has_no_length_scale_derivative(self):
        with pytest.raises(InadmissibleOrderError):
            kernel_log_param_grads(KernelSpec("OU", 1.0, 1.0), np.array([0.0, 1.0]))


class TestMeanEval:
    def test_constant_mean(self):
        spec = MeanSpec((28.001,))
        assert mean_eval(spec, 0, 123.4) == 28.001
        assert mean_eval(spec, 1, -7.0) == 0.0
        assert mean_eval(spec, 2, 0.0) == 0.0

    def test_quadratic(self):
        spec = MeanSpec((1.0, 2.0, 3.0))
        assert mean_eval(spec, 0, 2.0) == 17.0
        assert mean_eval(spec, 1, 2.0) == 14.0
        assert mean_eval(spec, 2, 5.0) == 6.0
        assert mean_eval(spec, 2, -5.0) == 6.0

    def test_vectorized(self):
        spec = MeanSpec((0.0, 1.0))
        out = mean_eval(spec, 0, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            MeanSpec((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError):
            MeanSpec(())
        with pytest.raises(ValueError):
            mean_eval(MeanSpec((1.0,)), 3, 0.0)


class TestValidateAssumptions:
    def test_ou_always_rejected(self):
        violation = validate_assumptions(KernelSpec("OU", 1.0, 1.0), require_eti=False)
        assert isinstance(violation, AssumptionViolation)
        assert violation.assumption == "A3"

    def test_m32_rejected_for_eti_only(self):
        m32 = KernelSpec("M32", 1.0, 1.0)
        violation = validate_assumptions(m32, require_eti=True)
        assert violation is not None and violation.assumption == "A3"
        assert validate_assumptions(m32, require_eti=False) is None

    def test_smooth_families_accepted(self):
        for family in ("SE", "M52"):
            assert validate_assumptions(_spec(family), require_eti=True) is None
        assert validate_assumptions(KernelSpec("RQ", 1.0, 1.0, 0.7), require_eti=True) is None
