"""Joint posterior moments against the dense conditioning oracle."""

import csv
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendgp.dataio import iso_to_fractional_year
from trendgp.indices import tdi_curve
from trendgp.kernels import AssumptionError, KernelSpec, MeanSpec
from trendgp.posterior import (
    Dataset,
    Hyperparams,
    Posterior,
    joint_posterior,
    marginal_moments,
    predictive,
    prior_joint,
    sample_paths,
)

from conftest import kernel_mp, random_instance, schur_oracle

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "dpc-covid19-ita-andamento-nazionale.csv")


def _theta(family="SE", alpha=1.0, rho=1.0, nu=None, sigma=0.2, betas=(0.0,)):
    return Hyperparams(MeanSpec(betas), KernelSpec(family, alpha, rho, nu), sigma)


class TestDataset:
    def test_rejects_duplicates_and_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(np.array([0.0, np.nan]), np.zeros(2))

    def test_empty_is_allowed(self):
        data = Dataset(np.empty(0), np.empty(0))
        assert data.n == 0


class TestPriorJoint:
    def test_zero_mean_df_block(self):
        jp = prior_joint(_theta(), np.linspace(0, 1, 5))
        assert np.all(jp.mean_block("df") == 0.0)
        assert np.all(jp.mean_block("d2f") == 0.0)

    def test_se_prior_variances(self):
        # Diagonal values from the symbolic partials: Var[df] = alpha^2/rho^2,
        # Var[d2f] = 3 alpha^2/rho^4, Cov[df, d2f] = 0.
        jp = prior_joint(_theta(alpha=1.0, rho=1.0), np.array([0.3]))
        assert jp.cov_block("df", "df")[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert jp.cov_block("d2f", "d2f")[0, 0] == pytest.approx(3.0, rel=1e-12)
        assert jp.cov_block("df", "d2f")[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_cross_block_f_df_vanishes_at_same_point(self):
        for family, nu in (("SE", None), ("RQ", 1.3), ("M52", None)):
            jp = prior_joint(_theta(family=family, nu=nu), np.array([1.7]))
            assert jp.cov_block("f", "df")[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_mean_blocks(self):
        theta = _theta(betas=(1.0, 2.0, 3.0))
        grid = np.array([0.0, 2.0])
        jp = prior_joint(theta, grid)
        assert np.allclose(jp.mean_block("f"), [1.0, 17.0])
        assert np.allclose(jp.mean_block("df"), [2.0, 14.0])
        assert np.allclose(jp.mean_block("d2f"), [6.0, 6.0])

    def test_m32_restricts_to_two_blocks(self):
        jp = prior_joint(_theta(family="M32"), np.linspace(0, 1, 3))
        assert jp.blocks == ("f", "df")
        with pytest.raises(AssumptionError):
            prior_joint(_theta(family="M32"), np.linspace(0, 1, 3), blocks=("f", "df", "d2f"))

    def test_ou_rejected(self):
        with pytest.raises(AssumptionError, match="A3"):
            prior_joint(_theta(family="OU"), np.linspace(0, 1, 3))


class TestJointPosterior:
    def test_noise_free_interpolation(self):
        ts = np.array([0.0, 0.9, 1.7, 2.6, 3.5])
        ys = np.array([0.3, -0.2, 0.5, 1.1, 0.4])
        theta = _theta(rho=0.8, sigma=0.0)
        jp = joint_posterior(Dataset(ts, ys), theta, ts)
        assert np.allclose(jp.mean_block("f"), ys, atol=1e-6)

    def test_empty_data_reduces_to_prior(self):
        grid = np.linspace(0, 2, 4)
        theta = _theta(betas=(0.5, -0.2))
        jp0 = joint_posterior(Dataset(np.empty(0), np.empty(0)), theta, grid)
        jp_prior = prior_joint(theta, grid)
        assert np.array_equal(jp0.mu, jp_prior.mu)
        assert np.array_equal(jp0.sigma_mat, jp_prior.sigma_mat)

    def test_matches_schur_oracle(self, rng):
        for _ in range(20):
            data, theta = random_instance(rng)
            grid = np.sort(rng.uniform(data.ts[0] - 0.3, data.ts[-1] + 0.3, int(rng.integers(2, 5))))
            jp = joint_posterior(data, theta, grid)
            mu_o, cov_o = schur_oracle(data, theta, grid)
            scale = theta.kernel.alpha**2
            assert np.max(np.abs(jp.mu - mu_o)) < 1e-8 * max(1.0, np.max(np.abs(mu_o)))
            assert np.max(np.abs(jp.sigma_mat - cov_o)) < 1e-8 * scale

    def test_sigma_mat_symmetric_psd(self, rng):
        data, theta = random_instance(rng)
        jp = joint_posterior(data, theta, np.linspace(data.ts[0], data.ts[-1], 6))
        assert np.array_equal(jp.sigma_mat, jp.sigma_mat.T)
        eigs = np.linalg.eigvalsh(jp.sigma_mat)
        scale = np.abs(np.diag(jp.sigma_mat)).max()
        assert eigs.min() >= -1e-6 * scale

    def test_grid_refinement_consistency(self):
        ts = np.linspace(0, 2, 6)
        ys = np.sin(ts)
        theta = _theta(rho=0.7)
        data = Dataset(ts, ys)
        coarse = joint_posterior(data, theta, np.array([0.0, 1.0, 2.0]))
        fine = joint_posterior(data, theta, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        # the shared points 0.0, 1.0, 2.0 sit at indices 0, 2, 4 of the fine grid
        for bi, block in enumerate(("f", "df", "d2f")):
            mc = coarse.mean_block(block)
            mf = fine.mean_block(block)
            assert np.allclose(mc, mf[[0, 2, 4]], rtol=1e-12, atol=1e-12)
            vc = np.diag(coarse.cov_block(block, block))
            vf = np.diag(fine.cov_block(block, block))
            assert np.allclose(vc, vf[[0, 2, 4]], rtol=1e-12, atol=1e-12)

    def test_posterior_contraction(self, rng):
        for _ in range(10):
            data, theta = random_instance(rng, sigma_range=(0.1, 0.5))
            t0 = float(rng.uniform(data.ts[0], data.ts[-1]))
            var_before = marginal_moments(data, theta, [t0]).var_f[0]
            mid = 0.5 * (data.ts[0] + data.ts[-1])
            tnew = mid + 1e-4  # keep times distinct
            while np.any(np.abs(data.ts - tnew) < 1e-9):
                tnew += 1e-4
            ts2 = np.append(data.ts, tnew)
            ys2 = np.append(data.ys, 0.0)
            order = np.argsort(ts2)
            var_after = marginal_moments(Dataset(ts2[order], ys2[order]), theta, [t0]).var_f[0]
            assert var_after <= var_before + 1e-10 * theta.kernel.alpha**2

    def test_calendar_time_inputs(self):
        # stretching time by 20 and the length-scale with it, then shifting to
        # a calendar year, must reproduce the unit-interval results, with the
        # derivative blocks scaled by 20^-order
        ts01 = np.linspace(0, 1, 8)
        ys = np.cos(3 * ts01)
        theta01 = _theta(rho=0.3, sigma=0.1)
        grid01 = np.linspace(0, 1, 5)
        jp01 = joint_posterior(Dataset(ts01, ys), theta01, grid01)

        ts_cal = 1998.0 + 20.0 * ts01
        theta_cal = _theta(rho=0.3 * 20.0, sigma=0.1)
        jp_cal = joint_posterior(Dataset(ts_cal, ys), theta_cal, 1998.0 + 20.0 * grid01)
        assert np.allclose(jp_cal.mean_block("f"), jp01.mean_block("f"), atol=1e-9)
        assert np.allclose(jp_cal.mean_block("df"), jp01.mean_block("df") / 20.0, atol=1e-9)
        assert np.allclose(
            np.diag(jp_cal.cov_block("d2f", "d2f")),
            np.diag(jp01.cov_block("d2f", "d2f")) / 20.0**4,
            rtol=1e-9,
        )


class TestPredictive:
    def test_noise_free_variance_equals_posterior_f(self):
        ts = np.array([0.0, 1.0, 2.0])
        data = Dataset(ts, np.array([0.1, 0.4, 0.2]))
        theta = _theta(rho=0.9, sigma=0.0)
        _, var = predictive(data, theta, 1.3)
        mm = marginal_moments(data, theta, [1.3])
        assert var == pytest.approx(mm.var_f[0], rel=1e-12)

    def test_far_extrapolation_returns_to_prior(self):
        ts = np.linspace(0, 1, 5)
        data = Dataset(ts, np.ones(5))
        theta = _theta(alpha=1.5, rho=0.2, sigma=0.3, betas=(0.25,))
        mean, var = predictive(data, theta, 50.0)
        assert mean == pytest.approx(0.25, abs=1e-9)
        assert var == pytest.approx(1.5**2 + 0.3**2, rel=1e-9)

    def test_matches_oracle(self, rng):
        data, theta = random_instance(rng)
        t_star = float(rng.uniform(data.ts[0], data.ts[-1]))
        mean, var = predictive(data, theta, t_star)
        mu_o, cov_o = schur_oracle(data, theta, [t_star], orders=(0,))
        assert mean == pytest.approx(mu_o[0], abs=1e-10 * max(1, abs(mu_o[0])))
        assert var == pytest.approx(cov_o[0, 0] + theta.sigma**2, rel=1e-9)


class TestSamplePaths:
    def test_empty_draw(self):
        jp = prior_joint(_theta(), np.linspace(0, 1, 3))
        out = sample_paths(jp, 0, seed=1)
        assert out.shape == (0, 9)

    def test_seed_determinism(self):
        jp = prior_joint(_theta(), np.linspace(0, 1, 4))
        a = sample_paths(jp, 7, seed=42)
        b = sample_paths(jp, 7, seed=42)
        assert np.array_equal(a, b)
        c = sample_paths(jp, 7, seed=43)
        assert not np.array_equal(a, c)

    def test_moments_match(self, rng):
        data, theta = random_instance(rng, n=5)
        grid = np.linspace(data.ts[0], data.ts[-1], 3)
        jp = joint_posterior(data, theta, grid)
        draws = sample_paths(jp, 100_000, seed=11)
        sd = np.sqrt(np.diag(jp.sigma_mat))
        se = sd / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - jp.mu) <= 4 * se + 1e-12)

    def test_degenerate_covariance(self):
        # a zero covariance matrix is a legal (point-mass) posterior
        from trendgp.posterior import JointPosterior

        grid = np.array([0.0, 1.0])
        jp = JointPosterior(grid=grid, blocks=("f",), mu=np.array([1.0, 2.0]),
                            sigma_mat=np.zeros((2, 2)))
        draws = sample_paths(jp, 5, seed=0)
        assert np.allclose(draws, [1.0, 2.0], atol=1e-6)


_MOMENTS = ("mu_f", "var_f", "mu_df", "var_df", "mu_d2f", "var_d2f", "cov_df_d2f")


def _instance(family, n, seed):
    rng = np.random.default_rng(seed)
    if n == 0:
        kernel = KernelSpec(family, 1.3, 0.4, 2.5 if family == "RQ" else None)
        return Dataset(np.empty(0), np.empty(0)), Hyperparams(MeanSpec((0.3, -0.1)), kernel, 0.2)
    return random_instance(rng, n=n, families=(family,))


class TestPosteriorFactorOnce:
    """One factor per (data, theta): moments do not depend on the rest of the grid."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["SE", "RQ", "M52", "M32"]),
        st.sampled_from([0, 1, 2, 7, 15]),
        st.integers(0, 2**31 - 1),
        st.integers(1, 8),
        st.lists(st.floats(-10.0, 15.0), min_size=1, max_size=20),
    )
    def test_grid_moments_ignore_extra_points(self, family, n, seed, quads, extra):
        # Extra points may leave the data span; the first p moments keep every
        # bit.  The grid holds a multiple of 4 points, as the 500-point report
        # grid does: BLAS matrix-vector kernels (OpenBLAS dgemv_t on x86) take
        # the last p mod 4 rows of the posterior-mean product through another
        # accumulation order, which can move those means by an ulp.
        data, theta = _instance(family, n, seed)
        lo, hi = data.span if n else (0.0, 1.0)
        grid = np.random.default_rng(seed).uniform(lo - 1.0, hi + 1.0, 4 * quads)
        need_d2f = theta.kernel.max_order() >= 2
        alone = marginal_moments(data, theta, grid, need_d2f=need_d2f)
        joined = marginal_moments(data, theta, np.concatenate([grid, extra]), need_d2f=need_d2f)
        for name in _MOMENTS:
            a, b = getattr(alone, name), getattr(joined, name)
            if a is None:
                assert b is None
                continue
            assert np.array_equal(a.view(np.int64), b[: grid.size].view(np.int64)), name

    @pytest.mark.parametrize("family", ["SE", "RQ", "M52", "M32"])
    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_marginal_is_the_joint_diagonal(self, family, n):
        data, theta = _instance(family, n, seed=17 + n)
        lo, hi = data.span if n else (0.0, 1.0)
        grid = np.linspace(lo - 0.7, hi + 1.9, 9)  # past both ends of the data span
        post = Posterior(data, theta)
        need_d2f = theta.kernel.max_order() >= 2
        mm = post.marginal(grid, need_d2f=need_d2f)
        jp = post.joint(grid)
        assert jp.blocks == (("f", "df", "d2f") if need_d2f else ("f", "df"))
        pairs = [("f", "f", "var_f"), ("df", "df", "var_df")]
        if need_d2f:
            pairs += [("d2f", "d2f", "var_d2f"), ("df", "d2f", "cov_df_d2f")]
        for row, col, name in pairs:
            diag = np.diag(jp.cov_block(row, col))
            assert np.allclose(getattr(mm, name), diag, rtol=1e-12, atol=1e-12 * np.abs(diag).max())
        for block in jp.blocks:
            mean = jp.mean_block(block)
            got = getattr(mm, f"mu_{block}")
            assert np.allclose(got, mean, rtol=1e-12, atol=1e-12 * max(np.abs(mean).max(), 1.0))


class TestTimeShift:
    """Stationary kernel, constant mean: moving the time origin changes nothing."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["SE", "RQ", "M52"]),
        st.integers(2, 8),
        st.integers(0, 2**31 - 1),
        st.sampled_from([-1e3, 2020.0, 1e4]),
    )
    def test_shift_leaves_moments_tdi_and_loglik(self, family, n, seed, c):
        data, theta = random_instance(np.random.default_rng(seed), n=n, families=(family,))
        theta = Hyperparams(MeanSpec(theta.mean.coefficients[:1]), theta.kernel, theta.sigma)
        lo, hi = data.span
        grid = np.linspace(lo - 0.5, hi + 0.5, 8)
        shifted = Dataset(data.ts + c, data.ys)
        # Adding c rounds each time by at most ulp(c)/2 < 1.2e-12 for |c| <= 1e4,
        # a relative lag error below 1e-11 at rho >= 0.2.  Conditioning with
        # sigma >= 0.05 alpha and n <= 8 amplifies it by at most about 3e3, so
        # 1e-7 of the prior scale of each moment leaves a wide margin.
        tol = 1e-7
        a, b = Posterior(data, theta), Posterior(shifted, theta)
        assert b.loglik == pytest.approx(a.loglik, rel=tol, abs=tol * n)
        ma, mb = a.marginal(grid, need_d2f=True), b.marginal(grid + c, need_d2f=True)
        alpha, rho = theta.kernel.alpha, theta.kernel.rho
        for name, scale in (
            ("mu_f", alpha + abs(theta.mean.coefficients[0])),
            ("var_f", alpha**2),
            ("mu_df", alpha / rho),
            ("var_df", alpha**2 / rho**2),
            ("mu_d2f", alpha / rho**2),
            ("var_d2f", alpha**2 / rho**4),
            ("cov_df_d2f", alpha**2 / rho**3),
        ):
            assert np.allclose(getattr(mb, name), getattr(ma, name), rtol=0.0, atol=tol * scale), name
        tdi_a = tdi_curve(data, theta, grid, anchor=hi).values
        tdi_b = tdi_curve(shifted, theta, grid + c, anchor=hi + c).values
        assert np.allclose(tdi_b, tdi_a, rtol=0.0, atol=tol)


def _covid_log_series():
    with open(FIXTURE, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ts = np.array([iso_to_fractional_year(r["data"]) for r in rows])
    return Dataset(ts, np.log([float(r["nuovi_positivi"]) for r in rows]))


def test_calendar_time_low_noise_df_matches_mpmath_oracle():
    # The log COVID series on its calendar-year axis (t = 2020 + day/366,
    # n = 90) under the parameters an SE fit finds there: sigma = 5e-4 gives
    # the observation covariance a condition number of about 9e7, and the
    # times are ~2020 while their differences are ~1e-3.
    data = _covid_log_series()
    ts, n = data.ts, data.n
    alpha, rho, sigma, b0 = 0.87, 0.033, 5e-4, 6.5
    theta = Hyperparams(MeanSpec((b0,)), KernelSpec("SE", alpha, rho), sigma)
    grid = np.array([ts[3] + 0.5 / 366, ts[22], ts[45] + 0.25 / 366, ts[67] + 0.5 / 366, ts[-2]])
    mm = marginal_moments(data, theta, grid)

    with mp.workdps(30):
        R, T = mp.mpf(rho), [mp.mpf(t) for t in ts]

        def k(s, t):
            return kernel_mp("SE", alpha, rho, None, s, t)

        # Cholesky of C(ts, ts) + sigma^2 I, then forward substitution per vector
        chol = mp.cholesky(mp.matrix([[k(s, t) + (sigma**2 if i == j else 0) for j, t in enumerate(T)]
                                      for i, s in enumerate(T)]))

        def whiten(b):
            x = []
            for i in range(n):
                x.append((b[i] - mp.fsum(chol[i, j] * x[j] for j in range(i))) / chol[i, i])
            return x

        white_resid = whiten([mp.mpf(y) - b0 for y in data.ys])
        for g, mu, var in zip(grid, mm.mu_df, mm.var_df):
            G = mp.mpf(g)
            # C^(1,0)(g, t) = -(g - t) / rho^2 C(g, t) for SE
            w = whiten([-(G - t) / R**2 * k(G, t) for t in T])
            mu_o = mp.fsum(wi * ri for wi, ri in zip(w, white_resid))
            var_o = mp.mpf(alpha) ** 2 / R**2 - mp.fsum(wi**2 for wi in w)
            assert abs(mu - mu_o) <= 1e-8 * abs(mu_o)
            assert abs(var - var_o) <= 1e-8 * var_o
