"""Monotone transforms and original-scale trend statements."""

import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from trendgp.kernels import KernelSpec, MeanSpec
from trendgp.posterior import Dataset, Hyperparams, Posterior
from trendgp.transforms import TransformSpec, arcsine_sqrt_quantiles, back_transform_summary, transform_dataset

from conftest import inverse_deriv, joint_posterior, tdi, tdi_original_scale


def _theta(sigma=0.2, rho=0.8, betas=(0.0,)):
    return Hyperparams(MeanSpec(betas), KernelSpec("SE", 1.0, rho), sigma)


def _proportion_data(rng, n=9):
    ts = np.sort(rng.uniform(0, 3, n))
    ys = 1.0 / (1.0 + np.exp(-(0.3 * ts - 0.5 + rng.normal(0, 0.2, n))))
    return Dataset(ts, ys)


class TestTransformSpec:
    def test_round_trips(self, rng):
        cases = {
            "identity": rng.normal(0, 3, 50),
            "log": rng.uniform(0.01, 50, 50),
            "logit": rng.uniform(0.01, 0.99, 50),
            "arcsine_sqrt": rng.uniform(0.01, 0.99, 50),
        }
        for kind, ys in cases.items():
            tf = TransformSpec(kind)
            assert np.allclose(tf.inverse(tf.forward(ys)), ys, atol=1e-12)

    def test_inverse_deriv_positive_on_domain(self, rng):
        for kind in ("identity", "log", "logit", "arcsine_sqrt"):
            tf = TransformSpec(kind)
            lo, hi = tf.domain
            ys = rng.uniform(max(lo, -10) + 0.01, min(hi, 10) - 0.01, 30)
            assert np.all(inverse_deriv(tf, tf.forward(ys)) > 0)

    def test_logit_center(self):
        assert TransformSpec("logit").forward(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TransformSpec("sqrt")


class TestTransformDataset:
    def test_identity_unchanged(self, rng):
        data = _proportion_data(rng)
        out = transform_dataset(TransformSpec("identity"), data)
        assert np.array_equal(out.ys, data.ys)
        assert np.array_equal(out.ts, data.ts)

    def test_logit_values(self):
        data = Dataset(np.array([0.0, 1.0]), np.array([0.5, 0.75]))
        out = transform_dataset(TransformSpec("logit"), data)
        assert out.ys[0] == pytest.approx(0.0, abs=1e-15)
        assert out.ys[1] == pytest.approx(math.log(3.0), rel=1e-12)

    def test_boundary_rejected_with_index(self):
        data = Dataset(np.array([0.0, 1.0, 2.0]), np.array([0.4, 1.0, 0.6]))
        with pytest.raises(ValueError, match=r"y\[1\]"):
            transform_dataset(TransformSpec("arcsine_sqrt"), data)
        with pytest.raises(ValueError, match=r"y\[0\]"):
            transform_dataset(TransformSpec("log"), Dataset(np.array([0.0]), np.array([-1.0])))


class TestTdiOriginalScale:
    def test_identity_matches_plain_tdi_bitwise(self, rng):
        data = _proportion_data(rng)
        theta = _theta()
        t_q = float(data.ts[3])
        assert tdi_original_scale(data, TransformSpec("identity"), theta, t_q) == tdi(
            data, theta, t_q
        )

    def test_exact_pathway_equals_transformed_scale(self, rng):
        for kind in ("logit", "log", "arcsine_sqrt"):
            data = _proportion_data(rng)
            theta = _theta()
            tf = TransformSpec(kind)
            t_q = float(data.ts[-1])
            direct = tdi(transform_dataset(tf, data), theta, t_q)
            assert tdi_original_scale(data, tf, theta, t_q) == direct

    def test_mc_pathway_within_three_se(self, rng):
        data = _proportion_data(rng)
        theta = _theta()
        tf = TransformSpec("logit")
        t_q = float(data.ts[4])
        exact = tdi_original_scale(data, tf, theta, t_q)
        k = 100_000
        mc = tdi_original_scale(data, tf, theta, t_q, method="mc", k=k, seed=12)
        se = max(math.sqrt(exact * (1 - exact) / k), 2.0 / k)
        assert abs(mc - exact) <= 3 * se

    def test_mc_pathway_follows_the_arcsine_fold(self):
        # Prior at t = 0: h ~ N(0.05, 0.1^2) and dh ~ N(1, 0.1^2), independent.
        # d/dt sin^2 h = sin(2h) dh, so TDI = p_h p_d + (1 - p_h)(1 - p_d) with
        # p_h = P(sin 2h > 0) and p_d = P(dh > 0); the latent TDI is p_d = 1.
        empty = Dataset(np.empty(0), np.empty(0))
        theta = Hyperparams(MeanSpec((0.05, 1.0)), KernelSpec("SE", 0.1, 1.0), 0.1)
        p_h = sum(norm.cdf((k + 0.5) * math.pi, 0.05, 0.1) - norm.cdf(k * math.pi, 0.05, 0.1)
                  for k in range(-3, 4))
        p_d = norm.sf(0.0, 1.0, 0.1)
        want = p_h * p_d + (1 - p_h) * (1 - p_d)
        assert want == pytest.approx(0.6915, abs=1e-4)
        k = 100_000
        mc = tdi_original_scale(empty, TransformSpec("arcsine_sqrt"), theta, 0.0, method="mc", k=k, seed=4)
        assert abs(mc - want) <= 3 * math.sqrt(want * (1 - want) / k)

    def test_unknown_method(self, rng):
        data = _proportion_data(rng)
        with pytest.raises(ValueError):
            tdi_original_scale(data, TransformSpec("log"), _theta(), 1.0, method="bogus")


class TestBackTransformSummary:
    def test_identity_gives_f_quantiles(self, rng):
        data = _proportion_data(rng)
        theta = _theta()
        grid = np.linspace(data.ts[0], data.ts[-1], 4)
        jp = joint_posterior(data, theta, grid, blocks=("f",))
        qs = back_transform_summary(TransformSpec("identity"), jp, k=50_000, seed=3)
        # the median of a Gaussian is its mean
        assert np.allclose(qs[1], jp.mean_block("f"), atol=0.02)

    def test_quantile_monotonicity(self, rng):
        data = _proportion_data(rng)
        theta = _theta()
        tdata = transform_dataset(TransformSpec("logit"), data)
        grid = np.linspace(data.ts[0], data.ts[-1], 5)
        jp = joint_posterior(tdata, theta, grid, blocks=("f",))
        qs = back_transform_summary(TransformSpec("logit"), jp, k=2000, seed=8)
        assert np.all(np.diff(qs, axis=0) >= 0)
        assert np.all((qs > 0) & (qs < 1))

    def test_degenerate_posterior_is_point_mass(self):
        from trendgp.posterior import JointPosterior

        grid = np.array([0.0, 1.0])
        mu = np.array([0.0, 2.0])
        jp = JointPosterior(grid=grid, blocks=("f",), mu=mu, sigma_mat=np.zeros((2, 2)))
        qs = back_transform_summary(TransformSpec("logit"), jp, k=100, seed=1)
        expit = 1 / (1 + np.exp(-mu))
        for row in qs:
            assert np.allclose(row, expit, atol=1e-12)

    def test_requires_f_block(self, rng):
        data = _proportion_data(rng)
        jp = joint_posterior(data, _theta(), [1.0], blocks=("df",))
        with pytest.raises(ValueError):
            back_transform_summary(TransformSpec("log"), jp, k=10, seed=0)


class TestArcsineSqrtQuantiles:
    TAUS = (0.025, 0.5, 0.975)

    def test_quantiles_increase_within_the_unit_interval(self, rng):
        # levels on several periods of sin^2, narrow to wider than the period
        mu = rng.uniform(-4.0, 6.0, 200)
        var = np.exp(rng.uniform(np.log(1e-8), np.log(50.0), 200))
        qs = arcsine_sqrt_quantiles(mu, var, (0.01, 0.025, 0.25, 0.5, 0.75, 0.975, 0.99))
        assert np.all(np.diff(qs, axis=0) >= 0)
        assert np.all((qs >= 0) & (qs <= 1))

    @pytest.mark.parametrize("level", [0.02, 0.8], ids=["near-zero", "interior"])
    def test_matches_sampled_paths(self, level):
        # near 0 the latent band leaves [0, pi/2] and sin^2 folds it back
        ts = np.linspace(0.0, 3.0, 9)
        data = Dataset(ts, level + 0.03 * np.sin(2.0 * ts))
        theta = Hyperparams(MeanSpec((level,)), KernelSpec("SE", 0.1, 0.8), 0.05)
        grid = np.linspace(0.0, 3.0, 20)
        post = Posterior(data, theta)
        mm = post.marginal(grid)
        band = mm.mu_f - float(ndtri(0.975)) * np.sqrt(mm.var_f)
        assert (band.min() < 0.0) == (level < 0.1)
        qs = arcsine_sqrt_quantiles(mm.mu_f, mm.var_f, self.TAUS)
        k = 200_000
        mc = back_transform_summary(TransformSpec("arcsine_sqrt"), post.joint(grid, blocks=("f",)),
                                    k=k, seed=6, taus=self.TAUS)
        assert np.max(np.abs(qs - mc)) <= 0.01 * np.max(qs[2] - qs[0])
        # and at every point within 4.5 standard errors of a sample quantile,
        # sqrt(tau (1 - tau) / k) times the slope of the quantile function
        taus, h = np.array(self.TAUS), 1e-3
        slope = (arcsine_sqrt_quantiles(mm.mu_f, mm.var_f, tuple(taus + h))
                 - arcsine_sqrt_quantiles(mm.mu_f, mm.var_f, tuple(taus - h))) / (2 * h)
        assert np.all(np.abs(qs - mc) <= 4.5 * np.sqrt(taus * (1 - taus) / k)[:, None] * slope)

    def test_interior_band_is_sin2_of_the_latent_band(self, rng):
        # mu +- 9 sd inside (0, pi/2): sin^2 increases there and maps quantiles exactly
        mu = rng.uniform(0.3, 1.2, 50)
        sd = rng.uniform(1e-6, 1.0, 50) * np.minimum(mu, math.pi / 2 - mu) / 9.0
        qs = arcsine_sqrt_quantiles(mu, sd**2, self.TAUS)
        want = np.sin(mu + sd * ndtri(np.array(self.TAUS))[:, None]) ** 2
        assert np.allclose(qs, want, rtol=1e-12, atol=0.0)

    def test_zero_variance_is_a_point_mass(self):
        # RuntimeWarnings are errors under this suite's settings
        mu = np.array([-0.3, 0.4, 2.0, 0.4])
        qs = arcsine_sqrt_quantiles(mu, np.array([0.0, -1e-18, 0.0, 0.01]), self.TAUS)
        for row in qs:
            assert np.array_equal(row[:3], np.sin(mu[:3]) ** 2)
        assert qs[0, 3] < qs[1, 3] < qs[2, 3]
        assert np.array_equal(arcsine_sqrt_quantiles(mu, np.zeros(4), self.TAUS),
                              np.tile(np.sin(mu) ** 2, (3, 1)))
