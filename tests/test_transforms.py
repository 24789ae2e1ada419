"""Monotone transforms and original-scale trend statements."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from trendgp.kernels import KernelSpec, MeanSpec
from trendgp.posterior import Dataset, Hyperparams
from trendgp.transforms import TransformSpec, back_transform_summary, transform_dataset

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
