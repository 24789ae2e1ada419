"""Marginal likelihood, ML fitting, the sampler and posterior index summaries."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from trendgp.estimation import (
    FitError,
    FitOptions,
    HalfNormalPrior,
    HalfStudentTPrior,
    McmcOptions,
    McmcSamples,
    PriorSpec,
    StudentTPrior,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
    marginal_loglik,
    rhat,
)
from trendgp.indices import eti, local_eti, tdi
from trendgp.kernels import KernelSpec, MeanSpec, kernel_gram, mean_eval
from trendgp.posterior import Dataset, Hyperparams, marginal_moments, prior_joint, sample_paths

from conftest import random_instance


def _theta(family="SE", alpha=1.0, rho=1.0, nu=None, sigma=0.2, betas=(0.0,)):
    return Hyperparams(MeanSpec(betas), KernelSpec(family, alpha, rho, nu), sigma)


def _simulated(rng, n=50, sigma=0.05, rho=0.25):
    truth = _theta(rho=rho, sigma=sigma)
    ts = np.linspace(0, 1, n)
    f = sample_paths(prior_joint(truth, ts, blocks=("f",)), 1, seed=int(rng.integers(2**31)))[0]
    return Dataset(ts, f + rng.normal(0, sigma, n)), truth


class TestMarginalLoglik:
    def test_single_point_standard_normal(self):
        data = Dataset(np.array([0.0]), np.array([5.0]))
        # mean matches the observation and C + sigma^2 = 1
        theta = _theta(alpha=math.sqrt(0.5), sigma=math.sqrt(0.5), betas=(5.0,))
        assert marginal_loglik(data, theta) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_negligible_signal_reduces_to_iid_normals(self):
        ts = np.linspace(0, 1, 6)
        ys = np.array([0.3, -0.1, 0.6, 0.2, -0.4, 0.1])
        sigma = 0.7
        theta = _theta(alpha=1e-150, sigma=sigma, betas=(0.05,))
        want = float(np.sum(norm.logpdf(ys, loc=0.05, scale=sigma)))
        assert marginal_loglik(Dataset(ts, ys), theta) == pytest.approx(want, rel=1e-9)

    def test_matches_dense_density_oracle(self, rng):
        for _ in range(10):
            data, theta = random_instance(rng, n=5)
            K = kernel_gram(theta.kernel, data.ts, data.ts) + theta.sigma**2 * np.eye(5)
            mu = np.broadcast_to(mean_eval(theta.mean, 0, data.ts), (5,))
            want = multivariate_normal(mean=mu, cov=K).logpdf(data.ys)
            got = marginal_loglik(data, theta)
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


class TestFitMl:
    def test_optimum_dominates_every_start(self, rng):
        data, _ = _simulated(rng)
        fit = fit_ml(data, 0, "SE", FitOptions(restarts=6, seed=1))
        assert fit.start_logliks
        assert all(fit.loglik >= s - 1e-9 for s in fit.start_logliks)
        assert marginal_loglik(data, fit.theta) == pytest.approx(fit.loglik, rel=1e-9)

    def test_translation_invariance(self, rng):
        data, _ = _simulated(rng, n=40)
        opts = FitOptions(restarts=6, seed=3)
        fit0 = fit_ml(data, 0, "SE", opts)
        shifted = Dataset(data.ts, data.ys + 7.5)
        fit1 = fit_ml(shifted, 0, "SE", opts)
        assert fit1.theta.mean.coefficients[0] == pytest.approx(
            fit0.theta.mean.coefficients[0] + 7.5, abs=1e-5
        )
        assert fit1.theta.kernel.rho == pytest.approx(fit0.theta.kernel.rho, rel=1e-4)
        assert fit1.theta.kernel.alpha == pytest.approx(fit0.theta.kernel.alpha, rel=1e-4)
        assert fit1.theta.sigma == pytest.approx(fit0.theta.sigma, rel=1e-4)

    def test_length_scale_recovery(self, rng):
        # weak identifiability allows a factor-two band on rho
        hits = 0
        reps = 50
        for _ in range(reps):
            data, truth = _simulated(rng, n=100, sigma=0.05, rho=0.25)
            fit = fit_ml(data, 0, "SE", FitOptions(restarts=4, seed=0))
            if abs(math.log(fit.theta.kernel.rho) - math.log(truth.kernel.rho)) <= math.log(2):
                hits += 1
        assert hits >= 0.9 * reps

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_ml(Dataset(np.array([0.0, 1.0]), np.array([0.0, 1.0])), 0, "SE")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_design_is_a_fit_error(self):
        # t^2 overflows in the quadratic mean's design matrix
        ts = np.array([1e200, 2e200, 3e200, 4e200])
        with pytest.raises(FitError):
            fit_ml(Dataset(ts, np.array([0.0, 1.0, 0.5, 2.0])), 2, "SE", FitOptions(restarts=2))

    def test_ou_rejected(self, rng):
        data, _ = _simulated(rng, n=10)
        from trendgp.kernels import AssumptionError

        with pytest.raises(AssumptionError):
            fit_ml(data, 0, "OU")

    @pytest.fixture(scope="class")
    def covid_log(self, tmp_path_factory):
        import os

        from trendgp.dataio import fetch_covid, read_timeseries
        from trendgp.transforms import TransformSpec, transform_dataset

        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "dpc-covid19-ita-andamento-nazionale.csv")
        path = str(tmp_path_factory.mktemp("covid") / "covid.csv")
        fetch_covid(path, offline_fixture=fixture)
        data, _ = read_timeseries(path)
        return transform_dataset(TransformSpec("log"), data)

    # The optima a multi-start Nelder-Mead reached on the log COVID fixture,
    # with 16 restarts from seed 0.  A finite-difference L-BFGS-B stopped a
    # whole nat short on M52; the closed-form gradient must not.
    @pytest.mark.parametrize("family, reference", [
        ("SE", 450.7587607214975),
        ("M52", 428.6188739482107),
        ("RQ", 459.35629987501056),
    ])
    def test_reaches_the_reference_optimum_on_the_fixture(self, covid_log, family, reference):
        fit = fit_ml(covid_log, 0, family, FitOptions(restarts=16, seed=0))
        assert fit.loglik >= reference - 1e-6
        assert fit.converged
        assert fit.loglik >= max(fit.start_logliks)


class TestPriors:
    def test_half_distributions_zero_below_origin(self):
        assert HalfStudentTPrior(1.0, 3.0, 3.0).logpdf(-1e-9) == -math.inf
        assert HalfNormalPrior(1.0, 1.0).logpdf(-0.5) == -math.inf

    def test_ppf_median_roundtrip(self):
        for prior in (StudentTPrior(2.0, 1.5, 4.0), HalfStudentTPrior(0.5, 2.0, 3.0),
                      HalfNormalPrior(4.4, 1.0)):
            med = prior.ppf(0.5)
            lo, hi = prior.ppf(0.25), prior.ppf(0.75)
            assert lo < med < hi

    def test_default_priors_follow_ml_recipe(self):
        theta = Hyperparams(MeanSpec((28.0,)), KernelSpec("RQ", 4.5, 4.4, 1.0), 0.62)
        spec = default_priors(theta)
        assert isinstance(spec.for_param("beta0"), StudentTPrior)
        assert spec.for_param("beta0").loc == 28.0
        assert isinstance(spec.for_param("rho"), HalfNormalPrior)
        assert spec.for_param("rho").loc == 4.4 and spec.for_param("rho").scale == 1.0
        assert isinstance(spec.for_param("nu"), HalfStudentTPrior)
        assert spec.for_param("sigma").df == 3.0
        with pytest.raises(ValueError):
            spec.for_param("gamma")


class TestRhat:
    def _samples(self, draws):
        draws = np.asarray(draws, dtype=float)
        return McmcSamples(
            param_names=("x",),
            draws=draws[:, :, None],
            warmup=0,
            seed=0,
            acceptance=np.full(draws.shape[0], 0.3),
            degree=0,
            family="SE",
            fixed={},
        )

    def test_constant_chains_by_convention(self):
        samples = self._samples(np.ones((4, 200)))
        assert rhat(samples, "x") == 1.0

    def test_same_distribution_close_to_one(self):
        rng = np.random.default_rng(0)
        samples = self._samples(rng.normal(0, 1, (2, 10_000)))
        assert rhat(samples, "x") < 1.01

    def test_disjoint_supports_blow_up(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.1, (1, 2000))
        b = rng.normal(10, 0.1, (1, 2000))
        samples = self._samples(np.vstack([a, b]))
        assert rhat(samples, "x") > 1.1

    def test_insufficient_draws(self):
        with pytest.raises(ValueError):
            rhat(self._samples(np.ones((4, 50))), "x")
        with pytest.raises(ValueError):
            rhat(self._samples(np.ones((1, 500))), "x")


class TestFitBayes:
    def test_draws_positive_and_acceptance_sane(self, rng):
        data, _ = _simulated(rng, n=30)
        samples = fit_bayes(data, 0, "SE", opts=McmcOptions(chains=2, iters=3000, seed=2))
        for name in ("alpha", "rho", "sigma"):
            assert np.all(samples.flat(name) > 0)
        assert np.all(samples.acceptance > 0.05)
        assert np.all(samples.acceptance < 0.8)
        assert samples.n_kept == 1500

    def test_seed_determinism(self, rng):
        data, _ = _simulated(rng, n=20)
        opts = McmcOptions(chains=2, iters=1000, seed=5)
        a = fit_bayes(data, 0, "SE", opts=opts)
        b = fit_bayes(data, 0, "SE", opts=opts)
        assert np.array_equal(a.draws, b.draws)

    def test_missing_prior_is_an_error(self, rng):
        data, _ = _simulated(rng, n=10)
        priors = PriorSpec({"beta0": StudentTPrior(0.0, 1.0, 3.0)})
        with pytest.raises(ValueError, match="no prior"):
            fit_bayes(data, 0, "SE", priors=priors, opts=McmcOptions(chains=1, iters=200))

    def test_prior_recovery_under_flat_likelihood(self):
        # alpha pinned near zero and a huge fixed noise SD make the marginal
        # likelihood essentially constant, so the draws must reproduce the
        # priors of the sampled parameters.
        data = Dataset(np.array([0.0, 1.0, 2.0]), np.array([0.01, -0.02, 0.02]))
        priors = PriorSpec(
            {
                "beta0": StudentTPrior(0.5, 1.2, 5.0),
                "rho": HalfNormalPrior(2.0, 1.0),
            }
        )
        samples = fit_bayes(
            data,
            0,
            "SE",
            priors=priors,
            opts=McmcOptions(chains=4, iters=8000, seed=11,
                             fixed={"alpha": 1e-8, "sigma": 100.0}),
        )
        for name in ("beta0", "rho"):
            draws = samples.flat(name)
            prior = priors.for_param(name)
            for q in (0.25, 0.5, 0.75):
                batches = np.array_split(draws, 32)
                bq = np.array([np.quantile(b, q) for b in batches])
                se = bq.std(ddof=1) / math.sqrt(len(batches))
                assert abs(np.quantile(draws, q) - prior.ppf(q)) <= 3 * se + 1e-3


class TestIndexPosterior:
    def test_single_draw_collapses_to_plugin(self, rng):
        data, theta = random_instance(rng, n=6, families=("SE",))
        values = {"beta0": 0.1, "alpha": theta.kernel.alpha, "rho": theta.kernel.rho,
                  "sigma": max(theta.sigma, 0.05)}
        draws = np.array([[[values["beta0"], values["alpha"], values["rho"], values["sigma"]],
                           [values["beta0"], values["alpha"], values["rho"], values["sigma"]]]] * 2)
        samples = McmcSamples(
            param_names=("beta0", "alpha", "rho", "sigma"),
            draws=draws,
            warmup=0,
            seed=0,
            acceptance=np.array([0.3, 0.3]),
            degree=0,
            family="SE",
            fixed={},
        )
        plug = Hyperparams(MeanSpec((values["beta0"],)),
                           KernelSpec("SE", values["alpha"], values["rho"]), values["sigma"])
        grid = np.linspace(data.ts[0], data.ts[-1], 7)
        interval = (float(data.ts[0]), float(data.ts[-1]))
        idx = index_posterior(data, samples, grid, anchor=float(data.ts[-1]),
                              intervals=(interval,), n_quad=64)
        assert idx.skipped_fraction == 0.0
        for tau in (0.025, 0.5, 0.975):
            for i, t in enumerate(grid):
                assert idx.tdi.at(tau)[i] == pytest.approx(tdi(data, plug, float(t)), rel=1e-9)
                assert idx.local_eti.at(tau)[i] == pytest.approx(
                    local_eti(data, plug, float(t))[0], rel=1e-9
                )
        want_eti = eti(data, plug, interval, n_quad=64)
        assert np.allclose(idx.eti_draws[interval], want_eti, rtol=1e-9)

    def test_level_moments_match_per_draw_reference(self, rng):
        # the one pass over the draws returns the grid moments a separate
        # per-draw marginal_moments call gives, bit for bit (grid of 4k points,
        # see tests/test_posterior.py)
        data, _ = _simulated(rng, n=15)
        samples = fit_bayes(data, 0, "SE", opts=McmcOptions(chains=2, iters=400, seed=5))
        grid = np.linspace(0, 1, 12)
        idx = index_posterior(data, samples, grid, anchor=1.0, intervals=((0.2, 0.8),),
                              n_quad=16, max_draws=30)
        stride = math.ceil(samples.n_chains * samples.n_kept / 30)
        picks = [(c, i) for c in range(samples.n_chains) for i in range(samples.n_kept)][::stride]
        thetas = [samples.theta_at(c, i) for c, i in picks]
        ref = [marginal_moments(data, theta, grid) for theta in thetas]
        assert idx.level.mu_f.shape == (len(picks), grid.size)
        for name in ("mu_f", "var_f", "mu_df", "var_df"):
            want = np.array([getattr(mm, name) for mm in ref])
            assert np.array_equal(getattr(idx.level, name).view(np.int64), want.view(np.int64)), name
        assert idx.level.noise_var.tolist() == [theta.sigma**2 for theta in thetas]

    def test_quantiles_monotone(self, rng):
        data, _ = _simulated(rng, n=15)
        samples = fit_bayes(data, 0, "SE", opts=McmcOptions(chains=2, iters=600, seed=3))
        grid = np.linspace(0, 1, 9)
        idx = index_posterior(data, samples, grid, anchor=1.0, max_draws=150)
        assert np.all(np.diff(idx.tdi.values, axis=0) >= -1e-12)
        assert np.all(np.diff(idx.local_eti.values, axis=0) >= -1e-12)
        assert idx.n_used <= 150
