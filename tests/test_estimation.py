"""Marginal likelihood, ML fitting, the sampler and posterior index summaries."""

import math
import types
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from trendgp import estimation, simulation
from trendgp.estimation import (
    FitError,
    FitOptions,
    HalfNormalPrior,
    HalfStudentTPrior,
    McmcOptions,
    McmcSamples,
    PriorSpec,
    StudentTPrior,
    _kronecker_points,
    _log_posterior_fn,
    _ml_workspace,
    _ModelSpace,
    _profile_loglik,
    _start_points,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
    rhat,
)
from trendgp.indices import _local_eti_from_moments, eti, evaluate_indices
from trendgp.kernels import AssumptionError, KernelSpec, MeanSpec, kernel_gram, mean_eval
from trendgp.posterior import Dataset, Hyperparams, Posterior, marginal_moments, prior_joint
from trendgp.reporting import _quantile_cols

from conftest import random_instance, sample_paths, tdi


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
        assert Posterior(data, theta).loglik == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_negligible_signal_reduces_to_iid_normals(self):
        ts = np.linspace(0, 1, 6)
        ys = np.array([0.3, -0.1, 0.6, 0.2, -0.4, 0.1])
        sigma = 0.7
        theta = _theta(alpha=1e-150, sigma=sigma, betas=(0.05,))
        want = float(np.sum(norm.logpdf(ys, loc=0.05, scale=sigma)))
        assert Posterior(Dataset(ts, ys), theta).loglik == pytest.approx(want, rel=1e-9)

    def test_matches_dense_density_oracle(self, rng):
        for _ in range(10):
            data, theta = random_instance(rng, n=5)
            K = kernel_gram(theta.kernel, data.ts, data.ts) + theta.sigma**2 * np.eye(5)
            mu = np.broadcast_to(mean_eval(theta.mean, 0, data.ts), (5,))
            want = multivariate_normal(mean=mu, cov=K).logpdf(data.ys)
            got = Posterior(data, theta).loglik
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


# The seed-1 RQ optimum sits where the likelihood is flat in nu (nu = 62.7): under
# a = 1e3 and 1e-3 the fits stop 1.7e-4 apart in nu with equal log-likelihoods.
# L-BFGS-B's stopping rule is relative to |loglik|, which the map shifts by n log a.
_FLAT_NU = pytest.mark.xfail(reason="flat in nu", strict=False)
_AFFINE_CASES = [
    pytest.param(seed, model, id=f"{seed}-{model[0]}:{model[1]}",
                 marks=[_FLAT_NU] if (seed, model) == (1, (0, "RQ")) else [])
    for seed in range(12) for model in ((0, "SE"), (1, "M52"), (0, "RQ"))
]


class TestFitMl:
    def test_optimum_dominates_every_start(self, rng):
        data, _ = _simulated(rng)
        fit = fit_ml(data, 0, "SE", FitOptions(restarts=6))
        assert fit.start_logliks
        assert all(fit.loglik >= s - 1e-9 for s in fit.start_logliks)
        assert Posterior(data, fit.theta).loglik == pytest.approx(fit.loglik, rel=1e-9)

    def test_translation_invariance(self, rng):
        data, _ = _simulated(rng, n=40)
        opts = FitOptions(restarts=6)
        fit0 = fit_ml(data, 0, "SE", opts)
        shifted = Dataset(data.ts, data.ys + 7.5)
        fit1 = fit_ml(shifted, 0, "SE", opts)
        assert fit1.theta.mean.coefficients[0] == pytest.approx(
            fit0.theta.mean.coefficients[0] + 7.5, abs=1e-5
        )
        assert fit1.theta.kernel.rho == pytest.approx(fit0.theta.kernel.rho, rel=1e-4)
        assert fit1.theta.kernel.alpha == pytest.approx(fit0.theta.kernel.alpha, rel=1e-4)
        assert fit1.theta.sigma == pytest.approx(fit0.theta.sigma, rel=1e-4)

    @pytest.mark.parametrize("seed, model", _AFFINE_CASES)
    def test_optimum_is_equivariant_under_affine_outcome_maps(self, seed, model):
        # y -> a y + b: alpha and sigma scale by a, rho and nu stay, beta_0 -> a beta_0 + b,
        # higher betas scale by a, and the log-likelihood shifts by -n log a
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 25))
        ts = np.sort(rng.uniform(0.0, 1.0, n))
        ys = np.sin(rng.uniform(3.0, 9.0) * ts) + 0.1 * rng.standard_normal(n)
        opts = FitOptions(restarts=6)
        base = fit_ml(Dataset(ts, ys), *model, opts)
        k0, (c0, *cs) = base.theta.kernel, base.theta.mean.coefficients
        for a, b in ((1e3, -7.0), (1e-3, 2.0), (3.7, 100.0)):
            fit = fit_ml(Dataset(ts, a * ys + b), *model, opts)
            k1 = fit.theta.kernel
            assert k1.family == k0.family
            got = [k1.alpha, fit.theta.sigma, k1.rho, *fit.theta.mean.coefficients, fit.loglik]
            want = [a * k0.alpha, a * base.theta.sigma, k0.rho, a * c0 + b, *(a * c for c in cs),
                    base.loglik - n * math.log(a)]
            if k0.nu is not None:
                got.append(k1.nu)
                want.append(k0.nu)
            assert got == pytest.approx(want, rel=1e-4, abs=0.0)

    def test_length_scale_recovery(self, rng):
        # weak identifiability allows a factor-two band on rho
        hits = 0
        reps = 50
        for _ in range(reps):
            data, truth = _simulated(rng, n=100, sigma=0.05, rho=0.25)
            fit = fit_ml(data, 0, "SE", FitOptions(restarts=4))
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
        fit = fit_ml(covid_log, 0, family, FitOptions(restarts=16))
        assert fit.loglik >= reference - 1e-6
        assert fit.converged
        assert fit.loglik >= max(fit.start_logliks)

    def test_ml_fitting_draws_no_random_number(self, monkeypatch, rng):
        data, _ = _simulated(rng, n=30)

        def no_rng(*args, **kwargs):
            raise AssertionError("an ML fit drew a random number")

        # numpy as estimation sees it, with a default_rng that raises; other modules keep theirs
        random = types.ModuleType("numpy.random")
        random.__dict__.update(np.random.__dict__, default_rng=no_rng)
        numpy = types.ModuleType("numpy")
        numpy.__dict__.update(np.__dict__, random=random)
        monkeypatch.setattr(estimation, "np", numpy)
        assert math.isfinite(fit_ml(data, 0, "SE", FitOptions(restarts=8)).loglik)
        scenario = simulation.Scenario(n=12, sigma=0.1, reps=1, seed=3, restarts=4, grid_size=21)
        assert simulation._replicate(scenario, 0, {}) is not None


class TestStartPoints:
    """The ML starts: the default, the warm start, then the screen's best Kronecker points."""

    WARM = _theta(alpha=0.7, rho=0.2, sigma=0.03)

    @staticmethod
    def _starts(data, degree, family, opts):
        space = _ModelSpace(degree, family)
        design = np.vander(data.ts, degree + 1, increasing=True)
        return _start_points(data, space, design, opts, _ml_workspace(data.n)[0])

    def test_kronecker_base_is_the_root_of_x5_minus_x_minus_1(self):
        g = estimation._KRONECKER_G
        assert g > 1.0 and abs(g**5 - g - 1.0) <= 4 * np.finfo(float).eps
        u = _kronecker_points(3)
        assert u.shape == (3, 4) and ((u >= 0.0) & (u < 1.0)).all()
        assert u[0] == pytest.approx([(0.5 + g ** -j) % 1.0 for j in range(1, 5)], rel=1e-15)

    @pytest.mark.parametrize("degree, family", [(0, "SE"), (1, "RQ"), (2, "M52")])
    @pytest.mark.parametrize("restarts", [3, 8, 40])
    def test_fixed_starts_first_then_screened_starts_inside_the_box(self, rng, degree, family, restarts):
        data, _ = _simulated(rng, n=30)
        starts = self._starts(data, degree, family, FitOptions(restarts=restarts, warm_theta=self.WARM))
        assert len(starts) == restarts
        span = data.ts[-1] - data.ts[0]
        default, warm, *screened = starts
        assert default["rho"] == span / 4.0 and default["nu"] == 1.0
        assert default["sigma"] == 0.5 * default["alpha"]
        assert warm == {"alpha": 0.7, "rho": 0.2, "nu": 1.0, "sigma": 0.03}
        scale_y = default["alpha"]
        tol = 1 + 1e-12
        for s in screened:
            assert 0.125 * scale_y / tol <= s["alpha"] <= 4.0 * scale_y * tol
            assert span / 50.0 / tol <= s["rho"] <= 2.0 * span * tol
            assert 0.1 / tol <= s["nu"] <= 20.0 * tol
            assert 0.02 * scale_y / tol <= s["sigma"] <= 2.0 * scale_y * tol
        # the screened starts are the best-scoring points, best first
        space = _ModelSpace(degree, family)
        design = np.vander(data.ts, degree + 1, increasing=True)

        def value(s):
            kernel = space.kernel({n: s[n] for n in space.positive})
            return _profile_loglik(data, design, kernel, s["sigma"], None, _ml_workspace(data.n)[0])[0]

        values = [value(s) for s in screened]
        assert values == sorted(values, reverse=True)
        assert len({tuple(s.values()) for s in screened}) == len(screened)

    def test_fold_refit_starts_run_no_screen(self, monkeypatch, rng):
        data, _ = _simulated(rng, n=30)
        calls = []
        real = estimation._profile_loglik

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(estimation, "_profile_loglik", spy)
        assert len(self._starts(data, 0, "SE", FitOptions(restarts=2, warm_theta=self.WARM))) == 2
        assert calls == []
        self._starts(data, 0, "SE", FitOptions(restarts=3, warm_theta=self.WARM))
        assert len(calls) == estimation._SCREEN_POINTS


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

    def test_target_is_out_of_reach_where_a4_underflows(self):
        # log alpha = -400: alpha^2 underflows, so the prior Var[df] is 0.  The
        # target does not check A4 per proposal; the log-alpha Jacobian alone
        # puts such a point hundreds of nats below the mode.
        ts = np.linspace(0.0, 1.0, 8)
        data = Dataset(ts, np.sin(3.0 * ts))
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.3), 0.1)
        space = _ModelSpace(0, "SE")
        log_post = _log_posterior_fn(data, space, default_priors(theta), {}, list(space.names))
        at_mode = log_post(np.array([0.0, 0.0, math.log(0.3), math.log(0.1)]))
        assert np.isfinite(at_mode)
        far = log_post(np.array([0.0, -400.0, math.log(0.3), math.log(0.1)]))
        assert np.isfinite(far) and far < at_mode - 350.0

    def test_assumptions_checked_once_per_run(self, rng, monkeypatch):
        import trendgp.kernels
        import trendgp.parallel

        calls = []
        checked = trendgp.kernels.validate_assumptions
        monkeypatch.setattr(trendgp.kernels, "validate_assumptions",
                            lambda *a, **k: calls.append(1) or checked(*a, **k))
        monkeypatch.setattr(trendgp.parallel, "_usable_cpus", lambda: 1)  # count in this process
        data, truth = _simulated(rng, n=12)
        priors = default_priors(truth)
        counts = []
        for iters, max_draws in ((200, 50), (400, 100)):
            calls.clear()
            samples = fit_bayes(data, 0, "SE", priors=priors,
                                opts=McmcOptions(chains=2, iters=iters, seed=1))
            index_posterior(data, samples, np.linspace(0, 1, 8),
                            intervals=((0.0, 1.0),), n_quad=8, max_draws=max_draws)
            counts.append(len(calls))
        assert counts[0] == counts[1]

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


def _constant_samples(values: dict) -> McmcSamples:
    """Two chains of two identical SE draws at the given parameter values."""
    names = ("beta0", "alpha", "rho", "sigma")
    return McmcSamples(
        param_names=names,
        draws=np.array([[[values[k] for k in names]] * 2] * 2),
        warmup=0,
        acceptance=np.array([0.3, 0.3]),
        degree=0,
        family="SE",
        fixed={},
    )


class TestIndexPosterior:
    def test_single_draw_collapses_to_plugin(self, rng):
        data, theta = random_instance(rng, n=6, families=("SE",))
        values = {"beta0": 0.1, "alpha": theta.kernel.alpha, "rho": theta.kernel.rho,
                  "sigma": max(theta.sigma, 0.05)}
        samples = _constant_samples(values)
        plug = Hyperparams(MeanSpec((values["beta0"],)),
                           KernelSpec("SE", values["alpha"], values["rho"]), values["sigma"])
        grid = np.linspace(data.ts[0], data.ts[-1], 7)
        interval = (float(data.ts[0]), float(data.ts[-1]))
        idx = index_posterior(data, samples, grid,
                              intervals=(interval,), n_quad=64)
        assert idx.skipped_fraction == 0.0 and idx.n_used == 4
        want_tdi = [tdi(data, plug, float(t)) for t in grid]
        want_local = [_local_eti_from_moments(Posterior(data, plug).marginal([float(t)], True))[0][0]
                      for t in grid]
        want_eti = eti(data, plug, interval, n_quad=64)
        for row_tdi, row_local, row_eti in zip(idx.tdi, idx.local_eti, idx.eti, strict=True):
            assert row_tdi == pytest.approx(want_tdi, rel=1e-9)
            assert row_local == pytest.approx(want_local, rel=1e-9)
            assert row_eti == pytest.approx([want_eti], rel=1e-9)

    @pytest.mark.parametrize("interval, n_quad", [((0.8, 0.2), 256), ((0.2, 0.8), 0)],
                             ids=["reversed-interval", "no-panels"])
    def test_rejects_what_eti_rejects(self, interval, n_quad):
        data = Dataset(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6) ** 2)
        samples = _constant_samples({"beta0": 0.1, "alpha": 1.0, "rho": 0.4, "sigma": 0.1})
        with pytest.raises(ValueError):
            eti(data, samples.theta_at(0, 0), interval, n_quad=n_quad)
        with pytest.raises(ValueError):
            index_posterior(data, samples, np.linspace(0.0, 1.0, 5),
                            intervals=(interval,), n_quad=n_quad)

    def test_level_moments_match_per_draw_reference(self, rng):
        # the one pass over the draws returns the grid moments a separate
        # per-draw marginal_moments call gives, and the indices a separate
        # evaluate_indices call gives, bit for bit (grid of 4k points, see
        # tests/test_posterior.py)
        data, _ = _simulated(rng, n=15)
        samples = fit_bayes(data, 0, "SE", opts=McmcOptions(chains=2, iters=400, seed=5))
        grid = np.linspace(0, 1, 12)
        idx = index_posterior(data, samples, grid, intervals=((0.2, 0.8),),
                              n_quad=16, max_draws=30)
        stride = math.ceil(samples.n_chains * samples.n_kept / 30)
        picks = [(c, i) for c in range(samples.n_chains) for i in range(samples.n_kept)][::stride]
        thetas = [samples.theta_at(c, i) for c, i in picks]
        ref = [marginal_moments(data, theta, grid) for theta in thetas]
        assert idx.mu_f.shape == (len(picks), grid.size)
        for name in ("mu_f", "var_f", "mu_df", "var_df"):
            want = np.array([getattr(mm, name) for mm in ref])
            assert np.array_equal(getattr(idx, name).view(np.int64), want.view(np.int64)), name
        assert idx.noise_var.tolist() == [theta.sigma**2 for theta in thetas]
        assert idx.n_used == len(picks)
        for k, theta in enumerate(thetas):
            _, tdi_vals, rates, etis = evaluate_indices(Posterior(data, theta), grid, ((0.2, 0.8),), n_quad=16)
            for got, want in ((idx.tdi[k], tdi_vals), (idx.local_eti[k], rates), (idx.eti[k], etis)):
                assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64)), k

    def test_a_draw_failing_a4_leaves_every_row(self):
        # alpha = 1e-170 factorizes (sigma carries the covariance), but Var[df]
        # underflows to 0, so A4 fails: the draw is in no row, level or index
        data = Dataset(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6) ** 2)
        samples = _constant_samples({"beta0": 0.1, "alpha": 1.0, "rho": 0.4, "sigma": 0.1})
        draws = samples.draws.copy()
        draws[1, 1, samples.param_names.index("alpha")] = 1e-170
        samples = replace(samples, draws=draws)
        idx = index_posterior(data, samples, np.linspace(0.0, 1.0, 5), intervals=((0.2, 0.8),), n_quad=16)
        assert idx.skipped_fraction == 0.25 and idx.n_used == 3
        for name in ("mu_f", "var_f", "mu_df", "var_df", "noise_var", "tdi", "local_eti", "eti"):
            assert getattr(idx, name).shape[0] == 3, name

    @pytest.mark.parametrize("max_draws", [0, -5])
    def test_max_draws_below_one_rejected(self, max_draws):
        data = Dataset(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6) ** 2)
        samples = _constant_samples({"beta0": 0.1, "alpha": 1.0, "rho": 0.4, "sigma": 0.1})
        with pytest.raises(ValueError, match="max_draws"):
            index_posterior(data, samples, np.linspace(0.0, 1.0, 5), max_draws=max_draws)

    def test_without_eti_the_tdi_and_level_are_unchanged(self, rng):
        data, _ = _simulated(rng, n=15)
        samples = fit_bayes(data, 0, "SE", opts=McmcOptions(chains=2, iters=400, seed=5))
        grid = np.linspace(0, 1, 12)
        runs = [index_posterior(data, samples, grid, want_eti=want_eti,
                                intervals=((0.2, 0.8),), n_quad=16, max_draws=30)
                for want_eti in (True, False)]
        assert runs[0].local_eti.shape == runs[0].tdi.shape
        assert runs[0].eti.shape == (runs[0].n_used, 1)
        assert runs[1].local_eti is None and runs[1].eti.shape == (runs[1].n_used, 0)
        assert np.array_equal(runs[0].tdi.view(np.int64), runs[1].tdi.view(np.int64))
        for name in ("mu_f", "var_f", "mu_df", "var_df", "noise_var"):
            a, b = getattr(runs[0], name), getattr(runs[1], name)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name

    def test_eti_of_m32_draws_is_a3(self):
        data = Dataset(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6) ** 2)
        samples = replace(_constant_samples({"beta0": 0.1, "alpha": 1.0, "rho": 0.4, "sigma": 0.1}),
                          family="M32")
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(AssumptionError, match="A3"):
            index_posterior(data, samples, grid)
        idx = index_posterior(data, samples, grid, want_eti=False)
        assert idx.local_eti is None and idx.n_used == 4

    def test_quantiles_monotone(self, rng):
        data, _ = _simulated(rng, n=15)
        samples = fit_bayes(data, 0, "SE", opts=McmcOptions(chains=2, iters=600, seed=3))
        grid = np.linspace(0, 1, 9)
        idx = index_posterior(data, samples, grid, max_draws=150)
        for draws in (idx.tdi, idx.local_eti):
            quantiles = np.array(list(_quantile_cols(draws).values()))
            assert np.all(np.diff(quantiles, axis=0) >= -1e-12)
        assert np.all((idx.tdi >= 0.0) & (idx.tdi <= 1.0))
        assert idx.n_used <= 150
