"""Trend direction index, crossing intensity and crossing counting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendgp.indices import (
    TdiCurve,
    count_crossings,
    crossing_prob_mc,
    crosspoint,
    eti,
    local_eti,
    local_eti_curve,
    tdi,
    tdi_curve,
)
from trendgp.kernels import AssumptionError, KernelSpec, MeanSpec
from trendgp.posterior import Dataset, Hyperparams, joint_posterior, sample_paths

from conftest import count_sign_flips, random_instance

EMPTY = Dataset(np.empty(0), np.empty(0))


def _theta(family="SE", alpha=1.0, rho=1.0, nu=None, sigma=0.2, betas=(0.0,)):
    return Hyperparams(MeanSpec(betas), KernelSpec(family, alpha, rho, nu), sigma)


class TestTdi:
    def test_prior_zero_mean_is_half(self):
        assert tdi(EMPTY, _theta(), 0.7) == pytest.approx(0.5, abs=1e-15)

    def test_upper_quantile_value(self):
        # a linear prior mean puts mu_df/sd_df = 1.959964 exactly at z_97.5
        alpha, rho = 1.0, 1.0
        slope = 1.959964 * alpha / rho
        theta = _theta(betas=(0.0, slope))
        assert tdi(EMPTY, theta, 0.0) == pytest.approx(0.975, abs=1e-6)

    def test_matches_monte_carlo(self, rng):
        data, theta = random_instance(rng)
        t_q = float(rng.uniform(data.ts[0], data.ts[-1]))
        val = tdi(data, theta, t_q)
        jp = joint_posterior(data, theta, [t_q], blocks=("df",))
        draws = sample_paths(jp, 100_000, seed=5)[:, 0]
        frac = float(np.mean(draws > 0))
        se = max(math.sqrt(frac * (1 - frac) / draws.size), 2.0 / draws.size)
        assert abs(val - frac) <= 3 * se

    def test_complement_equals_one_minus_tdi(self, rng):
        # P(negative trend) evaluated directly on the mirrored problem
        for _ in range(10):
            data, theta = random_instance(rng)
            t_q = float(rng.uniform(data.ts[0], data.ts[-1]))
            mirrored_theta = Hyperparams(
                MeanSpec(tuple(-b for b in theta.mean.coefficients)), theta.kernel, theta.sigma
            )
            mirrored = Dataset(data.ts, -data.ys)
            p_neg = tdi(mirrored, mirrored_theta, t_q)
            assert p_neg == pytest.approx(1.0 - tdi(data, theta, t_q), abs=1e-12)

    def test_threshold_shift(self, rng):
        data, theta = random_instance(rng)
        t_q = float(data.ts[0])
        base = tdi(data, theta, t_q)
        assert tdi(data, theta, t_q, threshold=0.0) == base
        values = [tdi(data, theta, t_q, threshold=u) for u in (-1.0, -0.3, 0.0, 0.3, 1.0)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_delta_offset(self):
        theta = _theta(betas=(0.0, 1.0))
        # with a linear prior mean, tdi(t, delta) only depends on t + delta
        assert tdi(EMPTY, theta, 1.0, delta=0.5) == tdi(EMPTY, theta, 1.5)


class TestTdiCurve:
    def test_prior_curve_is_flat_half(self):
        curve = tdi_curve(EMPTY, _theta(), np.linspace(0, 1, 7), anchor=1.0)
        assert np.allclose(curve.values, 0.5)

    def test_singleton_grid(self):
        data, theta = Dataset(np.array([0.0, 1.0]), np.array([0.0, 1.0])), _theta()
        curve = tdi_curve(data, theta, [0.5], anchor=1.0)
        assert curve.values.shape == (1,)
        assert curve.values[0] == pytest.approx(tdi(data, theta, 0.5))

    def test_far_future_stabilizes_at_half(self):
        ts = np.linspace(0, 1, 6)
        data = Dataset(ts, np.linspace(0, 2, 6))
        theta = _theta(rho=0.3, betas=(0.5,))
        far = tdi_curve(data, theta, [30.0], anchor=1.0)
        assert far.values[0] == pytest.approx(0.5, abs=1e-6)

    def test_values_validated(self):
        with pytest.raises(ValueError):
            TdiCurve(grid=np.array([0.0, 1.0]), values=np.array([0.5, 1.2]), anchor=1.0)


class TestLocalEti:
    def test_prior_rate_se(self):
        for rho in (0.2, 0.7, 3.1):
            rate, terms = local_eti(EMPTY, _theta(alpha=1.7, rho=rho), 0.5)
            assert rate == pytest.approx(math.sqrt(3) / (math.pi * rho), rel=1e-12)
            assert terms.omega == 0.0

    def test_prior_rate_rq(self):
        for rho, nu in ((0.5, 0.8), (1.4, 3.0)):
            rate, _ = local_eti(EMPTY, _theta(family="RQ", rho=rho, nu=nu), 0.2)
            want = math.sqrt(3) * math.sqrt(1 + 1 / nu) / (math.pi * rho)
            assert rate == pytest.approx(want, rel=1e-12)

    def test_prior_rate_constant_in_time(self):
        theta = _theta(alpha=2.0, rho=0.6)
        rates = [local_eti(EMPTY, theta, t)[0] for t in (-3.0, 0.0, 1.7, 10.0)]
        assert np.allclose(rates, rates[0], rtol=1e-12)

    def test_m32_rejected(self):
        with pytest.raises(AssumptionError, match="A3"):
            local_eti(EMPTY, _theta(family="M32"), 0.0)

    def test_posterior_rate_matches_crossing_oracle(self, rng):
        data, theta = random_instance(rng, n=8, families=("SE",))
        t0 = 0.5 * (data.ts[0] + data.ts[-1])
        w = 0.05 * theta.kernel.rho
        rate, _ = local_eti(data, theta, t0)
        grid = np.linspace(t0 - w, t0 + w, 9)
        jp = joint_posterior(data, theta, grid, blocks=("df",))
        flips = count_sign_flips(sample_paths(jp, 20_000, seed=3))
        mc = flips.mean() / (2 * w)
        assert rate == pytest.approx(mc, rel=0.1, abs=0.05 / theta.kernel.rho)

    def test_scale_equivariance(self):
        # stretching time by c divides the prior rate by c
        base, _ = local_eti(EMPTY, _theta(rho=0.5), 0.0)
        for c in (2.0, 10.0):
            scaled, _ = local_eti(EMPTY, _theta(rho=0.5 * c), 0.0)
            assert scaled == pytest.approx(base / c, rel=1e-12)


class TestEti:
    def test_prior_is_rate_times_length(self):
        theta = _theta(rho=0.8)
        rate = math.sqrt(3) / (math.pi * 0.8)
        for a, b in ((0.0, 1.0), (-2.0, 3.0)):
            assert eti(EMPTY, theta, (a, b)) == pytest.approx(rate * (b - a), rel=1e-9)
        # total prior ETI is invariant under joint time rescaling
        assert eti(EMPTY, _theta(rho=8.0), (0.0, 10.0)) == pytest.approx(
            eti(EMPTY, _theta(rho=0.8), (0.0, 1.0)), rel=1e-9
        )

    def test_empty_interval(self):
        assert eti(EMPTY, _theta(), (1.0, 1.0)) == 0.0

    def test_simpson_doubling(self, rng):
        data, theta = random_instance(rng, n=6)
        interval = (float(data.ts[0]), float(data.ts[-1]))
        coarse = eti(data, theta, interval, n_quad=512)
        fine = eti(data, theta, interval, n_quad=1024)
        assert abs(coarse - fine) < 1e-4

    def test_matches_crossing_count_oracle(self, rng):
        data, theta = random_instance(rng, n=8, families=("SE", "RQ"))
        interval = (float(data.ts[0]), float(data.ts[-1]))
        val = eti(data, theta, interval)
        grid = np.linspace(*interval, 500)
        jp = joint_posterior(data, theta, grid, blocks=("df",))
        flips = count_sign_flips(sample_paths(jp, 10_000, seed=9))
        mc = flips.mean()
        se = flips.std(ddof=1) / math.sqrt(flips.size)
        assert abs(val - mc) <= max(0.05 * mc, 3 * se)

    def test_upper_bound_on_crossing_probability(self, rng):
        for _ in range(3):
            data, theta = random_instance(rng, n=6)
            interval = (float(data.ts[0]), float(data.ts[-1]))
            val = eti(data, theta, interval)
            prob = crossing_prob_mc(data, theta, interval, k=4000, grid_density=300, seed=2)
            se = math.sqrt(max(prob * (1 - prob), 1e-4) / 4000)
            assert val >= prob - 3 * se


class TestCrossingProbMc:
    def test_degenerate_interval(self):
        assert crossing_prob_mc(EMPTY, _theta(), (0.3, 0.3), k=100, seed=0) == 0.0

    def test_strong_trend_never_crosses(self):
        ts = np.linspace(0, 1, 9)
        data = Dataset(ts, 10.0 * ts)
        theta = _theta(alpha=0.5, rho=1.5, sigma=0.01, betas=(0.0, 10.0))
        prob = crossing_prob_mc(data, theta, (0.1, 0.9), k=2000, seed=4)
        assert prob < 0.01

    def test_determinism(self, rng):
        data, theta = random_instance(rng, n=5)
        interval = (float(data.ts[0]), float(data.ts[-1]))
        a = crossing_prob_mc(data, theta, interval, k=500, seed=7)
        b = crossing_prob_mc(data, theta, interval, k=500, seed=7)
        assert a == b


class TestCrosspoint:
    def test_exact_crossing_time(self):
        # synthetic curve built to pass 0.5 exactly at t = 2015.48
        grid = np.linspace(2008.0, 2018.0, 501)
        values = np.clip(0.5 + 0.04 * (grid - 2015.48), 0.02, 0.98)
        curve = TdiCurve(grid=grid, values=values, anchor=2018.0)
        assert crosspoint(curve, (2008.0, 2018.0)) == pytest.approx(2015.48, abs=1e-9)

    def test_never_reached(self):
        grid = np.linspace(0, 1, 11)
        curve = TdiCurve(grid=grid, values=np.full(11, 0.2), anchor=1.0)
        assert crosspoint(curve, (0.0, 1.0)) is None

    def test_starts_above_threshold(self):
        grid = np.linspace(0, 1, 11)
        curve = TdiCurve(grid=grid, values=np.full(11, 0.9), anchor=1.0)
        assert crosspoint(curve, (0.25, 1.0)) == 0.25

    def test_window_inside_span(self):
        grid = np.linspace(0, 1, 11)
        curve = TdiCurve(grid=grid, values=np.linspace(0, 1, 11), anchor=1.0)
        with pytest.raises(ValueError):
            crosspoint(curve, (-0.5, 1.0))

    def test_custom_threshold(self):
        grid = np.linspace(0, 1, 101)
        curve = TdiCurve(grid=grid, values=np.linspace(0.0, 1.0, 101), anchor=1.0)
        assert crosspoint(curve, (0.0, 1.0), threshold=0.75) == pytest.approx(0.75, abs=1e-12)


class TestCountCrossings:
    def test_monotone_path(self):
        assert count_crossings([1.0, 2.0, 3.0]).total == 0

    def test_alternating(self):
        assert count_crossings([1.0, -1.0, 1.0]).total == 2

    def test_zero_touch_between_opposite_signs(self):
        assert count_crossings([1.0, 0.0, -1.0]).total == 1

    def test_zero_touch_same_sign_does_not_count(self):
        assert count_crossings([1.0, 0.0, 1.0]).total == 0

    def test_zero_run_counts_once(self):
        assert count_crossings([1.0, 0.0, 0.0, -1.0, 1.0]).total == 2

    def test_counts_monotone_from_zero(self):
        proc = count_crossings([0.5, -0.5, 0.5, -0.5])
        assert proc.counts[0] == 0
        assert np.all(np.diff(proc.counts) >= 0)
        assert proc.total == 3

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            count_crossings([1.0])


class TestLocalEtiCurveShape:
    def test_curve_matches_pointwise(self, rng):
        data, theta = random_instance(rng, n=5, families=("SE",))
        grid = np.linspace(data.ts[0], data.ts[-1], 5)
        _, rates = local_eti_curve(data, theta, grid)
        for i, t in enumerate(grid):
            assert rates[i] == pytest.approx(local_eti(data, theta, float(t))[0], rel=1e-9)


@st.composite
def _instances(draw):
    """A small irregular dataset and a theta drawn independently of it."""
    family = draw(st.sampled_from(["SE", "RQ", "M52"]))
    n = draw(st.integers(3, 12))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    ts = np.cumsum(gaps)
    span = ts[-1] - ts[0]
    ys = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    alpha = math.exp(draw(st.floats(-2.0, 2.0)))
    rho = math.exp(draw(st.floats(-2.0, 1.0))) * span
    nu = math.exp(draw(st.floats(-1.0, 3.0))) if family == "RQ" else None
    sigma = math.exp(draw(st.floats(-3.0, 1.0))) * alpha
    theta = Hyperparams(MeanSpec((draw(st.floats(-2.0, 2.0)),)), KernelSpec(family, alpha, rho, nu), sigma)
    lo, hi = sorted(draw(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2)))
    return Dataset(ts, ys), theta, (ts[0] + lo * span, ts[0] + hi * span)


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_tdi_in_unit_interval_and_eti_nonnegative(instance):
    data, theta, interval = instance
    grid = np.linspace(data.ts[0] - 0.25, data.ts[-1] + 0.25, 41)
    values = tdi_curve(data, theta, grid, anchor=grid[0]).values
    assert np.all((values >= 0.0) & (values <= 1.0))
    _, rates = local_eti_curve(data, theta, grid)
    assert np.all(rates >= 0.0)
    assert eti(data, theta, interval, n_quad=64) >= 0.0
