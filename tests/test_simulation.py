"""Ground-truth simulation machinery and the study harness."""

import math
import os
import zlib
from dataclasses import replace

import numpy as np
import pytest

from trendgp import posterior, simulation
from trendgp.kernels import KernelSpec, MeanSpec
from trendgp.posterior import Hyperparams
from trendgp.simulation import (
    Scenario,
    integrated_residual,
    paper_truth_kernel,
    run_study,
    squared_l2,
)

from conftest import simulate_gp


def _theta(rho=0.3):
    return Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, rho), 0.0)


class TestSimulateGp:
    def test_deterministic_per_seed(self):
        grid = np.linspace(0, 1, 50)
        f1, df1 = simulate_gp(_theta(), grid, seed=3)
        f2, df2 = simulate_gp(_theta(), grid, seed=3)
        assert np.array_equal(f1, f2) and np.array_equal(df1, df2)
        f3, _ = simulate_gp(_theta(), grid, seed=4)
        assert not np.array_equal(f1, f3)

    def test_marginal_variance(self):
        grid = np.array([0.25, 0.5, 0.75])
        draws = np.array([simulate_gp(_theta(), grid, seed=s)[0] for s in range(10_000)])
        assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.05)

    def test_df_consistent_with_f_differences(self):
        # central differences of the f path approach the drawn df path
        errs = []
        for m in (101, 401):
            grid = np.linspace(0, 1, m)
            f, df = simulate_gp(_theta(rho=0.4), grid, seed=9)
            fd = np.gradient(f, grid)
            errs.append(np.max(np.abs(fd[2:-2] - df[2:-2])))
        assert errs[1] < errs[0]
        assert errs[1] < 0.05


class TestResidualMeasures:
    def test_identical_paths(self):
        grid = np.linspace(0, 1, 11)
        path = np.sin(grid)
        assert integrated_residual(path, path, grid) == 0.0
        assert squared_l2(path, path, grid) == 0.0

    def test_constant_offset(self):
        grid = np.linspace(0, 1, 101)
        truth = np.zeros(101)
        est = truth - 0.3
        assert integrated_residual(truth, est, grid) == pytest.approx(0.3, rel=1e-12)
        assert squared_l2(truth, est, grid) == pytest.approx(0.09, rel=1e-12)

    def test_indicator_variant_for_tdi(self):
        # an always-positive derivative against a TDI of one scores zero
        grid = np.linspace(0, 1, 51)
        indicator = (np.full(51, 0.7) > 0).astype(float)
        assert squared_l2(indicator, np.ones(51), grid) == 0.0

    def test_refinement_oracle(self, rng):
        coarse = np.linspace(0, 1, 101)
        fine = np.linspace(0, 1, 201)
        freq = 3.0
        truth_c, est_c = np.sin(freq * coarse), np.cos(2 * coarse)
        truth_f, est_f = np.sin(freq * fine), np.cos(2 * fine)
        assert integrated_residual(truth_c, est_c, coarse) == pytest.approx(
            integrated_residual(truth_f, est_f, fine), abs=1e-3
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            integrated_residual(np.zeros(3), np.zeros(4), np.linspace(0, 1, 3))


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n=2, sigma=0.1, reps=1)
        with pytest.raises(ValueError):
            Scenario(n=25, sigma=-0.1, reps=1)
        with pytest.raises(ValueError):
            Scenario(n=25, sigma=0.1, reps=0)

    def test_paper_truth_kernel(self):
        ker = paper_truth_kernel()
        assert ker.family == "SE" and ker.alpha == 1.0
        assert ker.rho == pytest.approx(math.sqrt(3) / (2 * math.pi))


class TestRunStudy:
    def test_deterministic_and_order_independent(self):
        s1 = Scenario(n=25, sigma=0.05, reps=3, seed=5, restarts=4)
        s2 = Scenario(n=25, sigma=0.1, reps=3, seed=5, restarts=4)
        r_a = run_study([s1, s2])
        r_b = run_study([s2, s1])
        a1 = next(s for s in r_a.summaries if s.sigma == 0.05)
        b1 = next(s for s in r_b.summaries if s.sigma == 0.05)
        assert a1.inclusive == b1.inclusive
        assert run_study([s1]).summaries[0].inclusive == a1.inclusive

    def test_low_noise_scenario_fits_tightly(self):
        scenario = Scenario(n=50, sigma=0.01, reps=5, seed=2, restarts=4)
        summary = run_study([scenario]).summaries[0]
        assert summary.failed == 0
        assert summary.inclusive["l2_f"] < 5e-4
        assert abs(summary.inclusive["int_resid_f"]) < 0.02

    def test_csv_layout(self):
        scenario = Scenario(n=25, sigma=0.05, reps=2, seed=1, restarts=4)
        text = run_study([scenario]).to_csv()
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:6] == ["n", "sigma", "reps", "failed", "excluded", "aggregate"]
        assert "l2_tdi" in header and "int_resid_eti" in header
        assert len(lines) == 3  # header + inclusive + exclusive
        assert lines[1].split(",")[5] == "inclusive"
        assert lines[2].split(",")[5] == "exclusive"

    def test_a4_failure_counts_as_failed(self, monkeypatch):
        # A fit whose grid posterior has no positive Var[df] counts as failed.
        # alpha = 1e-170 underflows alpha^2, so Var[df] is 0 on the whole grid;
        # the fits of data whose bytes have an odd crc32 keep their own theta
        # (three of the six replicates below, the first three).
        real = simulation.fit_ml

        def fit_ml(data, degree, family, opts):
            fit = real(data, degree, family, opts)
            if zlib.crc32(data.ys.tobytes()) % 2:
                return fit
            k = fit.theta.kernel
            return replace(fit, theta=replace(fit.theta, kernel=replace(k, alpha=1e-170)))

        monkeypatch.setattr(simulation, "fit_ml", fit_ml)
        summary = run_study([Scenario(n=20, sigma=0.1, reps=6, seed=1, restarts=2)]).summaries[0]
        assert summary.failed >= 1
        assert summary.reps_done >= 1
        assert summary.reps_done + summary.failed == 6


class TestTruthLaw:
    def test_built_once_per_cell_and_call(self, monkeypatch):
        # serial, so every construction happens in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        real = posterior._factor_cov
        calls = []

        def counted(cov):
            calls.append(cov.shape)
            return real(cov)

        monkeypatch.setattr(posterior, "_factor_cov", counted)
        cell = dict(n=8, reps=3, seed=2, restarts=2, grid_size=21)
        scenarios = [Scenario(sigma=0.1, **cell), Scenario(sigma=0.3, **cell)]
        run_study(scenarios)
        assert len(calls) == 1
        run_study(scenarios)
        assert len(calls) == 2  # the memo does not outlive its call

    def test_replicate_truth_is_simulate_gp(self, monkeypatch):
        # the truth a replicate scores against is simulate_gp's draw, bit for bit
        scenario = Scenario(n=8, sigma=0.1, reps=1, seed=6, restarts=2, grid_size=21)
        real = simulation.integrated_residual
        truths = []

        def spy(truth, estimate, grid):
            truths.append(np.array(truth))
            return real(truth, estimate, grid)

        monkeypatch.setattr(simulation, "integrated_residual", spy)
        assert simulation._replicate(scenario, 0, {}) is not None

        # the replicate's seed stream: the truth seed is its first draw
        seed_seq = np.random.SeedSequence(entropy=6, spawn_key=(8, int(round(0.1 * 1e9)), 0))
        seed = int(np.random.default_rng(seed_seq).integers(2**63))
        grid = np.linspace(0.0, 1.0, 21)
        all_ts = np.unique(np.concatenate([grid, np.linspace(0.0, 1.0, 8)]))
        f, df = simulate_gp(Hyperparams(MeanSpec((0.0,)), paper_truth_kernel(), 0.0), all_ts, seed)
        ix = np.searchsorted(all_ts, grid)
        assert truths[0].tobytes() == f[ix].tobytes()
        assert truths[1].tobytes() == df[ix].tobytes()
