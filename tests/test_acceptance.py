"""Acceptance suite: one test per criterion, each printing a PASS line.

Monte-Carlo checks run with fixed seeds, so every criterion is a
deterministic, reproducible gate.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines and timings.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from trendgp.estimation import (
    FitOptions,
    HalfNormalPrior,
    McmcOptions,
    StudentTPrior,
    PriorSpec,
    fit_bayes,
    fit_ml,
    rhat,
)
from trendgp.indices import _local_eti_from_moments, eti
from trendgp.kernels import KernelSpec, MeanSpec, kernel_gram, mean_eval
from trendgp.posterior import Dataset, Hyperparams, Posterior, prior_joint
from trendgp.selection import CandidateGrid, loo_mspe, select_model
from trendgp.simulation import Scenario, run_study
from trendgp.transforms import TransformSpec, transform_dataset

from conftest import (
    count_sign_flips,
    crossing_prob_mc,
    eti_instance,
    fd_rel_err,
    joint_posterior,
    random_instance,
    sample_paths,
    schur_oracle,
    tdi,
    tdi_original_scale,
)

EMPTY = Dataset(np.empty(0), np.empty(0))


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE C{criterion} PASS: {detail}", flush=True)


def test_c1_kernel_derivative_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    smooth_orders = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    m32_orders = [(1, 0), (0, 1), (1, 1)]
    worst = 0.0
    n_points = 0
    for family, orders, count in (
        ("SE", smooth_orders, 250),
        ("RQ", smooth_orders, 250),
        ("M52", smooth_orders, 250),
        ("M32", m32_orders, 250),
    ):
        for _ in range(count):
            alpha = float(rng.uniform(0.3, 3.0))
            rho = float(rng.uniform(0.2, 2.0))
            nu = float(rng.uniform(0.3, 8.0)) if family == "RQ" else None
            spec = KernelSpec(family, alpha, rho, nu)
            t = float(rng.uniform(-2, 2))
            s = t + float(rng.choice([-1, 1])) * float(rng.uniform(0.05, 3.0)) * rho
            n_points += 1
            for os_, ot in orders:
                # the high-precision stencil can afford a finer step than the
                # operation-level h = 1e-4 rho contract, which keeps the h^2
                # truncation term well below the 1e-6 gate near the diagonal
                err = fd_rel_err(spec, os_, ot, s, t, h_factor=1e-5)
                worst = max(worst, err)
                assert err < 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"{n_points} random points, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_c2_proposition1_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        family = ("SE", "RQ", "M52", "M32")[i % 4]
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 5))
        data, theta = random_instance(rng, n=n, families=(family,), sigma_range=(0.05, 0.4))
        grid = np.sort(rng.uniform(data.ts[0] - 0.5, data.ts[-1] + 0.5, p))
        orders = (0, 1) if family == "M32" else (0, 1, 2)
        blocks = ("f", "df") if family == "M32" else ("f", "df", "d2f")
        jp = joint_posterior(data, theta, grid, blocks=blocks)
        mu_o, cov_o = schur_oracle(data, theta, grid, orders=orders)
        scale_mu = max(1.0, float(np.max(np.abs(mu_o))))
        scale_cov = max(1.0, float(np.max(np.abs(cov_o))))
        err = max(
            float(np.max(np.abs(jp.mu - mu_o))) / scale_mu,
            float(np.max(np.abs(jp.sigma_mat - cov_o))) / scale_cov,
        )
        worst = max(worst, err)
        assert err < 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"100 instances, all nine blocks, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_c3_analytic_prior_crossing_rates():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        rho = float(rng.uniform(0.1, 5.0))
        nu = float(rng.uniform(0.2, 20.0))
        alpha = float(rng.uniform(0.3, 3.0))
        t_probe = float(rng.uniform(-5, 5))

        se = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", alpha, rho), 0.1)
        rate_se = _local_eti_from_moments(Posterior(EMPTY, se).marginal([t_probe], True))[0][0]
        want_se = math.sqrt(3.0) / (math.pi * rho)
        err_se = abs(rate_se - want_se) / want_se

        rq = Hyperparams(MeanSpec((0.0,)), KernelSpec("RQ", alpha, rho, nu), 0.1)
        rate_rq = _local_eti_from_moments(Posterior(EMPTY, rq).marginal([t_probe], True))[0][0]
        want_rq = math.sqrt(3.0) * math.sqrt(1.0 + 1.0 / nu) / (math.pi * rho)
        err_rq = abs(rate_rq - want_rq) / want_rq

        worst = max(worst, err_se, err_rq)
        assert err_se < 1e-8 and err_rq < 1e-8
    _report(3, f"20 random (rho, nu): SE and RQ derivative crossing rates, worst error {worst:.2e}")


def test_c4_tdi_monte_carlo_oracle():
    start = time.time()
    rng = np.random.default_rng(404)
    k = 100_000
    worst_z = 0.0
    for i in range(20):
        families = ("SE", "RQ", "M52", "M32")
        data, theta = random_instance(rng, families=(families[i % 4],))
        t_q = float(rng.uniform(data.ts[0], data.ts[-1]))
        val = tdi(data, theta, t_q)
        jp = joint_posterior(data, theta, [t_q], blocks=("df",))
        draws = sample_paths(jp, k, seed=4000 + i)[:, 0]
        frac = float(np.mean(draws > 0))
        se = max(math.sqrt(frac * (1.0 - frac) / k), 2.0 / k)
        z = abs(val - frac) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(4, f"20 instances x 1e5 draws, worst |z| = {worst_z:.2f} (limit 3), {elapsed:.1f}s")


def test_c5_eti_monte_carlo_oracle():
    start = time.time()
    rng = np.random.default_rng(505)
    k = 10_000
    interval = (0.0, 1.0)
    worst_rel = 0.0
    for i in range(10):
        data, theta = eti_instance(rng)
        val = eti(data, theta, interval)
        grid = np.linspace(0.0, 1.0, 800)
        jp = joint_posterior(data, theta, grid, blocks=("df",))
        flips = count_sign_flips(sample_paths(jp, k, seed=5000 + i))
        mc_mean = float(flips.mean())
        rel = abs(val - mc_mean) / mc_mean
        worst_rel = max(worst_rel, rel)
        assert rel < 0.05

        prob = crossing_prob_mc(data, theta, interval, k=k, grid_density=300, seed=6000 + i)
        se = math.sqrt(max(prob * (1.0 - prob), 1e-6) / k)
        assert val >= prob - 3.0 * se
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(5, f"10 instances: Simpson ETI vs 1e4-path crossing counts, worst rel err "
               f"{worst_rel:.3f} (limit 0.05); upper bound held; {elapsed:.0f}s")


@pytest.mark.slow
def test_c6_table1_partial_reproduction():
    start = time.time()
    scenario = Scenario(n=50, sigma=0.1, reps=500, seed=20240901)
    summary = run_study([scenario]).summaries[0]
    agg = summary.inclusive
    assert summary.reps_done + summary.failed == 500
    assert abs(agg["int_resid_f"]) < 0.01
    assert abs(agg["int_resid_df"]) < 0.01
    assert 0.0005 <= agg["l2_f"] <= 0.002
    assert 0.014 <= agg["l2_tdi"] <= 0.042
    assert abs(agg["int_resid_eti"] - (-0.006)) <= 0.05
    elapsed = time.time() - start
    _report(
        6,
        "scenario (n=50, sigma=0.1, 500 reps): "
        f"int_f={agg['int_resid_f']:+.4f}, int_df={agg['int_resid_df']:+.4f}, "
        f"l2_f={agg['l2_f']:.4f} (paper 0.001), l2_tdi={agg['l2_tdi']:.4f} (paper 0.028), "
        f"eti_med={agg['int_resid_eti']:+.4f} (paper -0.006), {elapsed:.0f}s",
    )


def test_c7_marginal_likelihood_and_fit_invariant():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        data, theta = random_instance(rng, n=int(rng.integers(2, 7)))
        n = data.n
        K = kernel_gram(theta.kernel, data.ts, data.ts) + theta.sigma**2 * np.eye(n)
        mu = np.broadcast_to(np.asarray(mean_eval(theta.mean, 0, data.ts), dtype=float), (n,))
        want = float(multivariate_normal(mean=mu, cov=K).logpdf(data.ys))
        got = Posterior(data, theta).loglik
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        assert err < 1e-8

    n_fits = 0
    for seed in range(4):
        gen = np.random.default_rng(seed)
        ts = np.linspace(0, 1, 30)
        truth = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.3), 0.1)
        f = sample_paths(prior_joint(truth, ts, blocks=("f",)), 1, seed=seed)[0]
        data = Dataset(ts, f + gen.normal(0, 0.1, 30))
        family = ("SE", "RQ", "M52", "SE")[seed]
        fit = fit_ml(data, seed % 2, family, FitOptions(restarts=8))
        assert all(fit.loglik >= s0 - 1e-9 for s0 in fit.start_logliks)
        n_fits += 1
    _report(7, f"100 density-oracle instances (worst rel err {worst:.2e}); "
               f"{n_fits} fits all dominated their restarts")


@pytest.mark.slow
def test_c8_bayesian_sanity():
    start = time.time()
    # prior recovery: alpha pinned near zero and a large fixed noise SD make
    # the marginal likelihood flat, so draws must match the priors
    data = Dataset(np.array([0.0, 1.0, 2.0]), np.array([0.01, -0.02, 0.02]))
    priors = PriorSpec(
        {"beta0": StudentTPrior(0.5, 1.2, 5.0), "rho": HalfNormalPrior(2.0, 1.0)}
    )
    samples = fit_bayes(
        data, 0, "SE", priors=priors,
        opts=McmcOptions(chains=4, iters=8000, seed=808,
                         fixed={"alpha": 1e-8, "sigma": 100.0}),
    )
    for name in ("beta0", "rho"):
        draws = samples.flat(name)
        prior = priors.for_param(name)
        for q in (0.25, 0.5, 0.75):
            batches = np.array_split(draws, 32)
            bq = np.array([np.quantile(b, q) for b in batches])
            se = bq.std(ddof=1) / math.sqrt(len(batches))
            assert abs(float(np.quantile(draws, q)) - prior.ppf(q)) <= 3.0 * se + 1e-3

    # split-Rhat at the published run settings on simulated data
    rng = np.random.default_rng(77)
    truth = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.25), 0.05)
    ts = np.linspace(0, 1, 50)
    f = sample_paths(prior_joint(truth, ts, blocks=("f",)), 1, seed=101)[0]
    sim = Dataset(ts, f + rng.normal(0, 0.05, 50))
    chains = fit_bayes(sim, 0, "SE", opts=McmcOptions(chains=4, iters=25_000, seed=20240901))
    rhats = {name: rhat(chains, name) for name in chains.param_names}
    assert all(r <= 1.01 for r in rhats.values()), rhats
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(8, "prior recovery within 3 MC SE; split-Rhat at 4x25000: "
               + ", ".join(f"{k}={v:.4f}" for k, v in rhats.items()) + f"; {elapsed:.0f}s")


def test_c9_transform_invariance():
    rng = np.random.default_rng(909)
    k = 100_000
    n_checked = 0
    for i in range(10):
        n = int(rng.integers(7, 12))
        ts = np.sort(rng.uniform(0, 3, n))
        if i < 5:
            kind = "logit"
            ys = 1.0 / (1.0 + np.exp(-(0.4 * ts - 0.6 + rng.normal(0, 0.25, n))))
        else:
            kind = "log"
            ys = np.exp(0.3 * ts + rng.normal(0, 0.2, n))
        data = Dataset(ts, ys)
        tf = TransformSpec(kind)
        theta = Hyperparams(
            MeanSpec((0.0,)),
            KernelSpec("SE", float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))),
            float(rng.uniform(0.1, 0.3)),
        )
        t_q = float(rng.uniform(ts[0], ts[-1]))
        exact = tdi_original_scale(data, tf, theta, t_q)
        direct = tdi(transform_dataset(tf, data), theta, t_q)
        assert exact == direct  # sign invariance is an identity, not a tolerance

        mc = tdi_original_scale(data, tf, theta, t_q, method="mc", k=k, seed=9000 + i)
        se = max(math.sqrt(exact * (1.0 - exact) / k), 2.0 / k)
        assert abs(mc - exact) <= 3.0 * se
        n_checked += 1
    _report(9, f"{n_checked} transformed datasets: exact identity held bitwise, "
               "MC pathway within 3 MC SE")


@pytest.mark.slow
def test_c10_model_selection_contract(tmp_path):
    # (a) noise-free linear data: the linear-mean candidate wins one-step-ahead
    ts = np.linspace(0, 4, 10)
    line = Dataset(ts, 1.0 + 0.5 * ts)
    result = select_model(line, CandidateGrid(degrees=(0, 1), families=("SE",)),
                          scheme="osa", opts=FitOptions(restarts=6))
    assert result.winner.degree == 1
    assert result.winner.mspe < 1e-8

    # (b) LOO is invariant to input row order (rows are canonicalized on ingest)
    from trendgp.dataio import read_timeseries

    rng = np.random.default_rng(1010)
    ts_r = np.sort(rng.uniform(0, 5, 8))
    ys_r = rng.normal(0, 1, 8)
    rows = [f"{float(t)!r},{float(y)!r}" for t, y in zip(ts_r, ys_r)]
    f_sorted = tmp_path / "sorted.csv"
    f_sorted.write_text("t,y\n" + "\n".join(rows) + "\n")
    shuffled = rows.copy()
    rng.shuffle(shuffled)
    f_shuf = tmp_path / "shuffled.csv"
    f_shuf.write_text("t,y\n" + "\n".join(shuffled) + "\n")
    theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 1.0), 0.3)
    d1, _ = read_timeseries(str(f_sorted))
    d2, _ = read_timeseries(str(f_shuf))
    assert loo_mspe(d1, 0, "SE", fixed_theta=theta) == loo_mspe(d2, 0, "SE", fixed_theta=theta)

    # (c) RQ nu divergence is reported as an SE substitution and merged
    ts30 = np.linspace(0, 1, 30)
    truth = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.45), 0.01)
    f = sample_paths(prior_joint(truth, ts30, blocks=("f",)), 1, seed=14)[0]
    smooth = Dataset(ts30, f + rng.normal(0, 0.01, 30))
    sel = select_model(smooth, CandidateGrid(degrees=(0,), families=("SE", "RQ")),
                       opts=FitOptions(restarts=6))
    rq = next(s for s in sel.scores if s.family == "RQ")
    assert rq.substituted_to_se
    assert len(sel.table_rows()) == len(sel.scores) - 1
    _report(10, f"linear-mean osa={result.winner.mspe:.2e} and wins; LOO order-invariant; "
                "RQ divergence reported as SE substitution")


def test_c11_cli_determinism_and_formats(tmp_path):
    import csv as _csv

    import jsonschema

    from trendgp import reporting
    from trendgp.cli import main

    rng = np.random.default_rng(1111)
    ts = np.linspace(0, 2, 12)
    ys = np.round(np.sin(2 * ts) + rng.normal(0, 0.1, 12), 4)
    data_file = tmp_path / "series.csv"
    with open(data_file, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["t", "y"])
        w.writerows(zip(ts, ys))

    common = ["--model", "0:SE", "--seed", "11", "--restarts", "5", "--grid", "50"]
    assert main(["fit", str(data_file), "--out", str(tmp_path / "r1")] + common) == 0
    assert main(["fit", str(data_file), "--out", str(tmp_path / "r2")] + common) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert b1 == b2

    report = json.loads(b1)
    schema_path = os.path.join(os.path.dirname(reporting.__file__), "schemas",
                               "report.schema.json")
    schema = json.loads(open(schema_path).read())
    jsonschema.validate(report, schema)

    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "dpc-covid19-ita-andamento-nazionale.csv")
    out_csv = tmp_path / "covid.csv"
    assert main(["fetch-covid", "--out", str(out_csv), "--offline", "--fixture", fixture]) == 0
    rows = list(_csv.reader(open(out_csv)))
    assert len(rows) - 1 == 90
    assert rows[1][0] == "2020-02-24"
    _report(11, "byte-identical reports, schema-valid JSON, fixture ingest: "
                "90 rows from 2020-02-24")
