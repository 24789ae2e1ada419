"""Cross-validated model selection."""

import os

import numpy as np
import pytest

from trendgp import selection
from trendgp.estimation import FitError, FitOptions
from trendgp.kernels import KernelSpec, MeanSpec
from trendgp.posterior import Dataset, Hyperparams
from trendgp.selection import CandidateGrid, loo_mspe, osa_mspe, select_model


def _fast_opts(seed=0):
    return FitOptions(restarts=6, seed=seed)


class TestLooMspe:
    def test_constant_data_scores_zero(self):
        ts = np.linspace(0, 3, 8)
        data = Dataset(ts, np.full(8, 4.2))
        assert loo_mspe(data, 0, "SE", _fast_opts()) < 1e-10

    def test_hand_computed_folds_with_fixed_theta(self):
        # oracle: explicit fold-by-fold 3x3 solves of the kriging predictor;
        # frozen value computed from that loop
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.5, 1.0, 0.2, 0.8])
        alpha, rho, sigma, beta0 = 1.0, 1.0, 0.3, 0.6
        theta = Hyperparams(MeanSpec((beta0,)), KernelSpec("SE", alpha, rho), sigma)

        def k(s, t):
            return alpha**2 * np.exp(-((s - t) ** 2) / (2 * rho**2))

        errs = []
        for i in range(4):
            keep = [j for j in range(4) if j != i]
            K = np.array([[k(ts[a], ts[b]) for b in keep] for a in keep]) + sigma**2 * np.eye(3)
            kstar = np.array([k(ts[i], ts[b]) for b in keep])
            pred = beta0 + kstar @ np.linalg.solve(K, ys[keep] - beta0)
            errs.append((ys[i] - pred) ** 2)
        by_hand = float(np.mean(errs))
        assert by_hand == pytest.approx(0.46692524519275397, rel=1e-12)

        got = loo_mspe(Dataset(ts, ys), 0, "SE", fixed_theta=theta)
        assert got == pytest.approx(by_hand, rel=1e-10)

    def test_row_order_is_canonicalized(self, rng, tmp_path):
        # shuffled CSV rows ingest to the same dataset, hence the same score
        from trendgp.dataio import read_timeseries

        ts = np.sort(rng.uniform(0, 5, 8))
        ys = rng.normal(0, 1, 8)
        rows = [f"{t},{y}" for t, y in zip(ts, ys)]
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 1.0), 0.3)

        sorted_file = tmp_path / "sorted.csv"
        sorted_file.write_text("t,y\n" + "\n".join(rows) + "\n")
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        shuffled_file = tmp_path / "shuffled.csv"
        shuffled_file.write_text("t,y\n" + "\n".join(shuffled) + "\n")

        d1, _ = read_timeseries(str(sorted_file))
        d2, _ = read_timeseries(str(shuffled_file))
        assert np.array_equal(d1.ts, d2.ts)
        a = loo_mspe(d1, 0, "SE", fixed_theta=theta)
        b = loo_mspe(d2, 0, "SE", fixed_theta=theta)
        assert a == b

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            loo_mspe(Dataset(np.arange(3.0), np.zeros(3)), 0, "SE")


class TestOsaMspe:
    def test_residual_count_contract(self, rng):
        n, min_train = 9, 4
        ts = np.sort(rng.uniform(0, 5, n))
        data = Dataset(ts, rng.normal(0, 1, n))
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 1.0), 0.5)
        # with a fixed theta the score is the mean of exactly n - min_train errors
        from trendgp.posterior import marginal_moments

        errs = []
        for k in range(min_train, n):
            head = Dataset(data.ts[:k], data.ys[:k])
            pred = marginal_moments(head, theta, [data.ts[k]]).mu_f[0]
            errs.append((data.ys[k] - pred) ** 2)
        assert len(errs) == n - min_train
        got = osa_mspe(data, 0, "SE", min_train=min_train, fixed_theta=theta)
        assert got == pytest.approx(float(np.mean(errs)), rel=1e-12)

    def test_perfect_linear_data(self):
        ts = np.linspace(0, 4, 10)
        data = Dataset(ts, 2.0 + 0.7 * ts)
        assert osa_mspe(data, 1, "SE", opts=_fast_opts()) < 1e-8

    def test_min_train_edge(self, rng):
        ts = np.sort(rng.uniform(0, 3, 5))
        data = Dataset(ts, rng.normal(0, 1, 5))
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 1.0), 0.5)
        from trendgp.posterior import marginal_moments

        head = Dataset(data.ts[:4], data.ys[:4])
        pred = marginal_moments(head, theta, [data.ts[4]]).mu_f[0]
        want = (data.ys[4] - pred) ** 2
        assert osa_mspe(data, 0, "SE", min_train=4, fixed_theta=theta) == pytest.approx(want)

    def test_rejects_bad_sizes(self):
        data = Dataset(np.arange(4.0), np.zeros(4))
        with pytest.raises(ValueError):
            osa_mspe(data, 0, "SE", min_train=4)
        with pytest.raises(ValueError):
            osa_mspe(data, 0, "SE", min_train=2)


class TestSelectModel:
    def test_single_candidate_wins(self, rng):
        ts = np.sort(rng.uniform(0, 4, 8))
        data = Dataset(ts, np.sin(ts) + rng.normal(0, 0.1, 8))
        grid = CandidateGrid(degrees=(0,), families=("SE",))
        result = select_model(data, grid, opts=_fast_opts())
        assert result.winner.degree == 0 and result.winner.family == "SE"
        assert len(result.scores) == 1

    def test_linear_candidate_wins_on_noise_free_line(self):
        ts = np.linspace(0, 4, 10)
        data = Dataset(ts, 1.0 + 0.5 * ts)
        grid = CandidateGrid(degrees=(0, 1), families=("SE",))
        result = select_model(data, grid, scheme="osa", opts=_fast_opts())
        assert result.winner.degree == 1
        winner_score = result.winner.mspe
        assert winner_score < 1e-8

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CandidateGrid(degrees=(), families=("SE",))
        with pytest.raises(ValueError, match="OU"):
            CandidateGrid(families=("SE", "OU"))

    def test_scheme_validation(self, rng):
        ts = np.sort(rng.uniform(0, 3, 6))
        data = Dataset(ts, rng.normal(0, 1, 6))
        with pytest.raises(ValueError):
            select_model(data, CandidateGrid(degrees=(0,), families=("SE",)), scheme="kfold")

    def test_rq_divergence_reported_and_merged(self, rng):
        # very smooth data drives the RQ shape parameter to the SE limit
        ts = np.linspace(0, 1, 30)
        truth = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.45), 0.01)
        from trendgp.posterior import prior_joint, sample_paths

        f = sample_paths(prior_joint(truth, ts, blocks=("f",)), 1, seed=14)[0]
        data = Dataset(ts, f + rng.normal(0, 0.01, 30))
        grid = CandidateGrid(degrees=(0,), families=("SE", "RQ"))
        result = select_model(data, grid, opts=_fast_opts(seed=2))
        rq_score = next(s for s in result.scores if s.family == "RQ")
        assert rq_score.substituted_to_se
        rows = result.table_rows()
        assert len(rows) == len(result.scores) - 1
        assert all(r.family != "RQ" for r in rows)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _wiggle(n=9, seed=5):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 3.0, n)
    return Dataset(ts, np.sin(2.0 * ts) + rng.normal(0.0, 0.2, n))


class TestOneFoldPool:
    """Every candidate's folds, under either scheme, go through one fork_map call."""

    def test_one_fork_map_call_per_selection(self, monkeypatch):
        assert self._fork_map_calls(monkeypatch, "loo") == [4 * 9]

    def test_one_fork_map_call_per_osa_selection(self, monkeypatch):
        # one-step-ahead folds hold out rows 3 to n - 1
        assert self._fork_map_calls(monkeypatch, "osa") == [4 * (9 - 3)]

    @staticmethod
    def _fork_map_calls(monkeypatch, scheme):
        calls = []
        real = selection.fork_map

        def counted(fn, items):
            items = list(items)
            calls.append(len(items))
            return real(fn, items)

        monkeypatch.setattr(selection, "fork_map", counted)
        data = _wiggle()
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        result = select_model(data, grid, scheme=scheme, opts=_fast_opts())
        assert data.n == 9 and all(not s.failed for s in result.scores)
        return calls

    def test_pooled_equals_serial_with_a_failing_candidate(self, monkeypatch):
        # M52 refits fail in the folds that leave out observations 2 and 5;
        # the candidate reports the first of them, and SE is unaffected
        data = _wiggle()
        real = selection.fit_ml

        def fit_ml(d, degree, family, opts):
            missing = [i for i, t in enumerate(data.ts) if t not in d.ts]
            if family == "M52" and missing and missing[0] in (2, 5):
                raise FitError(f"no M52 fit without observation {missing[0]}")
            return real(d, degree, family, opts)

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        grid = CandidateGrid(degrees=(0,), families=("SE", "M52"))
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            runs.append(select_model(data, grid, opts=_fast_opts(seed=3)))
        serial, pooled = runs
        assert pooled.scores == serial.scores
        se, m52 = pooled.scores
        assert np.asarray(se.mspe).tobytes() == np.asarray(serial.scores[0].mspe).tobytes()
        assert not se.failed and se.fit is not None
        assert m52.failed and m52.mspe is None and m52.fit is None
        assert m52.error == "no M52 fit without observation 2"
        assert pooled.winner.family == "SE"

    def test_loo_mspe_equals_the_selection_score(self):
        data = _wiggle()
        opts = _fast_opts(seed=1)
        result = select_model(data, CandidateGrid(degrees=(0,), families=("SE", "M52")), opts=opts)
        for score in result.scores:
            alone = loo_mspe(data, score.degree, score.family, opts)
            assert np.asarray(alone).tobytes() == np.asarray(score.mspe).tobytes()

    def test_osa_mspe_equals_the_selection_score(self):
        data = _wiggle()
        opts = _fast_opts(seed=1)
        result = select_model(data, CandidateGrid(degrees=(0,), families=("SE", "M52")), scheme="osa",
                              opts=opts)
        for score in result.scores:
            alone = osa_mspe(data, score.degree, score.family, opts=opts)
            assert np.asarray(alone).tobytes() == np.asarray(score.mspe).tobytes()

    @pytest.mark.parametrize("scheme, reason", [
        ("loo", "leave-one-out scoring needs n >= 4 observations, got 3"),
        ("osa", "one-step-ahead scoring needs n > min_train, got n=3"),
    ], ids=["loo", "osa"])
    def test_too_short_for_the_scheme_raises_before_any_fit(self, monkeypatch, scheme, reason):
        def fit_ml(*args):
            raise AssertionError("fit_ml called")

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        data = Dataset(np.arange(3.0), np.array([0.1, 0.5, 0.2]))
        with pytest.raises(ValueError, match=f"^{reason}$"):
            select_model(data, CandidateGrid(degrees=(0,), families=("SE",)), scheme=scheme)
