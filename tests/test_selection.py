"""Cross-validated model selection."""

import contextlib
import os

import numpy as np
import pytest

from trendgp import selection
from trendgp.estimation import FitError, FitOptions
from trendgp.kernels import KernelSpec, MeanSpec, kernel_gram
from trendgp.posterior import Dataset, Hyperparams
from trendgp.selection import CandidateGrid, loo_mspe, osa_mspe, select_model

from conftest import covid_log_series


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


class TestFixedThetaClosedForm:
    """`fixed_theta` scores come in closed form from one factor of K.

    The oracle solves each fold's kriging system on its own.  Both sides
    round differently, so they agree to a stated tolerance, not bit for bit:
    1e-8 relative, at a condition number of about 9e7, where the two agree
    to about 2e-10.
    """

    @pytest.mark.parametrize("scheme, min_train", [("loo", None), ("osa", 3), ("osa", 7)],
                             ids=["loo", "osa-3", "osa-7"])
    def test_matches_per_fold_kriging_at_low_noise(self, scheme, min_train):
        # the log COVID series on its calendar-year axis, under the SE
        # parameters a fit finds there (sigma = 5e-4)
        data = covid_log_series()
        n, b0 = data.n, 6.5
        theta = Hyperparams(MeanSpec((b0,)), KernelSpec("SE", 0.87, 0.033), 5e-4)
        K = kernel_gram(theta.kernel, data.ts, data.ts) + theta.sigma**2 * np.eye(n)
        assert np.linalg.cond(K) > 5e7
        if scheme == "loo":
            folds = [(np.delete(np.arange(n), i), i) for i in range(n)]
            got = loo_mspe(data, 0, "SE", fixed_theta=theta)
        else:
            folds = [(np.arange(k), k) for k in range(min_train, n)]
            got = osa_mspe(data, 0, "SE", min_train=min_train, fixed_theta=theta)
        errs = []
        for train, i in folds:
            resid = data.ys[train] - b0
            pred = b0 + K[i, train] @ np.linalg.solve(K[np.ix_(train, train)], resid)
            errs.append((data.ys[i] - pred) ** 2)
        assert got == pytest.approx(float(np.mean(errs)), rel=1e-8)

    def test_no_fit_and_no_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fit_ml or fork_map called")

        monkeypatch.setattr(selection, "fit_ml", refuse)
        monkeypatch.setattr(selection, "fork_map", refuse)
        data = _wiggle()
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 1.0), 0.3)
        assert loo_mspe(data, 0, "SE", fixed_theta=theta) > 0
        assert osa_mspe(data, 0, "SE", min_train=4, fixed_theta=theta) > 0


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
        from trendgp.posterior import prior_joint

        from conftest import sample_paths

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


def _ramp(n=9, seed=1):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 3.0, n)
    return Dataset(ts, 2.0 * ts + 0.3 * np.sin(2.0 * ts) + rng.normal(0.0, 0.1, n))


class TestFoldRefitStarts:
    """Every fold refit starts from the default start and its candidate's
    full-data optimum, whatever restarts and seed the full-data fits get."""

    @pytest.mark.parametrize("scheme", ["loo", "osa"])
    def test_every_fold_refit_runs_two_starts(self, monkeypatch, scheme):
        data = _wiggle()
        starts = []  # (rows, starts run) of each fit_ml call
        real = selection.fit_ml

        def fit_ml(d, degree, family, opts=None):
            fit = real(d, degree, family, opts)
            starts.append((d.n, len(fit.start_logliks) + fit.n_failed_restarts))
            return fit

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        _cpus(monkeypatch, 1)  # the folds run in this process, where the wrapper sees them
        opts = FitOptions(restarts=7, seed=4)
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52", "RQ"))
        result = select_model(data, grid, scheme=scheme, opts=opts)
        refit = [s for s in result.scores if not (s.failed or s.screened)]
        mspe = loo_mspe if scheme == "loo" else osa_mspe
        for s in refit:
            mspe(data, s.degree, s.family, opts=opts)
        n_folds = len(selection._folds(data.n, scheme))
        fold_starts = [k for n, k in starts if n < data.n]
        assert len(fold_starts) == 2 * len(refit) * n_folds
        assert set(fold_starts) == {2}
        assert {k for n, k in starts if n == data.n} == {7}


class TestOneFoldPool:
    """A selection forks one pool: it runs the leader's folds, then, in the
    same workers, the survivors' folds when there are any."""

    def test_one_pool_per_loo_selection(self, monkeypatch):
        # 1:SE leads, 0:SE survives the screen, both M52 candidates are screened out
        pools, runs, result = self._pools_and_runs(monkeypatch, "loo", degrees=(0, 1))
        assert (pools, runs) == (1, [9, 9])
        assert [s.screened for s in result.scores] == [False, True, False, True]
        assert not any(s.failed for s in result.scores)
        # with no survivor the second run refits nothing
        pools, runs, result = self._pools_and_runs(monkeypatch, "loo", degrees=(0,))
        assert (pools, runs) == (1, [9, 0])
        assert [s.screened for s in result.scores] == [False, True]
        assert not any(s.failed for s in result.scores)

    def test_one_pool_per_osa_selection(self, monkeypatch):
        # one-step-ahead folds hold out rows 3 to n - 1; no candidate is screened
        pools, runs, result = self._pools_and_runs(monkeypatch, "osa", degrees=(0, 1))
        assert (pools, runs) == (1, [9 - 3, 3 * (9 - 3)])
        assert not any(s.screened or s.failed for s in result.scores)

    @classmethod
    def _pools_and_runs(cls, monkeypatch, scheme, degrees):
        """ProcessPoolExecutor constructions, the length of each `run`, and the result of one selection."""
        pools, runs = cls._counted(monkeypatch)
        data = _wiggle()
        grid = CandidateGrid(degrees=degrees, families=("SE", "M52"))
        result = select_model(data, grid, scheme=scheme, opts=_fast_opts())
        assert data.n == 9
        return len(pools), runs, result

    @staticmethod
    def _counted(monkeypatch):
        """Two CPUs, and the lists that collect each ProcessPoolExecutor's arguments and each `run`'s length."""
        import concurrent.futures

        pools, runs = [], []
        real_executor, real_pool = concurrent.futures.ProcessPoolExecutor, selection.fork_pool

        class Counted(real_executor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        @contextlib.contextmanager
        def fork_pool(fn, items):
            with real_pool(fn, items) as run:
                def counted(indices):
                    runs.append(len(indices))
                    return run(indices)

                yield counted

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(selection, "fork_pool", fork_pool)
        return pools, runs

    def test_pooled_equals_serial_with_a_failing_candidate(self, monkeypatch):
        # the leader, 1:SE, fails its refits in the folds that leave out
        # observations 2 and 5: it reports the first of them, and every other
        # candidate is refit, the M52 ones that the screen would drop included,
        # in the one pool the leader's folds ran in
        data = _wiggle()
        real = selection.fit_ml

        def fit_ml(d, degree, family, opts):
            missing = [i for i, t in enumerate(data.ts) if t not in d.ts]
            if (degree, family) == (1, "SE") and missing and missing[0] in (2, 5):
                raise FitError(f"no SE fit without observation {missing[0]}")
            return real(d, degree, family, opts)

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        _cpus(monkeypatch, 1)
        serial = select_model(data, grid, opts=_fast_opts(seed=3))
        pools, runs = self._counted(monkeypatch)
        pooled = select_model(data, grid, opts=_fast_opts(seed=3))
        assert (len(pools), runs) == (1, [9, 3 * 9])
        assert pooled.scores == serial.scores
        for a, b in zip(pooled.scores, serial.scores):
            assert np.asarray(a.mspe, dtype=float).tobytes() == np.asarray(b.mspe, dtype=float).tobytes()
        others = list(pooled.scores)
        se = others.pop(2)
        assert se.failed and se.mspe is None and se.fit is None
        assert se.error == "no SE fit without observation 2"
        assert all(not (s.failed or s.screened) and s.fit is not None for s in others)
        assert pooled.winner == min(others, key=lambda s: s.mspe)

    def test_loo_mspe_equals_the_selection_score(self):
        self._check_scores(_wiggle(), loo_mspe, "loo")

    def test_osa_mspe_equals_the_selection_score(self):
        # on a steady climb the one-step-ahead screen drops the constant-mean candidates
        self._check_scores(_ramp(), osa_mspe, "osa")

    @staticmethod
    def _check_scores(data, mspe, scheme):
        """A refit candidate scores `mspe` and a screened one `mspe(fixed_theta=)`
        at its full-data fit, bit for bit; the screen drops exactly the
        candidates whose closed-form score exceeds the leader's refit score."""
        opts = _fast_opts(seed=1)
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        result = select_model(data, grid, scheme=scheme, opts=opts)
        closed = [mspe(data, s.degree, s.family, fixed_theta=s.fit.theta) for s in result.scores]
        refit = [i for i, s in enumerate(result.scores) if not s.screened]
        assert 0 < len(refit) < len(result.scores)
        leader = min(refit, key=lambda i: closed[i])
        for score, fixed in zip(result.scores, closed):
            if score.screened:
                alone = fixed
                assert score.mspe > result.winner.mspe
            else:
                alone = mspe(data, score.degree, score.family, opts=opts)
            assert np.asarray(alone).tobytes() == np.asarray(score.mspe).tobytes()
            assert score.screened == (fixed > result.scores[leader].mspe)

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
