"""Cross-validated model selection."""

import contextlib
import os

import numpy as np
import pytest

from trendgp import selection
from trendgp.estimation import FitError, FitOptions, _LogObjective, _ModelSpace
from trendgp.kernels import KernelSpec, MeanSpec, kernel_gram
from trendgp.posterior import Dataset, Hyperparams, marginal_moments
from trendgp.selection import CandidateGrid, loo_mspe, osa_mspe, select_model

from conftest import covid_log_series


def _fast_opts():
    return FitOptions(restarts=6)


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
            raise AssertionError("fit_ml, fork_pool or _fold_error called")

        monkeypatch.setattr(selection, "fit_ml", refuse)
        monkeypatch.setattr(selection, "fork_pool", refuse)
        monkeypatch.setattr(selection, "_fold_error", refuse)
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
        result = select_model(data, grid, opts=_fast_opts())
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


def _exp_climb(n=16, seed=3):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 3.0, n)
    return Dataset(ts, np.exp(ts) + rng.normal(0.0, 0.01, n))


def _ramp(n=9, seed=1):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 3.0, n)
    return Dataset(ts, 2.0 * ts + 0.3 * np.sin(2.0 * ts) + rng.normal(0.0, 0.1, n))


class TestNewtonFold:
    """A fold refit is guarded Newton steps from the full-data optimum to the
    fold's optimum, or the two-start refit where the guard rejects a step."""

    @staticmethod
    def _reject_every_step(monkeypatch):
        # radius 0 rejects every step, and no fold here starts at its optimum,
        # so every fold falls back
        monkeypatch.setattr(selection, "_NEWTON_RADIUS", 0.0)

    @pytest.mark.parametrize("scheme", ["loo", "osa"])
    def test_a_rejected_step_refits_from_two_starts_bit_for_bit(self, monkeypatch, scheme):
        # the fold error of a rejected step is the two-start refit's prediction error
        data = _wiggle()
        full = selection.fit_ml(data, 0, "M52", FitOptions(restarts=7)).theta
        wants = []
        for train, i in selection._folds(data.n, scheme):
            head = Dataset(data.ts[train], data.ys[train])
            fit = selection.fit_ml(head, 0, "M52", FitOptions(restarts=2, warm_theta=full))
            assert len(fit.start_logliks) + fit.n_failed_restarts == 2
            wants.append((data.ys[i] - marginal_moments(head, fit.theta, [data.ts[i]]).mu_f[0]) ** 2)

        self._reject_every_step(monkeypatch)
        starts = []  # starts run by each fit_ml call
        real = selection.fit_ml

        def fit_ml(d, degree, family, opts=None):
            fit = real(d, degree, family, opts)
            starts.append(len(fit.start_logliks) + fit.n_failed_restarts)
            return fit

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        for (train, i), want in zip(selection._folds(data.n, scheme), wants):
            error, fell_back = selection._fold_error(data, full, train, i)
            assert fell_back
            assert np.asarray(error).tobytes() == np.asarray(want).tobytes()
        assert starts == [2] * len(wants)

    @pytest.mark.parametrize("scheme", ["loo", "osa"])
    def test_fold_fallbacks_count_the_rejected_steps(self, monkeypatch, scheme):
        data = _wiggle()
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        n_folds = len(selection._folds(data.n, scheme))
        result = select_model(data, grid, scheme=scheme, opts=_fast_opts())
        assert all(0 <= s.fold_fallbacks <= n_folds for s in result.scores)
        self._reject_every_step(monkeypatch)
        result = select_model(data, grid, scheme=scheme, opts=_fast_opts())
        for s in result.scores:
            assert not s.failed
            assert s.fold_fallbacks == (0 if s.screened else n_folds)

    @pytest.mark.parametrize("degree, family", [(0, "SE"), (1, "M52"), (0, "RQ")])
    def test_an_accepted_step_gains_within_the_radius(self, degree, family):
        # RQ on an exponential climb keeps a finite nu: four log coordinates
        data = _exp_climb() if family == "RQ" else _wiggle(n=14, seed=2)
        full = selection.fit_ml(data, degree, family, _fast_opts()).theta
        assert full.kernel.family == family
        space = _ModelSpace.of(full)
        z0 = np.log([space.values(full)[n] for n in space.positive])
        accepted = 0
        for train, _ in selection._folds(data.n, "loo"):
            head = Dataset(data.ts[train], data.ys[train])
            theta = selection._newton_fold(head, full)
            if theta is None:
                continue
            accepted += 1
            evaluate = _LogObjective(head, space)
            z = np.log([space.values(theta)[n] for n in space.positive])
            assert np.max(np.abs(z - z0)) <= selection._NEWTON_RADIUS
            assert evaluate(z)[0] > evaluate(z0)[0]
            # it meets fit_ml's convergence rule
            assert evaluate.converged(z, evaluate(z)[2])
            # the step's mean coefficients are the GLS ones at its kernel and noise
            assert theta.mean.coefficients == evaluate(z)[1]
        assert accepted >= data.n // 2

    @pytest.mark.parametrize("shift, accepted", [(0.0, True), (-1.0, False), (1.0, False)])
    def test_the_gain_ratio_guards_the_step(self, monkeypatch, shift, accepted):
        # The value at the first step is moved by `shift` nats.  The step gains
        # about 0.02 nats on this fold, so a 1-nat error in either direction
        # takes the ratio far out of [0.5, 1.5].  Unshifted, a second step
        # meets the convergence rule.
        data = _wiggle(n=14, seed=2)
        full = selection.fit_ml(data, 0, "SE", _fast_opts()).theta
        head = Dataset(data.ts[1:], data.ys[1:])
        calls = []
        real = _LogObjective.__call__

        def shifted(self, z):
            out = real(self, z)
            calls.append(z)
            if len(calls) == 5:  # value and gradient, three differences, then the step
                out = (out[0] + shift, *out[1:])
            return out

        monkeypatch.setattr(_LogObjective, "__call__", shifted)
        assert (selection._newton_fold(head, full) is not None) == accepted
        assert len(calls) == (9 if accepted else 5)

    def test_steps_that_stop_short_of_the_optimum_fall_back(self, monkeypatch):
        # the fold above needs two steps to meet the convergence rule
        data = _wiggle(n=14, seed=2)
        full = selection.fit_ml(data, 0, "SE", _fast_opts()).theta
        head = Dataset(data.ts[1:], data.ys[1:])
        assert selection._newton_fold(head, full) is not None
        monkeypatch.setattr(selection, "_NEWTON_STEPS", 1)
        assert selection._newton_fold(head, full) is None

    def test_an_rq_step_past_nu_divergence_falls_back(self, monkeypatch):
        # fit_ml refits such a fold under SE, so the step does not stand for it
        data = _exp_climb()
        full = selection.fit_ml(data, 0, "RQ", _fast_opts()).theta
        heads = [Dataset(data.ts[train], data.ys[train]) for train, _ in selection._folds(data.n, "loo")]
        accepted = [h for h in heads if selection._newton_fold(h, full) is not None]
        assert accepted
        monkeypatch.setattr(selection, "NU_DIVERGENCE", 0.5 * full.kernel.nu)
        assert all(selection._newton_fold(h, full) is None for h in accepted)

    @pytest.mark.parametrize("alpha", [1e8, 1e-100], ids=["cap", "floor"])
    def test_an_optimum_on_the_box_bound_falls_back(self, monkeypatch, alpha):
        # alpha at fit_ml's cap or floor: the step is rejected before any evaluation
        def refuse(self, z):
            raise AssertionError("the likelihood was evaluated")

        monkeypatch.setattr(_LogObjective, "__call__", refuse)
        data = _wiggle()
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", alpha, 1.0), 0.3)
        assert selection._newton_fold(Dataset(data.ts[1:], data.ys[1:]), theta) is None


class TestOneFoldPool:
    """A one-step-ahead selection forks one pool: it runs the leader's folds,
    then, in the same workers, each survivor's folds.  Leave-one-out folds
    fork nothing."""

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

    def test_leave_one_out_constructs_no_process_pool(self, monkeypatch):
        pools, runs = self._counted(monkeypatch)
        data = _wiggle()
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        assert not any(s.failed for s in select_model(data, grid, opts=_fast_opts()).scores)
        assert loo_mspe(data, 0, "SE", _fast_opts()) > 0
        assert (pools, runs) == ([], [])

    def test_one_pool_per_osa_selection(self, monkeypatch):
        # one-step-ahead folds hold out rows 3 to n - 1; no candidate is screened
        pools, runs = self._counted(monkeypatch)
        data = _wiggle()
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        result = select_model(data, grid, scheme="osa", opts=_fast_opts())
        assert not any(s.screened or s.failed for s in result.scores)
        assert (len(pools), runs) == (1, [9 - 3] * 4)
        assert osa_mspe(data, 0, "SE", opts=_fast_opts()) > 0
        assert (len(pools), runs) == (2, [9 - 3] * 5)

    def test_pooled_equals_serial_with_a_failing_candidate(self, monkeypatch):
        # 1:SE fails its refits in the folds trained on the first 4 and 6
        # rows, which reject the step: the worker's FitError reports the
        # first of them, and the other candidates are refit in the same pool
        data = _wiggle()
        real_fit, real_step = selection.fit_ml, selection._newton_fold

        def fails(d, degree, family):
            return (degree, family) == (1, "SE") and d.n in (4, 6)

        def fit_ml(d, degree, family, opts):
            if fails(d, degree, family):
                raise FitError(f"no SE fit on the first {d.n} rows")
            return real_fit(d, degree, family, opts)

        def newton_fold(head, full_theta):
            return None if fails(head, full_theta.mean.degree, full_theta.kernel.family) else real_step(head, full_theta)

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        monkeypatch.setattr(selection, "_newton_fold", newton_fold)
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        _cpus(monkeypatch, 1)
        serial = select_model(data, grid, scheme="osa", opts=_fast_opts())
        pools, runs = self._counted(monkeypatch)
        pooled = select_model(data, grid, scheme="osa", opts=_fast_opts())
        assert (len(pools), runs) == (1, [9 - 3] * 4)
        assert pooled.scores == serial.scores
        for a, b in zip(pooled.scores, serial.scores):
            assert np.asarray(a.mspe, dtype=float).tobytes() == np.asarray(b.mspe, dtype=float).tobytes()
        others = list(pooled.scores)
        se = others.pop(2)
        assert se.failed and se.mspe is None and se.fit is None
        assert se.error == "no SE fit on the first 4 rows"
        assert all(not (s.failed or s.screened) and s.fit is not None for s in others)
        assert pooled.winner == min(others, key=lambda s: s.mspe)

    def test_a_failing_leader_refits_every_other_candidate(self, monkeypatch):
        # the leader, 1:SE, fails its refits in the folds that leave out
        # observations 2 and 5: it reports the first of them, and every other
        # candidate is refit, the M52 ones that the screen would drop included
        data = _wiggle()
        real_fit, real_step = selection.fit_ml, selection._newton_fold

        def missing(d):
            return [i for i, t in enumerate(data.ts) if t not in d.ts]

        def fails(d, degree, family):
            return (degree, family) == (1, "SE") and missing(d) and missing(d)[0] in (2, 5)

        def fit_ml(d, degree, family, opts):
            if fails(d, degree, family):
                raise FitError(f"no SE fit without observation {missing(d)[0]}")
            return real_fit(d, degree, family, opts)

        def newton_fold(head, full_theta):
            # the failing folds reject the step, so they run the refit that fails
            return None if fails(head, full_theta.mean.degree, full_theta.kernel.family) else real_step(head, full_theta)

        monkeypatch.setattr(selection, "fit_ml", fit_ml)
        monkeypatch.setattr(selection, "_newton_fold", newton_fold)
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        result = select_model(data, grid, opts=_fast_opts())
        others = list(result.scores)
        se = others.pop(2)
        assert se.failed and se.mspe is None and se.fit is None
        assert se.error == "no SE fit without observation 2"
        assert all(not (s.failed or s.screened) and s.fit is not None for s in others)
        assert result.winner == min(others, key=lambda s: s.mspe)
        # without the failure 1:SE leads in closed form, and the screen drops a candidate
        monkeypatch.undo()
        unfailed = select_model(data, grid, opts=_fast_opts())
        closed = [loo_mspe(data, s.degree, s.family, fixed_theta=s.fit.theta) for s in unfailed.scores]
        assert int(np.argmin(closed)) == 2
        assert any(s.screened for s in unfailed.scores)

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
        opts = _fast_opts()
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
