"""fork_map and fork_pool, and the pooled loops against their serial runs, bit for bit.

The worker count comes from the CPU affinity mask, so the fixtures pin it:
`two_cpus` forces a pool whatever the machine has, `one_cpu` forces the
serial loop.
"""

import os
import zlib

import numpy as np
import pytest

from trendgp import parallel, simulation
from trendgp.cli import main
from trendgp.estimation import (
    FitOptions,
    McmcError,
    McmcOptions,
    _ml_workspace,
    _profile_mll,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
)
from trendgp.kernels import KernelSpec, MeanSpec
from trendgp.parallel import _openblas, fork_map, fork_pool
from trendgp.posterior import Dataset, Hyperparams
from trendgp.selection import CandidateGrid, loo_mspe, select_model
from trendgp.simulation import Scenario, run_study


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    _cpus(monkeypatch, 2)


@pytest.fixture
def one_cpu(monkeypatch):
    _cpus(monkeypatch, 1)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestForkMap:
    def test_order_preserved_and_work_forked(self, two_cpus):
        # a lambda cannot be pickled: fork_map must not try
        out = fork_map(lambda a, b: (a * b, os.getpid()), [(i, i + 1) for i in range(9)])
        assert [v for v, _ in out] == [i * (i + 1) for i in range(9)]
        assert os.getpid() not in {pid for _, pid in out}

    def test_worker_exception_reaches_caller(self, two_cpus):
        def unit(i):
            if i == 2:
                raise McmcError(f"chain {i} failed")
            return i

        with pytest.raises(McmcError, match=r"^chain 2 failed$"):
            fork_map(unit, [(i,) for i in range(4)])

    def test_dead_worker_raises(self, two_cpus):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            fork_map(lambda i: os._exit(1) if i == 1 else i, [(i,) for i in range(3)])

    def test_workers_use_one_blas_thread(self, two_cpus, blas_threads):
        blas_threads(2)
        per_worker = fork_map(lambda i: [get() for get in _openblas("get")], [(0,), (1,)])
        assert per_worker == [[1] * len(_openblas("get"))] * 2

    def test_one_cpu_runs_serially(self, one_cpu):
        out = fork_map(lambda i: (i, os.getpid()), [(i,) for i in range(4)])
        assert out == [(i, os.getpid()) for i in range(4)]

    def test_nested_call_runs_serially_in_the_worker(self, two_cpus):
        def outer(i):
            inner = fork_map(lambda j: os.getpid(), [(j,) for j in range(3)])
            return os.getpid(), inner

        for pid, inner in fork_map(outer, [(i,) for i in range(3)]):
            assert pid != os.getpid()
            assert inner == [pid] * 3

    def test_empty_items(self, two_cpus):
        assert fork_map(lambda i: i, []) == []

    def test_wrapped_module_function(self, two_cpus, monkeypatch):
        # An outside-in tracer replaces module functions with closures; the
        # pooled replicate loop must map the wrapper without pickling it.
        scenario = Scenario(n=6, sigma=0.1, reps=3, seed=4, restarts=2, grid_size=21)
        want = run_study([scenario]).to_csv()
        real = simulation._replicate
        calls = []

        def traced(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(simulation, "_replicate", traced)
        assert run_study([scenario]).to_csv() == want
        assert calls == []  # the wrapper ran in the workers, not here


class TestForkPool:
    def test_runs_share_one_set_of_workers(self, two_cpus):
        with fork_pool(lambda i: (i, os.getpid()), [(i,) for i in range(8)]) as run:
            first = run(range(4))
            second = run([7, 5, 6, 4])
        assert [i for i, _ in first + second] == [0, 1, 2, 3, 7, 5, 6, 4]
        pids = {pid for _, pid in first + second}
        assert len(pids) <= 2 and os.getpid() not in pids

    def test_workers_are_counted_at_the_first_run_that_can_use_two(self, monkeypatch):
        # eight CPUs: a one-index run computes here, the next run forks three
        # workers, and a six-index run after it reuses those three
        import concurrent.futures

        sizes = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        _cpus(monkeypatch, 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        with fork_pool(lambda i: os.getpid(), [(i,) for i in range(6)]) as run:
            assert run([0]) == [os.getpid()] and sizes == []
            pids = set(run([1, 2, 3]) + run(range(6)))
        assert sizes == [3]
        assert len(pids) <= 3 and os.getpid() not in pids

    def test_one_cpu_runs_serially(self, one_cpu):
        with fork_pool(lambda i: (i, os.getpid()), [(i,) for i in range(4)]) as run:
            assert run([2, 0]) == [(2, os.getpid()), (0, os.getpid())]
            assert run([3]) == [(3, os.getpid())]

    def test_nested_pool_runs_serially_in_the_worker(self, two_cpus):
        def outer(i):
            with fork_pool(lambda j: os.getpid(), [(j,) for j in range(3)]) as run:
                return os.getpid(), run(range(3)) + run([0])

        for pid, inner in fork_map(outer, [(i,) for i in range(3)]):
            assert pid != os.getpid()
            assert inner == [pid] * 4

    def test_worker_exception_reaches_caller(self, two_cpus):
        def unit(i):
            if i == 3:
                raise McmcError(f"chain {i} failed")
            return i

        with fork_pool(unit, [(i,) for i in range(4)]) as run:
            assert run([0, 1]) == [0, 1]
            with pytest.raises(McmcError, match=r"^chain 3 failed$"):
                run([2, 3])

    def test_parent_sets_no_work_global(self, two_cpus):
        # the workers get (fn, items) at the fork: the parent's global stays unset
        with fork_pool(lambda i: parallel._work is not None, [(i,) for i in range(4)]) as run:
            assert run(range(2)) == [True, True]
            assert parallel._work is None
            assert run(range(2, 4)) == [True, True]
        assert parallel._work is None
        assert fork_map(lambda i: i, [(0,), (1,)]) == [0, 1] and parallel._work is None


def _series(n, seed):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 2.0, n)
    return Dataset(ts, np.sin(2.0 * ts) + rng.normal(0.0, 0.15, n))


def _serial_and_pooled(monkeypatch, run):
    _cpus(monkeypatch, 1)
    serial = run()
    _cpus(monkeypatch, 2)
    return serial, run()


class TestPooledEqualsSerial:
    def test_run_study_csv(self, monkeypatch):
        scenarios = [
            Scenario(n=8, sigma=0.2, reps=4, seed=3, restarts=2, grid_size=31),
            Scenario(n=10, sigma=0.05, reps=3, seed=3, restarts=2, grid_size=31),
        ]
        serial, pooled = _serial_and_pooled(monkeypatch, lambda: run_study(scenarios).to_csv())
        assert pooled == serial

    def test_loo_mspe(self, monkeypatch):
        data = _series(7, 1)
        serial, pooled = _serial_and_pooled(
            monkeypatch, lambda: loo_mspe(data, 0, "SE", FitOptions(restarts=4, seed=2)))
        assert _bits(pooled) == _bits(serial)

    def test_select_model_osa(self, monkeypatch):
        data = _series(9, 5)
        grid = CandidateGrid(degrees=(0, 1), families=("SE", "M52"))
        serial, pooled = _serial_and_pooled(
            monkeypatch, lambda: select_model(data, grid, scheme="osa", opts=FitOptions(restarts=4, seed=2)))
        assert all(not s.failed for s in serial.scores)
        assert _bits([s.mspe for s in pooled.scores]) == _bits([s.mspe for s in serial.scores])
        assert pooled.winner == serial.winner

    def test_select_model_with_a_survivor(self, monkeypatch):
        # select-small input 1001: 0:M52 survives the screen, so its folds
        # run after the leader's, in the same workers
        ts = np.linspace(0.0, 1.0, 12)
        noise = np.random.default_rng([1001, zlib.crc32(b"select-small")]).standard_normal(12)
        data = Dataset(ts, 1000.0 * (np.sin(3.0 * np.pi * ts) + 0.6 * ts) + 50.0 * noise)
        grid = CandidateGrid(degrees=(0,), families=("SE", "M52"))
        serial, pooled = _serial_and_pooled(
            monkeypatch, lambda: select_model(data, grid, opts=FitOptions(restarts=4, seed=1001)))
        assert not any(s.failed or s.screened for s in serial.scores)
        assert pooled.scores == serial.scores
        assert _bits([s.mspe for s in pooled.scores]) == _bits([s.mspe for s in serial.scores])

    @pytest.fixture(scope="class")
    def bayes_case(self):
        data = _series(10, 2)
        theta = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.6), 0.2)
        return data, default_priors(theta)

    def test_fit_bayes_and_index_posterior(self, monkeypatch, bayes_case):
        data, priors = bayes_case
        grid = np.linspace(0.0, 2.0, 21)
        intervals = ((0.0, 1.0), (0.5, 2.0))

        def run():
            samples = fit_bayes(data, 0, "SE", priors=priors,
                                opts=McmcOptions(chains=2, iters=400, seed=7))
            # 100 of the 400 kept draws: several blocks of the index pass
            idx = index_posterior(data, samples, grid, intervals=intervals, max_draws=100)
            return samples, idx

        (s1, i1), (s2, i2) = _serial_and_pooled(monkeypatch, run)
        assert _bits(s2.draws) == _bits(s1.draws)
        assert _bits(s2.acceptance) == _bits(s1.acceptance)
        for name in ("tdi", "local_eti", "eti"):
            assert _bits(getattr(i2, name)) == _bits(getattr(i1, name)), name
        for name in ("mu_f", "var_f", "mu_df", "var_df", "noise_var"):
            assert _bits(getattr(i2, name)) == _bits(getattr(i1, name))
        assert (i2.n_used, i2.skipped_fraction) == (i1.n_used, i1.skipped_fraction)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_chain_initialization_failure(self, monkeypatch, bayes_case, cpus):
        # alpha fixed at 0 makes every proposed kernel invalid
        data, priors = bayes_case
        _cpus(monkeypatch, cpus)
        with pytest.raises(McmcError, match=r"^non-finite posterior density at initialization$"):
            fit_bayes(data, 0, "SE", priors=priors,
                      opts=McmcOptions(chains=2, iters=100, fixed={"alpha": 0.0}))


@pytest.fixture
def blas_threads():
    """Sets the OpenBLAS thread count of every loaded OpenBLAS; restores it after."""
    if not _openblas("set"):
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get in _openblas("get")]

    def set_to(k):
        for set_threads in _openblas("set"):
            set_threads(k)

    yield set_to
    for set_threads, k in zip(_openblas("set"), before):
        set_threads(k)


def test_cli_runs_with_one_blas_thread(blas_threads, tmp_path):
    blas_threads(2)
    data = _series(12, 4)
    path = tmp_path / "series.csv"
    path.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in zip(data.ts.tolist(), data.ys.tolist())))
    assert main(["fit", str(path), "--out", str(tmp_path / "out"), "--model", "0:SE",
                 "--restarts", "1", "--no-eti", "--grid", "20"]) == 0
    assert [get() for get in _openblas("get")] == [1] * len(_openblas("get"))


@pytest.mark.parametrize("n", [7, 50, 90])
def test_ml_fit_is_blas_thread_invariant(blas_threads, n):
    # Pooled folds run with one BLAS thread and serial ones with all of them,
    # so the profile gradient and the fit must not depend on the count.
    data = _series(n, 3)
    design = np.vander(data.ts, 2, increasing=True)
    runs = []
    for threads in (1, 2):
        blas_threads(threads)
        ll, betas, grad = _profile_mll(data, design, KernelSpec("M52", 0.8, 0.4), 0.1, _ml_workspace(data.n))
        fit = fit_ml(data, 1, "RQ", FitOptions(restarts=2, seed=5))
        k = fit.theta.kernel
        runs.append((_bits([ll, *betas, *grad]),
                     _bits([fit.loglik, k.alpha, k.rho, k.nu, fit.theta.sigma, *fit.theta.mean.coefficients])))
    assert runs[1] == runs[0]
