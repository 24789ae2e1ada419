"""fork_map, and the pooled loops against their serial runs, bit for bit.

The worker count comes from the CPU affinity mask, so the fixtures pin it:
`two_cpus` forces a pool whatever the machine has, `one_cpu` forces the
serial loop.
"""

import os

import numpy as np
import pytest

from trendgp import simulation
from trendgp.estimation import (
    FitOptions,
    McmcError,
    McmcOptions,
    _profile_mll,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
)
from trendgp.kernels import KernelSpec, MeanSpec
from trendgp.parallel import _openblas, fork_map
from trendgp.posterior import Dataset, Hyperparams
from trendgp.selection import loo_mspe
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

    def test_workers_use_one_blas_thread(self, two_cpus):
        if not _openblas("get"):
            pytest.skip("no OpenBLAS loaded")
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
            idx = index_posterior(data, samples, grid, 1.0, intervals=intervals, max_draws=100)
            return samples, idx

        (s1, i1), (s2, i2) = _serial_and_pooled(monkeypatch, run)
        assert _bits(s2.draws) == _bits(s1.draws)
        assert _bits(s2.acceptance) == _bits(s1.acceptance)
        assert _bits(i2.tdi.values) == _bits(i1.tdi.values)
        assert _bits(i2.local_eti.values) == _bits(i1.local_eti.values)
        for iv in intervals:
            assert _bits(i2.eti_draws[iv]) == _bits(i1.eti_draws[iv])
            assert i2.eti_quantiles(iv) == i1.eti_quantiles(iv)
        for name in ("mu_f", "var_f", "mu_df", "var_df", "noise_var"):
            assert _bits(getattr(i2.level, name)) == _bits(getattr(i1.level, name))
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


@pytest.mark.parametrize("n", [7, 50, 90])
def test_ml_fit_is_blas_thread_invariant(blas_threads, n):
    # Pooled folds run with one BLAS thread and serial ones with all of them,
    # so the profile gradient and the fit must not depend on the count.
    data = _series(n, 3)
    design = np.vander(data.ts, 2, increasing=True)
    runs = []
    for threads in (1, 2):
        blas_threads(threads)
        ll, betas, grad = _profile_mll(data, design, KernelSpec("M52", 0.8, 0.4), 0.1)
        fit = fit_ml(data, 1, "RQ", FitOptions(restarts=2, seed=5))
        k = fit.theta.kernel
        runs.append((_bits([ll, *betas, *grad]),
                     _bits([fit.loglik, k.alpha, k.rho, k.nu, fit.theta.sigma, *fit.theta.mean.coefficients])))
    assert runs[1] == runs[0]
