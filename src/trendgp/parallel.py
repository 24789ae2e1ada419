"""Independent work units mapped over forked worker processes.

`fork_map` serves the loops whose iterations share nothing: study
replicates, cross-validation folds, MCMC chains and blocks of posterior
draws.  Each unit owns its seed and its data, so the results do not depend
on which process computes them or in what order.

The workers are forked, not spawned: they inherit the mapped function and
its items from the parent's memory, so neither is pickled and a function
that cannot be pickled (a closure, or a module function replaced by a
wrapper) maps as well as any other.  Only item indices go to the workers
and only results come back.  A spawned worker would re-import the package
and pay its start-up cost once per call.
"""

from __future__ import annotations

import os

# (fn, items) of the running call, inherited by its workers at the fork.
_work: tuple | None = None
# True in a pool worker: a nested call runs serially there.
_in_worker = False


def _openblas(verb: str) -> list:
    """`openblas_<verb>_num_threads` of each OpenBLAS loaded in this process.

    Linux only; elsewhere, or for another BLAS, the list is empty.  numpy and
    scipy wheels each bundle their own OpenBLAS, with prefixed symbol names.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    funcs = []
    for path in sorted({f[5].strip() for f in fields if len(f) > 5 and "openblas" in f[5]}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [f"{pre}openblas_{verb}_num_threads{suf}" for pre in ("", "scipy_") for suf in ("", "64_")]
        funcs += [getattr(lib, name) for name in names if hasattr(lib, name)][:1]
    return funcs


def one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    Pool workers call it because the workers already fill the CPUs: a
    multithreaded BLAS in each one would oversubscribe them, and OpenBLAS
    threads spin while they wait.  The CLI calls it because at n in the
    hundreds a multithreaded BLAS makes serial fits slower and its results
    depend on the thread count (`np.linalg.cholesky` and `eigh` round
    differently), so report digests would depend on the machine.
    """
    for set_threads in _openblas("set"):
        set_threads(1)


def _init_worker() -> None:
    global _in_worker
    _in_worker = True
    one_blas_thread()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run(i: int):
    fn, items = _work
    return fn(*items[i])


def fork_map(fn, items) -> list:
    """`[fn(*x) for x in items]`, computed by up to one forked worker per usable CPU.

    The worker count is min(CPUs in this process's affinity mask, items).
    With one worker, on a platform without `fork`, or inside a worker, the
    loop runs serially in this process.  An exception raised by `fn`
    reaches the caller with its type and message; a worker that dies
    raises `concurrent.futures.process.BrokenProcessPool`.
    """
    global _work
    items = list(items)
    workers = min(_usable_cpus(), len(items))
    if workers < 2 or _in_worker:
        return [fn(*x) for x in items]
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    _work = (fn, items)
    try:
        # Unlike multiprocessing.Pool, the executor raises BrokenProcessPool
        # when a worker dies (say, killed for memory) instead of waiting forever.
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_init_worker) as pool:
            return list(pool.map(_run, range(len(items))))
    finally:
        _work = None
