"""Independent work units mapped over forked worker processes.

`fork_map` serves the loops whose iterations share nothing: study
replicates, MCMC chains and blocks of posterior draws.  `fork_pool` runs
one set of units in stages, as a selection's fold refits are run: every
stage uses the same workers.  Each unit owns its seed and its data, so the
results do not depend on which process computes them or in what order.

The workers are forked, not spawned: they get the mapped function and its
items at the fork, as the executor's initializer arguments, unpickled, so
a closure or a module function replaced by a wrapper maps as well as any
other.  Then only item indices go to the workers and only results return.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager

# The (fn, items) of a pool worker's pool, set at the fork.  None outside a
# worker; inside one, a nested call runs serially.
_work: tuple | None = None


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


def _init_worker(fn, items) -> None:
    global _work
    _work = (fn, items)
    one_blas_thread()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run(i: int):
    fn, items = _work
    return fn(*items[i])


@contextmanager
def fork_pool(fn, items):
    """Yields `run(indices)`, which returns `[fn(*items[i]) for i in indices]`.

    Every `run` in one `with` block shares the workers forked by the first
    `run` that can use two: min(CPUs in the affinity mask, its indices).
    With one worker, without `fork`, or inside a worker, `run` computes
    serially in this process.  An exception raised by `fn` reaches the
    caller with its type and message; a worker that dies raises
    `concurrent.futures.process.BrokenProcessPool`.
    """
    items, pools = list(items), []  # the executor, once a run can use two workers

    def run(indices) -> list:
        workers = min(_usable_cpus(), len(indices))
        if not pools and workers >= 2 and _work is None:
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures import ProcessPoolExecutor
                # Unlike multiprocessing.Pool, the executor raises BrokenProcessPool
                # when a worker dies (say, killed for memory) instead of waiting forever.
                pools.append(stack.enter_context(ProcessPoolExecutor(
                    workers, multiprocessing.get_context("fork"), initializer=_init_worker, initargs=(fn, items))))
        if not pools:
            return [fn(*items[i]) for i in indices]
        return list(pools[0].map(_run, indices))

    with ExitStack() as stack:
        yield run


def fork_map(fn, items) -> list:
    """`[fn(*x) for x in items]`: one `fork_pool` and one `run` over every item."""
    items = list(items)
    with fork_pool(fn, items) as run:
        return run(range(len(items)))
