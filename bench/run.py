"""trendgp benchmark: the CLI on four workloads, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --steady 10          # ten seeds per workload, quartiles

Run from the root of a checkout.  Every CLI invocation runs in a fresh
interpreter (bench/worker.py) with trendgp imported from `src`, so each one
pays the first-use costs a user pays.  The load comes from this single
process, one invocation at a time (a closed loop with one client), with the
BLAS thread count pinned.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import CheckError, check_report, check_study, load_schema, output_bytes
from tracer import layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# Report digests of earlier runs in this checkout, keyed by a hash of the
# code, so a later run of the same code on the same input must match.
DIGESTS = os.path.join(WORK_ROOT, "digests.json")

BLAS_THREADS = 1
THREAD_ENV = {k: str(BLAS_THREADS) for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_ONLY_RUNS = 1  # an interpreter that only sets up: warms caches, adds a setup_s sample
DEADLINE_S = 170.0  # a run must end within 180 s
# Quality metrics exist only where the workload produces them; elsewhere the
# result line carries this constant so that it always names every metric.
NOT_APPLICABLE = 1.0
QUALITY = ("ml_loglik", "rhat_max", "study_l2_tdi")


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):  # a checkout may be a plain copy
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "commit": commit,
    }


def source_hash() -> str:
    """Digest of the package and of this benchmark, which makes the inputs."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "trendgp"), HERE):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _load_digests() -> dict:
    try:
        with open(DIGESTS, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_digests(known: dict) -> None:
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=0, sort_keys=True)
    os.replace(tmp, DIGESTS)


class Run:
    """One benchmark run of one workload: its invocations and their checks."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.schema = load_schema()
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
        self.deadline = time.monotonic() + DEADLINE_S
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_ROOT)
        self.setups: list[float] = []
        self.records: list[dict] = []  # one per CLI invocation
        self.failures: list[str] = []
        self.code = source_hash()
        self.known = _load_digests()

    def data_seed(self, dataset: int) -> int:
        return self.seed * 1000 + dataset if self.workload.seeded else dataset

    def _fail(self, dataset: int, trace: bool, setup_only: bool, why: str) -> None:
        self.failures.append(f"dataset {dataset}: {why}")
        if not setup_only:
            self.records.append({"dataset": dataset, "traced": trace, "failed": True})
        return None

    def invoke(self, dataset: int, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Run the worker once; returns its checked record, or None on failure."""
        d = tempfile.mkdtemp(dir=self.work)
        cmd = [sys.executable, WORKER, "--workload", self.workload.name,
               "--data-seed", str(self.data_seed(dataset)), "--work-dir", d]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return self._fail(dataset, trace, setup_only, "run deadline passed")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            return self._fail(dataset, trace, setup_only, "worker timed out")
        try:
            with open(os.path.join(d, "result.json"), "r", encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            rec = None
        if proc.returncode != 0 or rec is None:
            return self._fail(dataset, trace, setup_only,
                              f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        rec["setup_s"] = rec["ready"] - spawned
        self.setups.append(rec["setup_s"])
        if not os.path.abspath(rec["trendgp_file"]).startswith(SRC + os.sep):
            raise RuntimeError(f"trendgp was imported from {rec['trendgp_file']}, not {SRC}")
        if setup_only:
            return rec
        rec["dataset"], rec["traced"] = dataset, trace
        try:
            if trace:
                with open(os.path.join(d, "trace.json"), "r", encoding="utf-8") as fh:
                    rec["trace"] = json.load(fh)
            if rec["exit"] != 0:
                raise CheckError(f"CLI exited {rec['exit']}: {rec['error'] or proc.stderr[-2000:]}")
            if self.workload.command == "simulate":
                out = os.path.join(d, "study.csv")
                reps = int(self.workload.cli_args[self.workload.cli_args.index("--reps") + 1])
                rec.update(check_study(out, reps))
            else:
                out = os.path.join(d, "report")
                rec.update(check_report(os.path.join(out, "report.json"), self.schema))
            rec["bytes_written"] = output_bytes(out)
            key = f"{self.code}:{self.workload.name}:{self.data_seed(dataset)}"
            first = self.known.setdefault(key, rec["digest"])
            if rec["digest"] != first:
                raise CheckError(f"digest {rec['digest']} differs from {first}, which an "
                                 "earlier run of the same code on the same input gave")
        except (CheckError, OSError, KeyError, ValueError) as exc:
            self.failures.append(f"dataset {dataset}: {exc}")
            rec["failed"] = True
        self.records.append(rec)
        shutil.rmtree(d, ignore_errors=True)
        return rec

    def execute(self, seconds: float) -> None:
        for _ in range(SETUP_ONLY_RUNS):
            self.invoke(0, setup_only=True)
        if self.trace:
            # The same input untraced and traced: the digests must agree, and
            # the wall difference is the tracing overhead.
            self.invoke(0)
            self.invoke(0, trace=True)
            return
        # Every input once, then further passes over them while the expected
        # finish of the next invocation stays within `seconds`.
        k = self.workload.datasets
        start = time.monotonic()
        i = 0
        while i < k or time.monotonic() - start < seconds * i / (i + 1):
            self.invoke(i % k)
            i += 1

    def timed(self) -> list[dict]:
        """Invocations whose worker finished, whether or not their output passed."""
        return [r for r in self.records if "wall_s" in r]

    def per_dataset(self, key: str) -> float | None:
        """Mean over the run's inputs of each input's untraced median of `key`."""
        by = {}
        for r in self.timed():
            if not r["traced"] and key in r:
                by.setdefault(r["dataset"], []).append(r[key])
        if not by:
            return None
        return statistics.fmean(statistics.median(v) for v in by.values())

    def end_to_end(self) -> dict:
        return {
            "wall_s": self.per_dataset("wall_s"),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.timed()),
            "ml_loglik": self.per_dataset("ml_loglik"),
            "rhat_max": self.per_dataset("rhat_max"),
            "study_l2_tdi": self.per_dataset("study_l2_tdi"),
        }

    def layers(self) -> dict:
        traced = next((r for r in self.timed() if "trace" in r), None)
        if traced is None:
            raise RuntimeError("the traced invocation did not finish:\n" + "\n".join(self.failures))
        m = layer_metrics(traced["trace"])
        m["process.cpu_s"] = traced["cpu_s"]
        m["reporting.bytes_written"] = traced.get("bytes_written", 0)
        m["trace.overhead_s"] = traced["wall_s"] - self.per_dataset("wall_s")
        m["trace.coverage"] = 1.0 - m["trace.unattributed_s"] / traced["wall_s"]
        if m["trace.coverage"] < 0.95:
            self.failures.append(f"named spans cover {m['trace.coverage']:.3f} of wall, below 0.95")
        return m

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        _save_digests(self.known)


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, Run]:
    run = Run(workload, seed, trace)
    try:
        run.execute(seconds)
        if not run.timed():
            raise RuntimeError("no invocation finished:\n" + "\n".join(run.failures))
        values = run.layers() if trace else run.end_to_end()
    finally:
        run.close()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        v = values.get(m["name"])
        metrics[m["name"]] = {"value": NOT_APPLICABLE if v is None else v, "unit": m["unit"]}
    failed = sum(1 for r in run.records if r.get("failed"))
    result = {"correct": not run.failures, "attempted": len(run.records),
              "failed": failed, "metrics": metrics}
    return result, run


def print_run(result: dict, run: Run) -> None:
    print(f"== {run.workload.name} seed={run.seed} trace={int(run.trace)}")
    for r in run.timed():
        print(f"  dataset {r['dataset']}{' traced' if r['traced'] else ''}: "
              f"wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
              f"sha256 {r.get('digest', 'n/a')}{' FAILED' if r.get('failed') else ''}")
    for f in run.failures:
        print(f"  FAILED {f}")
    for name, m in result["metrics"].items():
        na = not run.trace and name in QUALITY and run.per_dataset(name) is None
        print(f"  {name:45s} {'n/a' if na else format(m['value'], '.6g'):>14s} {m['unit']}")
    print(f"  error_rate {result['failed'] / result['attempted']:.3f} "
          f"({result['failed']} of {result['attempted']} invocations failed)")


def steady(workloads, seeds, seconds, spec) -> int:
    """Repeat each workload over seeds; print median and quartiles per metric."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, run = run_workload(w, seed, seconds, False, spec)
            print(f"{w.name} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + ("" if result["correct"] else " INCORRECT"), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w.name}: {len(seeds)} seeds")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[k]["bound"]
            if k != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {k:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}"
                  + ("  above bound/3" if spread > bound / 3 else ""))
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run N seeds (from --seed on) per workload untraced and print quartiles")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "trendgp", "cli.py")):
        print(f"error: no trendgp sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    spec = _load_benchmark()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    print(json.dumps({"machine": machine_info()}), flush=True)
    if args.steady:
        return steady(chosen, list(range(args.seed, args.seed + args.steady)), seconds, spec)

    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    for w in chosen:
        for trace in traces:
            result, run = run_workload(w, args.seed, seconds, trace, spec)
            print_run(result, run)
            results[(w.name, trace)] = result
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({f"{name}{' trace' if t else ''}": r for (name, t), r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
