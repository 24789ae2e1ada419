"""Outside-in tracing of trendgp: spans around each module's callables.

The package is not instrumented.  `Tracer.install` replaces a callable by a
timing wrapper under every name that holds it in any `trendgp.*` namespace,
because modules import each other by name (`from .kernels import
kernel_gram`) and patching only the defining module would miss those calls.
Each span records its name, start, end, parent span and the namespace the
call went through; all spans of one run share a run id.  Spans stay in
memory and are written out once, when the run ends.

`layer_metrics` turns a run's spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("dataio.read_timeseries", "trendgp.dataio", "read_timeseries"),
    ("reporting.run_fit", "trendgp.reporting", "run_fit"),
    ("reporting.write", "trendgp.reporting", "TrendReport.write"),
    ("reporting.bayes_level_curves", "trendgp.reporting", "_bayes_level_curves"),
    ("selection.select_model", "trendgp.selection", "select_model"),
    ("selection.loo_mspe", "trendgp.selection", "loo_mspe"),
    ("estimation.fit_ml", "trendgp.estimation", "fit_ml"),
    ("estimation.fit_bayes", "trendgp.estimation", "fit_bayes"),
    ("estimation.index_posterior", "trendgp.estimation", "index_posterior"),
    ("posterior.marginal_moments", "trendgp.posterior", "marginal_moments"),
    ("posterior.chol", "trendgp.posterior", "_chol"),
    ("kernels.kernel_gram", "trendgp.kernels", "kernel_gram"),
    ("indices.eti", "trendgp.indices", "eti"),
    ("indices.tdi_curve", "trendgp.indices", "tdi_curve"),
    ("indices.local_eti_curve", "trendgp.indices", "local_eti_curve"),
    ("transforms.back_transform_summary", "trendgp.transforms", "back_transform_summary"),
    ("simulation.run_study", "trendgp.simulation", "run_study"),
    ("simulation.replicate", "trendgp.simulation", "_replicate"),
)


# Per-span attributes read from a call's arguments and result.
def _gram_attrs(args, kwargs, result):
    return {"entries": int(result.size)}


def _chol_attrs(args, kwargs, result):
    return {"n": int(result.shape[0])}


def _fit_ml_attrs(args, kwargs, result):
    attempted = len(result.start_logliks) + result.n_failed_restarts
    return {"n": args[0].n, "attempted": attempted, "finite": len(result.start_logliks)}


def _loo_attrs(args, kwargs, result):
    return {"n": args[0].n}


def _fit_bayes_attrs(args, kwargs, result):
    chains, kept = result.draws.shape[:2]
    return {"iters": chains * (kept + result.warmup),
            "acceptance": float(sum(result.acceptance) / len(result.acceptance))}


def _index_posterior_attrs(args, kwargs, result):
    draws = round(result.n_used / (1.0 - result.skipped_fraction))
    return {"draws": draws, "skipped_fraction": result.skipped_fraction}


def _eti_attrs(args, kwargs, result):
    n_quad = kwargs.get("n_quad", args[3] if len(args) > 3 else 512)
    return {"nodes": n_quad + n_quad % 2 + 1}


def _replicate_attrs(args, kwargs, result):
    return {"failed": int(result is None)}


ATTRS = {
    "kernels.kernel_gram": _gram_attrs,
    "posterior.chol": _chol_attrs,
    "estimation.fit_ml": _fit_ml_attrs,
    "selection.loo_mspe": _loo_attrs,
    "estimation.fit_bayes": _fit_bayes_attrs,
    "estimation.index_posterior": _index_posterior_attrs,
    "indices.eti": _eti_attrs,
    "simulation.replicate": _replicate_attrs,
}


class Tracer:
    """Collects spans in memory; `install` wraps, `uninstall` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # one list per span: [name, start, end, parent index, namespace, attrs]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _wrapper(self, name: str, namespace: str, func):
        spans, stack, attrs_of = self.spans, self._open, ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, namespace, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = {k: m for k, m in sys.modules.items()
                      if m is not None and (k == "trendgp" or k.startswith("trendgp."))}
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                func = cls.__dict__[meth]
                self._restore.append((cls, meth, func))
                setattr(cls, meth, self._wrapper(name, module, func))
                continue
            func = getattr(owner, attr)
            for ns_name, ns in namespaces.items():
                for key, value in list(vars(ns).items()):
                    if value is func:
                        self._restore.append((ns, key, func))
                        setattr(ns, key, self._wrapper(name, ns_name, func))

    def uninstall(self) -> None:
        for owner, key, func in reversed(self._restore):
            setattr(owner, key, func)
        self._restore.clear()

    def dump(self, path: str, wall: tuple[float, float]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "wall": list(wall), "spans": self.spans}, fh)


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name.

    A layer that did not run reports 0.  `trace.overhead_s` needs the
    untraced wall and is added by the caller.
    """
    spans = trace["spans"]
    wall_start, wall_end = trace["wall"]
    wall = wall_end - wall_start
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in ids(name))

    def self_s(name):
        return sum(dur[i] - child[i] for i in ids(name))

    def attr(i, key):  # a call that raised has no attributes
        return (spans[i][5] or {}).get(key, 0)

    def attr_sum(name, key):
        return sum(attr(i, key) for i in ids(name))

    m = {}
    fits = ids("estimation.fit_ml")
    m["estimation.fit_ml.calls"] = len(fits)
    m["estimation.fit_ml.self_s"] = self_s("estimation.fit_ml")
    m["estimation.objective_evals"] = sum(
        1 for i in ids("kernels.kernel_gram")
        if spans[i][4] == "trendgp.estimation"
        and any(spans[a][0] == "estimation.fit_ml" for a in _ancestors(spans, i))
    )
    attempted = attr_sum("estimation.fit_ml", "attempted")
    m["estimation.restart_success_ratio"] = (
        attr_sum("estimation.fit_ml", "finite") / attempted if attempted else 0.0)

    m["selection.select_model.s"] = total("selection.select_model")
    m["selection.loo_mspe.s"] = total("selection.loo_mspe")
    m["selection.folds"] = attr_sum("selection.loo_mspe", "n")
    fold_fits = [dur[i] for i in fits
                 if spans[i][3] >= 0 and spans[spans[i][3]][0] == "selection.loo_mspe"
                 and attr(i, "n") < attr(spans[i][3], "n")]
    m["selection.fit_ml_per_fold_s"] = statistics.median(fold_fits) if fold_fits else 0.0

    m["kernels.kernel_gram.calls"] = len(ids("kernels.kernel_gram"))
    m["kernels.kernel_gram.self_s"] = self_s("kernels.kernel_gram")
    m["kernels.kernel_gram.entries"] = attr_sum("kernels.kernel_gram", "entries")
    m["posterior.chol.calls"] = len(ids("posterior.chol"))
    m["posterior.chol.self_s"] = self_s("posterior.chol")
    m["posterior.chol.flops"] = sum(attr(i, "n") ** 3 / 3.0 for i in ids("posterior.chol"))

    m["posterior.marginal_moments.calls"] = len(ids("posterior.marginal_moments"))
    m["posterior.marginal_moments.self_s"] = self_s("posterior.marginal_moments")
    m["estimation.index_posterior.s"] = total("estimation.index_posterior")
    draws = attr_sum("estimation.index_posterior", "draws")
    m["estimation.index_posterior.ms_per_draw"] = (
        1e3 * m["estimation.index_posterior.s"] / draws if draws else 0.0)
    m["estimation.index_posterior.skipped_fraction"] = (
        attr_sum("estimation.index_posterior", "skipped_fraction")
        / max(len(ids("estimation.index_posterior")), 1))
    m["reporting.bayes_level_curves.s"] = total("reporting.bayes_level_curves")

    m["estimation.fit_bayes.self_s"] = self_s("estimation.fit_bayes")
    bayes_s = total("estimation.fit_bayes")
    m["estimation.mcmc_iters_per_s"] = (
        attr_sum("estimation.fit_bayes", "iters") / bayes_s if bayes_s else 0.0)
    n_bayes = len(ids("estimation.fit_bayes"))
    m["estimation.mcmc_acceptance"] = (
        attr_sum("estimation.fit_bayes", "acceptance") / n_bayes if n_bayes else 0.0)

    m["indices.eti.s"] = total("indices.eti")
    m["indices.eti.nodes"] = attr_sum("indices.eti", "nodes")
    m["indices.tdi_curve.s"] = total("indices.tdi_curve")
    m["indices.local_eti_curve.s"] = total("indices.local_eti_curve")

    reps = [dur[i] for i in ids("simulation.replicate")]
    m["simulation.replicate.s"] = statistics.median(reps) if reps else 0.0
    m["simulation.replicates_failed"] = attr_sum("simulation.replicate", "failed")

    m["transforms.back_transform_summary.s"] = total("transforms.back_transform_summary")
    m["reporting.run_fit.self_s"] = self_s("reporting.run_fit")
    m["reporting.write.s"] = total("reporting.write")
    m["dataio.read_timeseries.s"] = total("dataio.read_timeseries")

    covered = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    m["trace.unattributed_s"] = max(wall - covered, 0.0)
    return m
