"""Command-line interface.

Subcommands: `fit` (full analysis into a report directory), `tdi` and
`eti` (point/interval queries on stdout), `simulate` (the known-truth
study) and `fetch-covid` (normalize the Italian monitoring feed).

Exit codes: 0 success, 2 parse/config errors, 3 fit failures,
4 assumption violations, 5 network failures, 6 remote schema drift.
Every failure prints a single machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error

import numpy as np

from .dataio import DataFormatError, SchemaDriftError, fetch_covid, read_timeseries
from .estimation import FitError, McmcError
from .kernels import AssumptionError, InadmissibleOrderError
from .parallel import one_blas_thread
from .reporting import AnalysisConfig, ConfigError, run_fit
from .simulation import Scenario, run_study

EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_ASSUMPTION = 4
EXIT_NETWORK = 5
EXIT_SCHEMA = 6


def _fail(code: int, kind: str, reason: str):
    print(json.dumps({"error": kind, "reason": reason}), file=sys.stderr)
    raise SystemExit(code)


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(":")
        lo, hi = float(a), float(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a:b', got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"interval end before start in {text!r}")
    return lo, hi


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", default="auto",
                   help="'auto' (cross-validated selection) or '<degree>:<family>', e.g. 0:RQ")
    p.add_argument("--estimator", default="ml", choices=["ml", "bayes"])
    p.add_argument("--grid", type=int, default=500, dest="grid_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transform", default="identity",
                   choices=["identity", "log", "logit", "arcsine_sqrt"])
    p.add_argument("--interval", type=_parse_interval, action="append", default=[],
                   help="ETI interval a:b (repeatable)")
    p.add_argument("--anchor", type=float, default=None)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--iters", type=int, default=25_000)
    p.add_argument("--restarts", type=int, default=16, help="starts of each full-data ML fit, the default one "
                   "included; --model auto's fold refits always use two fixed starts")
    p.add_argument("--no-eti", action="store_true", help="skip ETI outputs (required for M32)")
    p.add_argument("--forecast", action="store_true",
                   help="allow intervals/anchor outside the data span")
    p.add_argument("--crosspoint-window", type=_parse_interval, default=None)
    p.add_argument("--threshold", type=float, default=0.5, help="TDI level in [0, 1] for the crosspoint")
    p.add_argument("--selection-scheme", default="loo", choices=["loo", "osa"])
    p.add_argument("--degrees", default="0,1,2",
                   help="mean degrees for --model auto, e.g. '0,1'")
    p.add_argument("--families", default="SE,RQ,M32,M52",
                   help="kernel families for --model auto, e.g. 'SE,RQ'")
    p.add_argument("--max-draws", type=int, default=1000,
                   help="thinning cap for Bayesian curve summaries")
    p.add_argument("--priors", default=None,
                   help="JSON file with per-parameter prior overrides")


def _config_from_args(args) -> AnalysisConfig:
    overrides = {}
    if getattr(args, "priors", None):
        try:
            with open(args.priors, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read prior overrides: {exc}") from None
    return AnalysisConfig(
        model=args.model,
        estimator=args.estimator,
        grid_size=args.grid_size,
        intervals=tuple(args.interval),
        anchor=args.anchor,
        transform=args.transform,
        seed=args.seed,
        chains=args.chains,
        iters=args.iters,
        threshold=args.threshold,
        crosspoint_window=args.crosspoint_window,
        forecast=args.forecast,
        compute_eti=not args.no_eti,
        selection_scheme=args.selection_scheme,
        candidate_degrees=tuple(int(d) for d in args.degrees.split(",") if d != ""),
        candidate_families=tuple(f.strip().upper() for f in args.families.split(",") if f.strip()),
        restarts=args.restarts,
        max_draws=args.max_draws,
        prior_overrides=overrides,
    )


def _load_and_run(args):
    data, digest = read_timeseries(args.input)
    config = _config_from_args(args)
    return data, config, run_fit(data, config, digest)


def cmd_fit(args) -> int:
    _, _, report = _load_and_run(args)
    report.write(args.out)
    print(f"wrote {args.out}/report.json")
    return 0


def cmd_tdi(args) -> int:
    args.no_eti = True  # the query prints TDI only, so ETI is never computed
    data, digest = read_timeseries(args.input)
    config = _config_from_args(args)
    anchor = config.resolved_anchor(data)
    queries = [*(args.at or []), *(anchor + delta for delta in args.delta or [])] or [anchor]
    lo, hi = data.span
    for t in queries:  # the TDI grid spans the data; the tolerance is crosspoint's
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise ConfigError(f"query time {t:g} lies outside the data span [{lo:g}, {hi:g}]")
    payload = run_fit(data, config, digest).payload
    grid = payload["grid"]
    curve = payload["curves"]["tdi"]
    print("t\ttdi" if config.estimator == "ml" else "t\tq50\tq2.5\tq97.5")
    for t in queries:
        if config.estimator == "ml":
            val = float(np.interp(t, grid, curve["value"]))
            print(f"{t:g}\t{val:.3f}")
        else:
            q50 = float(np.interp(t, grid, curve["q50"]))
            qlo = float(np.interp(t, grid, curve["q2_5"]))
            qhi = float(np.interp(t, grid, curve["q97_5"]))
            print(f"{t:g}\t{q50:.3f}\t{qlo:.3f}\t{qhi:.3f}")
    return 0


def cmd_eti(args) -> int:
    if not args.interval:
        _fail(EXIT_PARSE, "config", "eti requires at least one --interval a:b")
    _, config, report = _load_and_run(args)
    payload = report.payload
    print("a\tb\teti" if config.estimator == "ml" else "a\tb\tq50\tq2.5\tq97.5")
    for entry in payload["eti"]:
        a, b = entry["interval"]
        if config.estimator == "ml":
            print(f"{a:g}\t{b:g}\t{entry['value']:.4f}")
        else:
            print(f"{a:g}\t{b:g}\t{entry['q50']:.4f}\t{entry['q2_5']:.4f}\t{entry['q97_5']:.4f}")
    return 0


def cmd_simulate(args) -> int:
    scenario = Scenario(
        n=args.n,
        sigma=args.sigma,
        reps=args.reps,
        seed=args.seed,
        grid_size=args.grid,
        restarts=args.restarts,
    )
    result = run_study([scenario])
    csv_text = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_fetch_covid(args) -> int:
    if args.offline and not args.fixture:
        _fail(EXIT_PARSE, "config", "--offline requires --fixture PATH")
    series = fetch_covid(
        args.out,
        url=args.url,
        offline_fixture=args.fixture if args.offline else None,
    )
    print(f"wrote {args.out}: {len(series.dates)} rows from {series.dates[0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trendgp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model and write a report directory")
    p_fit.add_argument("input", help="CSV file with header t,y (or date,new_positives)")
    p_fit.add_argument("--out", required=True, help="output directory")
    _add_model_args(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_tdi = sub.add_parser("tdi", help="query the trend direction index")
    p_tdi.add_argument("input")
    p_tdi.add_argument("--at", type=float, action="append", help="absolute query time (repeatable)")
    p_tdi.add_argument("--delta", type=float, action="append",
                       help="offset from the anchor (repeatable)")
    _add_model_args(p_tdi)
    p_tdi.set_defaults(func=cmd_tdi)

    p_eti = sub.add_parser("eti", help="query the expected trend instability")
    p_eti.add_argument("input")
    _add_model_args(p_eti)
    p_eti.set_defaults(func=cmd_eti)

    p_sim = sub.add_parser("simulate", help="run one simulation-study scenario")
    p_sim.add_argument("--n", type=int, default=50)
    p_sim.add_argument("--sigma", type=float, default=0.1)
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--grid", type=int, default=201)
    p_sim.add_argument("--restarts", type=int, default=8, help="starts of each replicate's ML fit, default included")
    p_sim.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cov = sub.add_parser("fetch-covid", help="download and normalize the Italian COVID feed")
    p_cov.add_argument("--out", required=True)
    p_cov.add_argument("--url", default=None, help="override the feed URL "
                       "(also via TRENDGP_COVID_URL)")
    p_cov.add_argument("--offline", action="store_true")
    p_cov.add_argument("--fixture", default=None, help="local file used with --offline")
    p_cov.set_defaults(func=cmd_fetch_covid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    one_blas_thread()
    try:
        return args.func(args)
    except (DataFormatError, ConfigError) as exc:
        _fail(EXIT_PARSE, "parse", str(exc))
    except (AssumptionError, InadmissibleOrderError) as exc:
        _fail(EXIT_ASSUMPTION, "assumption", str(exc))
    except SchemaDriftError as exc:
        _fail(EXIT_SCHEMA, "schema_drift", str(exc))
    except (FitError, McmcError) as exc:
        _fail(EXIT_FIT, "fit", str(exc))
    except ValueError as exc:
        _fail(EXIT_PARSE, "config", str(exc))
    except (urllib.error.URLError, TimeoutError, ConnectionError) as exc:
        _fail(EXIT_NETWORK, "network", str(exc))
    except OSError as exc:
        _fail(EXIT_PARSE, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
