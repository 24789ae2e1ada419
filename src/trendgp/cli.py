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
from dataclasses import fields, replace

import numpy as np

from .dataio import DataFormatError, SchemaDriftError, fetch_covid, read_timeseries
from .estimation import FitError, McmcError
from .kernels import AssumptionError, InadmissibleOrderError
from .parallel import one_blas_thread
from .reporting import ESTIMATORS, AnalysisConfig, ConfigError, run_fit
from .selection import SCHEMES
from .simulation import Scenario, run_study
from .transforms import TRANSFORM_KINDS

EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_ASSUMPTION = 4
EXIT_NETWORK = 5
EXIT_SCHEMA = 6


def _fail(code: int, kind: str, reason: str):
    print(json.dumps({"error": kind, "reason": reason}), file=sys.stderr)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections end in the JSON failure line; its subparsers are too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _fail(EXIT_PARSE, "parse", f"{self.prog}: {message}")


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(":")
        lo, hi = float(a), float(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a:b', got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"interval end before start in {text!r}")
    return lo, hi


def _model_args() -> argparse.ArgumentParser:
    """The options of fit, tdi and eti: each one's dest is an AnalysisConfig
    field, and an option not given leaves that field's default."""
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--model", help="'auto' (cross-validated selection) or '<degree>:<family>', e.g. 0:RQ")
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--grid", type=int, dest="grid_size", metavar="GRID")
    p.add_argument("--seed", type=int, help="seed of the MCMC chains and the Bayesian level-curve draws; "
                   "an ML fit draws no random number")
    p.add_argument("--transform", choices=TRANSFORM_KINDS)
    p.add_argument("--interval", type=_parse_interval, action="append", dest="intervals", metavar="INTERVAL",
                   help="ETI interval a:b (repeatable)")
    p.add_argument("--anchor", type=float)
    p.add_argument("--chains", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--restarts", type=int, help="starts of each full-data ML fit, the default one "
                   "included; --model auto's fold refits always use two fixed starts")
    p.add_argument("--no-eti", action="store_false", dest="compute_eti",
                   help="skip ETI outputs (required for M32)")
    p.add_argument("--forecast", action="store_true",
                   help="allow intervals/anchor outside the data span")
    p.add_argument("--crosspoint-window", type=_parse_interval)
    p.add_argument("--threshold", type=float, help="TDI level in [0, 1] for the crosspoint")
    p.add_argument("--selection-scheme", choices=SCHEMES)
    p.add_argument("--degrees", dest="candidate_degrees", metavar="DEGREES",
                   help="mean degrees for --model auto, e.g. '0,1'")
    p.add_argument("--families", dest="candidate_families", metavar="FAMILIES",
                   help="kernel families for --model auto, e.g. 'SE,RQ'")
    p.add_argument("--max-draws", type=int, help="thinning cap for Bayesian curve summaries")
    p.add_argument("--priors", dest="prior_overrides", metavar="PRIORS",
                   help="JSON file with per-parameter prior overrides")
    return p


def _given(args, cls) -> dict:
    """The parsed options named after fields of the dataclass `cls`; options not given are absent."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if f.name in args}


def _config_from_args(args) -> AnalysisConfig:
    given = _given(args, AnalysisConfig)
    if "intervals" in given:
        given["intervals"] = tuple(given["intervals"])
    if "candidate_degrees" in given:
        given["candidate_degrees"] = tuple(int(d) for d in given["candidate_degrees"].split(",") if d != "")
    if "candidate_families" in given:
        given["candidate_families"] = tuple(f.strip().upper() for f in given["candidate_families"].split(",")
                                            if f.strip())
    path = given.pop("prior_overrides", "")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                given["prior_overrides"] = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or too many digits
            raise ConfigError(f"cannot read prior overrides: {exc}") from None
    return AnalysisConfig(**given)


def _printed_columns(config: AnalysisConfig, index: str) -> tuple[list, list]:
    """The header names and report columns that `tdi` and `eti` print for an index."""
    if config.estimator == "ml":
        return [index], ["value"]
    return ["q50", "q2.5", "q97.5"], ["q50", "q2_5", "q97_5"]


def cmd_fit(args) -> int:
    data, digest = read_timeseries(args.input)
    run_fit(data, _config_from_args(args), digest).write(args.out)
    print(f"wrote {args.out}/report.json")
    return 0


def cmd_tdi(args) -> int:
    data, digest = read_timeseries(args.input)
    # the query prints TDI only, so ETI is never computed
    config = replace(_config_from_args(args), compute_eti=False)
    anchor = config.resolved_anchor(data)
    queries = [*(args.at or []), *(anchor + delta for delta in args.delta or [])] or [anchor]
    lo, hi = data.span
    for t in queries:  # the TDI grid spans the data; the tolerance is crosspoint's
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise ConfigError(f"query time {t:g} lies outside the data span [{lo:g}, {hi:g}]")
    payload = run_fit(data, config, digest).payload
    names, cols = _printed_columns(config, "tdi")
    print("\t".join(["t", *names]))
    curve = payload["curves"]["tdi"]
    for t in queries:
        print("\t".join([f"{t:g}", *(f"{np.interp(t, payload['grid'], curve[c]):.3f}" for c in cols)]))
    return 0


def cmd_eti(args) -> int:
    if "intervals" not in args:
        _fail(EXIT_PARSE, "config", "eti requires at least one --interval a:b")
    if "compute_eti" in args:
        _fail(EXIT_PARSE, "config", "eti prints ETI, so it cannot take --no-eti")
    data, digest = read_timeseries(args.input)
    config = _config_from_args(args)
    payload = run_fit(data, config, digest).payload
    names, cols = _printed_columns(config, "eti")
    print("\t".join(["a", "b", *names]))
    for entry in payload["eti"]:
        a, b = entry["interval"]
        print("\t".join([f"{a:g}", f"{b:g}", *(f"{entry[c]:.4f}" for c in cols)]))
    return 0


def cmd_simulate(args) -> int:
    csv_text = run_study([Scenario(**_given(args, Scenario))]).to_csv()
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
    parser = _Parser(prog="trendgp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    model = [_model_args()]
    p_fit = sub.add_parser("fit", parents=model, help="fit the model and write a report directory")
    p_fit.add_argument("input", help="CSV file with header t,y (or date,new_positives)")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_tdi = sub.add_parser("tdi", parents=model, help="query the trend direction index")
    p_tdi.add_argument("input")
    p_tdi.add_argument("--at", type=float, action="append", help="absolute query time (repeatable)")
    p_tdi.add_argument("--delta", type=float, action="append",
                       help="offset from the anchor (repeatable)")
    p_tdi.set_defaults(func=cmd_tdi)

    p_eti = sub.add_parser("eti", parents=model, help="query the expected trend instability")
    p_eti.add_argument("input")
    p_eti.set_defaults(func=cmd_eti)

    # --seed, --grid and --restarts take Scenario's defaults when not given
    p_sim = sub.add_parser("simulate", help="run one simulation-study scenario")
    p_sim.add_argument("--n", type=int, default=50)
    p_sim.add_argument("--sigma", type=float, default=0.1)
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="seed of the truths and the noise")
    p_sim.add_argument("--grid", type=int, dest="grid_size", metavar="GRID", default=argparse.SUPPRESS)
    p_sim.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                       help="starts of each replicate's ML fit, default included")
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
