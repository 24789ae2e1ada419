"""Output checks for one CLI invocation, and the quality figures read from it.

Nothing here compares against a frozen reference output: a correctness fix
(the ETI quadrature, say) changes reports without being a failure.  What
must hold is the report schema, the ranges the model guarantees, and equal
digests for repeated runs of the same input under the same code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import jsonschema

SCHEMA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "trendgp", "schemas", "report.schema.json")
QUANTILE_COLS = ("q2_5", "q50", "q97_5")


class CheckError(ValueError):
    """An output violates a guaranteed property."""


def _finite(values, what: str, lo: float = -math.inf, hi: float = math.inf) -> None:
    for v in values:
        if not (isinstance(v, (int, float)) and math.isfinite(v) and lo <= v <= hi):
            raise CheckError(f"{what}: {v!r} is not a finite number in [{lo}, {hi}]")


def _curve_values(curve: dict) -> list:
    cols = ["value"] if "value" in curve else list(QUANTILE_COLS)
    return [v for c in cols for v in curve[c]]


def check_report(path: str, schema: dict) -> dict:
    """Validate report.json; returns its digest and quality figures."""
    with open(path, "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        raise CheckError(f"report.json fails its schema: {exc.message}") from None
    _finite(_curve_values(report["curves"]["tdi"]), "TDI", 0.0, 1.0)
    if report["curves"]["local_eti"] is not None:
        _finite(_curve_values(report["curves"]["local_eti"]), "local ETI", 0.0)
    for entry in report["eti"]:
        _finite([entry[k] for k in ("value", *QUANTILE_COLS) if k in entry], "interval ETI", 0.0)
    out = {"digest": hashlib.sha256(raw).hexdigest()}
    if "loglik" in report["fit"]:
        _finite([report["fit"]["loglik"]], "fit.loglik")
        out["ml_loglik"] = report["fit"]["loglik"]
    if "rhat" in report["diagnostics"]:
        rhats = list(report["diagnostics"]["rhat"].values())
        _finite(rhats, "split R-hat", 0.0)
        out["rhat_max"] = max(rhats)
    return out


def check_study(path: str, reps: int) -> dict:
    """Check the study CSV; returns its digest and the inclusive l2_tdi."""
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    if not rows:
        raise CheckError("study CSV has no rows")
    l2_tdi = None
    for row in rows:
        if int(row["reps"]) + int(row["failed"]) != reps:
            raise CheckError(f"study row {row['aggregate']}: reps + failed != {reps}")
        if row["aggregate"] == "inclusive":
            l2_tdi = float(row["l2_tdi"])
    if l2_tdi is None:
        raise CheckError("study CSV has no inclusive row")
    _finite([l2_tdi], "inclusive l2_tdi", 0.0)
    return {"digest": hashlib.sha256(raw).hexdigest(), "study_l2_tdi": l2_tdi}


def load_schema() -> dict:
    with open(SCHEMA, "r", encoding="utf-8") as fh:
        return json.load(fh)


def output_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)
