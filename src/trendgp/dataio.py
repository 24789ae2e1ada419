"""CSV ingestion and the COVID monitoring-feed client.

Input series use a two-column `t,y` layout where t is either a number or
an ISO-8601 date (converted to fractional years); rows with a blank y are
dropped, which is how missing survey years are represented.  The
`date,new_positives` layout that `fetch_covid` writes is read the same way.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .posterior import Dataset

DEFAULT_COVID_URL = (
    "https://raw.githubusercontent.com/pcm-dpc/COVID-19/master/"
    "dati-andamento-nazionale/dpc-covid19-ita-andamento-nazionale.csv"
)
COVID_URL_ENV = "TRENDGP_COVID_URL"
_COVID_DATE_COL = "data"
_COVID_VALUE_COL = "nuovi_positivi"
# Accepted (time, outcome) headers: the plain layout and fetch_covid's output.
_SERIES_HEADERS = (["t", "y"], ["date", "new_positives"])


class DataFormatError(ValueError):
    """The input file does not match the expected layout."""


class SchemaDriftError(ValueError):
    """A remote feed no longer carries the expected columns."""


def iso_to_fractional_year(text: str) -> float:
    """Map an ISO date (or datetime) to year + elapsed fraction of that year."""
    date = _dt.date.fromisoformat(text[:10])
    start = _dt.date(date.year, 1, 1)
    days = (_dt.date(date.year + 1, 1, 1) - start).days
    return date.year + (date - start).days / days


def _parse_time(raw: str, row: int) -> float:
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return iso_to_fractional_year(raw)
    except ValueError:
        raise DataFormatError(f"row {row}: cannot parse time value {raw!r}") from None


def read_timeseries(path: str) -> tuple[Dataset, str]:
    """Read a `t,y` or `date,new_positives` CSV.

    Returns the dataset and the file's sha256 digest.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    reader = csv.reader(io.StringIO(raw.decode("utf-8-sig")))
    rows = list(reader)
    if not rows:
        raise DataFormatError("empty input file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:2] not in _SERIES_HEADERS:
        raise DataFormatError(f"expected header 't,y' or 'date,new_positives', got {rows[0]!r}")
    ts, ys = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2 or not row[1].strip():
            continue  # blank y = missing observation
        ts.append(_parse_time(row[0], i))
        try:
            ys.append(float(row[1]))
        except ValueError:
            raise DataFormatError(f"row {i}: cannot parse outcome value {row[1]!r}") from None
    if not ts:
        raise DataFormatError("no usable rows in input file")
    order = np.argsort(ts)
    try:
        data = Dataset(np.asarray(ts)[order], np.asarray(ys)[order])
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    return data, digest


@dataclass(frozen=True)
class CovidSeries:
    dates: tuple[str, ...]
    new_positives: tuple[int, ...]
    source: str


def _normalize_covid_csv(text: str, source: str) -> CovidSeries:
    reader = csv.DictReader(io.StringIO(text))
    fieldnames = reader.fieldnames or []
    for col in (_COVID_DATE_COL, _COVID_VALUE_COL):
        if col not in fieldnames:
            raise SchemaDriftError(f"expected column {col!r} is missing from the feed")
    dates, values = [], []
    for row in reader:
        stamp = (row[_COVID_DATE_COL] or "").strip()
        val = (row[_COVID_VALUE_COL] or "").strip()
        if not stamp or not val:
            continue
        dates.append(stamp[:10])
        values.append(int(float(val)))
    if not dates:
        raise SchemaDriftError("feed contained no data rows")
    return CovidSeries(dates=tuple(dates), new_positives=tuple(values), source=source)


def fetch_covid(
    out_path: str,
    url: str | None = None,
    offline_fixture: str | None = None,
    timeout: float = 30.0,
) -> CovidSeries:
    """Fetch the Italian national monitoring CSV and write a normalized copy.

    Writes `date,new_positives` rows to out_path plus a sidecar
    `<out_path>.provenance.json` recording the source and retrieval time.
    With `offline_fixture` the fixture file stands in for the download.
    """
    if offline_fixture is not None:
        with open(offline_fixture, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = os.path.abspath(offline_fixture)
    else:
        # Imported here: with http.client, ssl and email it costs every other
        # command about 12 ms of start-up.
        import urllib.request

        resolved = url or os.environ.get(COVID_URL_ENV) or DEFAULT_COVID_URL
        with urllib.request.urlopen(resolved, timeout=timeout) as resp:
            text = resp.read().decode("utf-8")
        source = resolved
    series = _normalize_covid_csv(text, source)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "new_positives"])
        for d, v in zip(series.dates, series.new_positives):
            writer.writerow([d, v])
    provenance = {
        "source": source,
        "retrieved_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "n_rows": len(series.dates),
        "first_date": series.dates[0],
        "last_date": series.dates[-1],
    }
    with open(out_path + ".provenance.json", "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return series
