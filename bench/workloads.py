"""The benchmark's workloads: CLI argument lists and the inputs they read.

Inputs are built here with plain numpy from the workload seed and never
with `trendgp.simulation`, so a change to the code under test cannot change
its own inputs.  The COVID series comes from a pinned copy of the national
monitoring feed, converted to the `t,y` layout that `trendgp fit` reads.
"""

from __future__ import annotations

import csv
import hashlib
import os
import zlib
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
COVID_FIXTURE = os.path.join(HERE, "data", "dpc-covid19-ita-andamento-nazionale.csv")
COVID_SHA256 = "4c82de02008670f3afb4b781fc641fef8dcf44545cbd3b48bad67cb3cafbe6e3"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "fit" writes report.json; "simulate" writes a study CSV
    n: int = 0  # generated series length; 0 means the COVID fixture
    cli_args: tuple = ()
    datasets: int = 1  # inputs per run
    # False: every run uses the same inputs, whatever its seed (see simulate-study)
    seeded: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-small",
            "fit",
            n=12,
            cli_args=("--model", "auto", "--degrees", "0", "--families", "SE,M52",
                      "--restarts", "4"),
            datasets=3,
        ),
        Workload(
            "bayes-covid",
            "fit",
            cli_args=("--model", "0:SE", "--transform", "log", "--estimator", "bayes",
                      "--chains", "2", "--iters", "4000", "--max-draws", "250",
                      "--restarts", "4"),
            datasets=2,
        ),
        Workload(
            "fit-large",
            "fit",
            n=600,
            cli_args=("--model", "0:M52", "--restarts", "1"),
            datasets=4,
        ),
        Workload(
            "simulate-study",
            "simulate",
            cli_args=("--n", "50", "--reps", "20", "--restarts", "4"),
            datasets=3,
            # The inclusive l2_tdi, a mean over 20 replicates, spreads by about
            # 0.2 of its median across study seeds; fixed studies make it exact.
            seeded=False,
        ),
    )
}


def trend_function(t: np.ndarray) -> np.ndarray:
    """Fixed smooth truth on [0, 1] whose slope changes sign three times."""
    return np.sin(3.0 * np.pi * t) + 0.6 * t


def series_rng(workload: str, seed: int) -> np.random.Generator:
    # crc32 keys the stream by workload name so two workloads never share noise
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def write_series(path: str, n: int, workload: str, seed: int) -> None:
    """Equally spaced times on [0, 1]; 1000 x the fixed truth plus seeded N(0, 50^2) noise.

    The outcome scale (values in the thousands, as in a count series) keeps
    the ML log-likelihood far from zero, so its relative spread over seeds
    is small; the fit itself is scale-equivariant.
    """
    ts = np.linspace(0.0, 1.0, n)
    ys = 1000.0 * trend_function(ts) + 50.0 * series_rng(workload, seed).standard_normal(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y"])
        for t, y in zip(ts, ys):
            writer.writerow([repr(float(t)), repr(float(y))])


def write_covid(path: str) -> None:
    """Convert the pinned feed's `data,nuovi_positivi` columns to `t,y`."""
    with open(COVID_FIXTURE, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != COVID_SHA256:
        raise RuntimeError(f"COVID fixture digest {digest} does not match the pinned one")
    rows = csv.DictReader(raw.decode("utf-8").splitlines())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y"])
        for row in rows:
            writer.writerow([row["data"][:10], row["nuovi_positivi"]])


def prepare(workload: Workload, seed: int, work_dir: str) -> list[str]:
    """Write the workload's input into work_dir and return the CLI argv."""
    if workload.command == "simulate":
        return ["simulate", *workload.cli_args, "--seed", str(seed),
                "--out", os.path.join(work_dir, "study.csv")]
    data_path = os.path.join(work_dir, "input.csv")
    if workload.n:
        write_series(data_path, workload.n, workload.name, seed)
    else:
        write_covid(data_path)
    return ["fit", data_path, *workload.cli_args, "--seed", str(seed),
            "--out", os.path.join(work_dir, "report")]
