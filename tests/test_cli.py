"""Command-line surface: formats, determinism and exit codes."""

import argparse
import csv
import json
import math
import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from trendgp.cli import build_parser, main
from trendgp.dataio import iso_to_fractional_year, read_timeseries
from trendgp.estimation import FitOptions, fit_ml
from trendgp.posterior import Posterior
from trendgp.reporting import ESTIMATORS, AnalysisConfig, ConfigError
from trendgp.selection import SCHEMES
from trendgp.simulation import Scenario
from trendgp.transforms import TRANSFORM_KINDS, TransformSpec, back_transform_summary, transform_dataset

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "dpc-covid19-ita-andamento-nazionale.csv")


def _write_series(path, ts, ys):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(ts, ys):
            writer.writerow([t, y])


@pytest.fixture
def series_csv(tmp_path):
    rng = np.random.default_rng(8)
    ts = np.linspace(0, 2, 14)
    ys = np.sin(2 * ts) + rng.normal(0, 0.15, 14)
    path = tmp_path / "series.csv"
    _write_series(path, ts, np.round(ys, 4))
    return str(path)


def _arcsine_near_zero_csv(tmp_path):
    """A proportion series whose arcsine_sqrt latent band dips below 0."""
    rng = np.random.default_rng(5)
    ts = np.linspace(0, 2, 14)
    path = tmp_path / "low.csv"
    _write_series(path, ts, np.round(np.abs(0.05 * (1 - ts / 2) + rng.normal(0, 0.005, 14)) ** 2, 8))
    return path


def _run(args):
    try:
        return main(args), None
    except SystemExit as exc:
        return exc.code, exc


class TestIngestion:
    def test_iso_dates_become_fractional_years(self):
        assert iso_to_fractional_year("2020-01-01") == 2020.0
        assert iso_to_fractional_year("2020-02-24") == pytest.approx(2020 + 54 / 366)
        assert iso_to_fractional_year("2019-12-31") == pytest.approx(2019 + 364 / 365)

    def test_blank_y_rows_dropped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("t,y\n1998,30.1\n2009,\n2010,25.0\n")
        data, digest = read_timeseries(str(path))
        assert data.n == 2
        assert len(digest) == 64

    def test_header_required(self, tmp_path):
        from trendgp.dataio import DataFormatError

        path = tmp_path / "bad.csv"
        path.write_text("time,value\n1,2\n")
        with pytest.raises(DataFormatError):
            read_timeseries(str(path))

    def test_roundtrip(self, tmp_path):
        ts, ys = np.array([0.5, 1.25, 2.0]), np.array([0.1, -0.7, 0.33])
        path = tmp_path / "out.csv"
        _write_series(path, ts, ys)
        back, _ = read_timeseries(str(path))
        assert np.array_equal(back.ts, ts)
        assert np.array_equal(back.ys, ys)


class TestFitCommand:
    def test_deterministic_reports(self, series_csv, tmp_path):
        args = [series_csv, "--model", "0:SE", "--seed", "9", "--restarts", "5", "--grid", "60"]
        code1, _ = _run(["fit", series_csv, "--out", str(tmp_path / "a")] + args[1:])
        code2, _ = _run(["fit", series_csv, "--out", str(tmp_path / "b")] + args[1:])
        assert code1 == 0 and code2 == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    @pytest.mark.parametrize("case", ["select-small", "fixture-rq-log", "arcsine-near-zero"])
    def test_ml_report_does_not_depend_on_the_seed(self, tmp_path, case):
        # every ML fit's starts are a function of its data and model and the
        # arcsine_sqrt band is exact, so --seed reaches the report through its own fields alone
        if case == "select-small":  # the select-small benchmark's input for data seed 1
            t = np.linspace(0.0, 1.0, 12)
            noise = np.random.default_rng([1, zlib.crc32(b"select-small")]).standard_normal(12)
            path = tmp_path / "s.csv"
            _write_series(path, t, 1000 * (np.sin(3 * np.pi * t) + 0.6 * t) + 50 * noise)
            args = ["--model", "auto", "--degrees", "0", "--families", "SE,M52"]
        elif case == "fixture-rq-log":
            path = tmp_path / "covid.csv"
            assert _run(["fetch-covid", "--out", str(path), "--offline", "--fixture", FIXTURE])[0] == 0
            args = ["--model", "0:RQ", "--transform", "log"]
        else:
            path = _arcsine_near_zero_csv(tmp_path)
            args = ["--model", "0:SE", "--transform", "arcsine_sqrt", "--grid", "30"]
        runs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            code, _ = _run(["fit", str(path), "--out", str(out), *args, "--restarts", "4", "--seed", seed])
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            del report["config"]["seed"], report["provenance"]["seed"], report["provenance"]["config_hash"]
            curves = {name: (out / "curves" / name).read_bytes() for name in sorted(os.listdir(out / "curves"))}
            runs.append((report, curves))
        assert runs[0] == runs[1]

    def test_row_order_changes_only_the_data_digest(self, series_csv, tmp_path):
        rows = open(series_csv).read().splitlines()
        body = rows[1:]
        np.random.default_rng(3).shuffle(body)
        assert body != rows[1:]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([rows[0]] + body) + "\n")
        reports = []
        for name, path in (("a", series_csv), ("b", str(shuffled))):
            code, _ = _run(["fit", path, "--out", str(tmp_path / name), "--model", "0:SE",
                            "--seed", "4", "--restarts", "4", "--grid", "40"])
            assert code == 0
            reports.append(json.loads((tmp_path / name / "report.json").read_text()))
        digests = [r["provenance"].pop("data_digest") for r in reports]
        assert digests[0] != digests[1]
        assert reports[0] == reports[1]

    def test_report_validates_against_schema(self, series_csv, tmp_path):
        import jsonschema
        from trendgp import reporting

        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "run"), "--model", "0:SE",
                        "--restarts", "5", "--grid", "40"])
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        schema_path = os.path.join(os.path.dirname(reporting.__file__), "schemas",
                                   "report.schema.json")
        schema = json.loads(open(schema_path).read())
        jsonschema.validate(report, schema)

    def test_output_layout(self, series_csv, tmp_path):
        out = tmp_path / "run"
        code, _ = _run(["fit", series_csv, "--out", str(out), "--model", "0:SE",
                        "--restarts", "5", "--grid", "40"])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "provenance.json").exists()
        for name in ("f", "df", "tdi", "local_eti", "predictive"):
            assert (out / "curves" / f"{name}.csv").exists()
        rows = list(csv.reader(open(out / "curves" / "f.csv")))
        assert rows[0][0] == "t" and "mean" in rows[0]
        assert len(rows) == 41

    def test_m32_with_eti_exits_4(self, series_csv, tmp_path, capsys):
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:M32",
                        "--restarts", "4"])
        assert code == 4
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "assumption"
        assert "A3" in payload["reason"]

    def test_bayes_m32_with_eti_exits_4(self, series_csv, tmp_path, capsys):
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:M32",
                        "--estimator", "bayes", "--chains", "2", "--iters", "600",
                        "--restarts", "4"])
        assert code == 4
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "assumption"
        assert "A3" in payload["reason"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("setting", [("--chains", "1"), ("--chains", "0"), ("--iters", "150"),
                                         ("--max-draws", "0"), ("--max-draws", "-5")],
                             ids=lambda s: "".join(s))
    def test_invalid_bayes_setting_exits_2_before_fitting(self, series_csv, tmp_path, capsys,
                                                          monkeypatch, setting):
        from trendgp import reporting

        fits = []
        monkeypatch.setattr(reporting, "fit_ml", lambda *a, **k: fits.append(a))
        args = {"--chains": "2", "--iters": "600", "--max-draws": "150"} | dict([setting])
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--estimator", "bayes", "--restarts", "4",
                        *(v for kv in args.items() for v in kv)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "parse"
        assert fits == []

    def test_m32_without_eti_succeeds(self, series_csv, tmp_path):
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "m32"), "--model", "0:M32",
                        "--restarts", "4", "--no-eti", "--grid", "30"])
        assert code == 0
        report = json.loads((tmp_path / "m32" / "report.json").read_text())
        assert report["curves"]["local_eti"] is None
        assert report["eti"] == []

    def test_noise_free_series_writes_a_schema_valid_report(self, tmp_path):
        # The ML optimum lies on the sigma -> 0 boundary, where the Gram stops
        # factoring; those points fail as evaluations, and the fit stops at a
        # sigma whose covariance factors and whose Var[df] stays positive.
        import jsonschema
        from trendgp import reporting

        path = tmp_path / "sin.csv"
        ts = [i / 39 for i in range(40)]
        _write_series(path, ts, [math.sin(6 * t) for t in ts])
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "run"), "--model", "0:SE"])
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        schema_path = os.path.join(os.path.dirname(reporting.__file__), "schemas", "report.schema.json")
        jsonschema.validate(report, json.loads(open(schema_path).read()))
        assert report["fit"]["params"]["sigma"] > 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: Var[df] < 0 at sigma -> 0 (exits 4)")
    def test_near_noise_free_selection_writes_a_report(self, tmp_path):
        path = tmp_path / "near.csv"
        _write_series(path, [i / 11 for i in range(12)],
                      [math.sin(6 * i / 11) + 0.1 * math.cos(37 * i) for i in range(12)])
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "run"), "--model", "auto",
                        "--families", "SE,RQ,M52"])
        assert code == 0

    def test_interval_outside_span_exits_2(self, series_csv, tmp_path, capsys):
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--interval", "0:99"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "parse"

    def test_missing_input_exits_2(self, tmp_path):
        code, _ = _run(["fit", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x")])
        assert code == 2


class TestBayesAndTransformRuns:
    @pytest.fixture
    def proportion_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        ts = np.linspace(0, 2, 14)
        ys = 0.3 + 0.25 * np.sin(2 * ts) + rng.normal(0, 0.03, 14)
        path = tmp_path / "prop.csv"
        _write_series(path, ts, np.round(ys, 4))
        return str(path)

    def test_bayes_report_includes_rhat_and_validates(self, proportion_csv, tmp_path):
        import jsonschema
        from trendgp import reporting

        out = tmp_path / "bayes"
        code, _ = _run(["fit", proportion_csv, "--out", str(out), "--model", "0:SE",
                        "--estimator", "bayes", "--chains", "2", "--iters", "600",
                        "--restarts", "4", "--grid", "30", "--seed", "3",
                        "--max-draws", "150"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for name in ("beta0", "alpha", "rho", "sigma"):
            assert name in report["diagnostics"]["rhat"]
        assert len(report["diagnostics"]["acceptance"]) == 2
        assert {"q2_5", "q50", "q97_5"} <= set(report["curves"]["tdi"])
        assert report["eti"][0]["q50"] >= 0
        schema_path = os.path.join(os.path.dirname(reporting.__file__), "schemas",
                                   "report.schema.json")
        jsonschema.validate(report, json.loads(open(schema_path).read()))

    @pytest.mark.parametrize("n_draws", [1, 2, 250, 1001])
    def test_quantile_cols_equal_single_level_quantiles(self, n_draws):
        # the report's bytes rest on one np.quantile call at all levels giving
        # each level's own call bit for bit, over a matrix's columns and over
        # one column alone
        from trendgp import reporting

        draws = np.random.default_rng(n_draws).standard_normal((n_draws, 7))
        cols = reporting._quantile_cols(draws)
        assert list(cols) == ["q2_5", "q50", "q97_5"]
        for name, tau in (("q2_5", 0.025), ("q50", 0.5), ("q97_5", 0.975)):
            assert cols[name].tobytes() == np.quantile(draws, tau, axis=0).tobytes()
            for j in range(draws.shape[1]):
                assert cols[name][j] == np.quantile(draws[:, j], tau)

    def test_transformed_bayes_level_curves_carry_no_latent_curve(self):
        from trendgp import reporting

        rng = np.random.default_rng(2)
        level = (*(rng.uniform(0.1, 1.0, (5, 4)) for _ in range(4)), rng.uniform(0.1, 1.0, 5))
        curves = reporting._bayes_level_curves(*level, TransformSpec("log"), 0)
        assert set(curves) == {"f", "df", "predictive"}

    def test_logit_transform_back_maps_level_curve(self, proportion_csv, tmp_path):
        out = tmp_path / "logit"
        code, _ = _run(["fit", proportion_csv, "--out", str(out), "--model", "0:SE",
                        "--transform", "logit", "--restarts", "4", "--grid", "30",
                        "--seed", "3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        f_curve = report["curves"]["f"]
        assert f_curve["scale"] == "original"
        assert all(0.0 < v < 1.0 for v in f_curve["q50"])
        assert report["curves"]["f_latent"]["scale"] == "transformed"
        # the inverse logit is increasing, so it maps the latent quantiles exactly
        latent = report["curves"]["f_latent"]
        for q, col in (("q2_5", "lo2_5"), ("q50", "mean"), ("q97_5", "hi97_5")):
            assert f_curve[q] == expit(latent[col]).tolist()
        assert report["curves"]["tdi"]["scale"] == "transformed"

    def test_arcsine_sqrt_band_near_zero_matches_sampled_paths(self, tmp_path):
        # near 0 the latent band leaves [0, pi/2], where sin^2 folds back and no
        # longer maps quantiles of f to quantiles of sin^2(f)
        path = _arcsine_near_zero_csv(tmp_path)
        out = tmp_path / "asin"
        code, _ = _run(["fit", str(path), "--out", str(out), "--model", "0:SE",
                        "--transform", "arcsine_sqrt", "--restarts", "4", "--grid", "30",
                        "--seed", "3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert min(report["curves"]["f_latent"]["lo2_5"]) < 0.0
        f_curve = report["curves"]["f"]
        q = np.array([f_curve["q2_5"], f_curve["q50"], f_curve["q97_5"]])
        assert np.all(q[0] <= q[1]) and np.all(q[1] <= q[2])
        tf = TransformSpec("arcsine_sqrt")
        fit_data = transform_dataset(tf, read_timeseries(str(path))[0])
        theta = fit_ml(fit_data, 0, "SE", FitOptions(restarts=4)).theta
        jp = Posterior(fit_data, theta).joint(np.array(report["grid"]), blocks=("f",))
        # the exact band against 200k joint paths, within 1% of the band's width
        mc = back_transform_summary(tf, jp, k=200_000, seed=3)
        assert np.max(np.abs(q - mc)) <= 0.01 * np.max(q[2] - q[0])

    def test_boundary_proportion_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        _write_series(path, [0.0, 1.0, 2.0, 3.0], [0.4,  1.0, 0.5, 0.6])
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--transform", "logit"])
        assert code == 2


_ROW_ORDER_TS = np.linspace(0.0, 2.0, 9)
_ROW_ORDER_YS = np.round(np.sin(2.0 * _ROW_ORDER_TS) + np.random.default_rng(4).normal(0.0, 0.15, 9), 4)


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(9)))
def test_row_order_changes_only_the_data_digest(order):
    # read_timeseries sorts the rows by time, so the file's row order reaches
    # the report only through the digest of its bytes
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for name, rows in (("sorted", range(9)), ("shuffled", order)):
            path = os.path.join(tmp, f"{name}.csv")
            _write_series(path, _ROW_ORDER_TS[list(rows)], _ROW_ORDER_YS[list(rows)])
            code, _ = _run(["fit", path, "--out", os.path.join(tmp, name), "--model", "0:SE",
                            "--restarts", "2"])
            assert code == 0
            with open(os.path.join(tmp, name, "report.json")) as fh:
                reports.append(json.load(fh))
    digests = [r["provenance"].pop("data_digest") for r in reports]
    assert reports[0] == reports[1]
    assert (digests[0] == digests[1]) == (list(order) == list(range(9)))


class TestQueryCommands:
    def test_tdi_at_symmetric_point_is_half(self, tmp_path, capsys):
        # data symmetric around t = 0 make the posterior trend mean vanish there
        ts = np.array([-2.0, -1.0, 1.0, 2.0])
        ys = np.array([1.0, 0.2, 0.2, 1.0])
        path = tmp_path / "sym.csv"
        _write_series(path, ts, ys)
        code, _ = _run(["tdi", str(path), "--at", "0.0", "--model", "0:SE", "--restarts", "4"])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("0")][0]
        assert line.split("\t")[1] == "0.500"

    def test_tdi_m32_needs_no_eti_flag(self, series_csv, capsys):
        # tdi prints only the TDI, so the ETI-only assumption A3 does not apply
        code, _ = _run(["tdi", series_csv, "--model", "0:M32", "--restarts", "4"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "t\ttdi"

    def test_eti_empty_interval_is_zero(self, series_csv, capsys):
        code, _ = _run(["eti", series_csv, "--interval", "1.0:1.0", "--model", "0:SE",
                        "--restarts", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].split("\t")[2] == "0.0000"

    def test_repeat_invocation_identical(self, series_csv, capsys):
        args = ["tdi", series_csv, "--delta", "0.0", "--delta", "-0.5", "--model", "0:SE",
                "--restarts", "4", "--seed", "3"]
        code, _ = _run(args)
        out1 = capsys.readouterr().out
        code, _ = _run(args)
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_eti_requires_interval(self, series_csv, capsys):
        code, _ = _run(["eti", series_csv, "--model", "0:SE"])
        assert code == 2


class _Stop(Exception):
    """Raised in place of a fit, carrying what the command would have fitted."""


class TestOptionDefaults:
    """Options left out take the dataclasses' defaults: the CLI states none of its own."""

    @pytest.mark.parametrize("command, want", [
        (["fit", "--out", "x"], AnalysisConfig()),
        (["tdi"], AnalysisConfig(compute_eti=False)),
        (["eti", "--interval", "0:1"], AnalysisConfig(intervals=((0.0, 1.0),))),
        (["fit", "--out", "x", "--model", "0:RQ", "--estimator", "bayes", "--grid", "60", "--seed", "3",
          "--transform", "log", "--interval", "0:1", "--interval", "1:2", "--anchor", "1.5", "--chains", "3",
          "--iters", "500", "--restarts", "2", "--no-eti", "--forecast", "--crosspoint-window", "0.5:1",
          "--threshold", "0.4", "--selection-scheme", "osa", "--degrees", "0,1", "--families", "se, rq",
          "--max-draws", "7", "--priors", "PRIORS"],
         AnalysisConfig(model="0:RQ", estimator="bayes", grid_size=60, seed=3, transform="log",
                        intervals=((0.0, 1.0), (1.0, 2.0)), anchor=1.5, chains=3, iters=500, restarts=2,
                        compute_eti=False, forecast=True, crosspoint_window=(0.5, 1.0), threshold=0.4,
                        selection_scheme="osa", candidate_degrees=(0, 1), candidate_families=("SE", "RQ"),
                        max_draws=7, prior_overrides={"rho": {"dist": "half_normal", "loc": 0, "scale": 2}})),
    ], ids=["fit", "tdi", "eti", "fit-every-option"])
    def test_model_options_build_the_config(self, series_csv, tmp_path, monkeypatch, command, want):
        from trendgp import cli

        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"rho": {"dist": "half_normal", "loc": 0, "scale": 2}}))

        def stop(data, config, digest):
            raise _Stop(config)

        monkeypatch.setattr(cli, "run_fit", stop)
        args = [str(priors) if a == "PRIORS" else str(tmp_path / a) if a == "x" else a for a in command[1:]]
        with pytest.raises(_Stop) as stopped:
            main([command[0], series_csv, *args])
        assert stopped.value.args[0] == want

    def test_simulate_takes_the_scenarios_defaults(self, monkeypatch):
        from trendgp import cli

        def stop(scenarios):
            raise _Stop(scenarios)

        monkeypatch.setattr(cli, "run_study", stop)
        with pytest.raises(_Stop) as stopped:
            main(["simulate", "--n", "12", "--sigma", "0.2", "--reps", "3"])
        assert stopped.value.args[0] == [Scenario(n=12, sigma=0.2, reps=3)]

    def test_the_thinning_cap_has_one_default(self):
        import inspect

        from trendgp.estimation import index_posterior

        assert AnalysisConfig().max_draws == inspect.signature(index_posterior).parameters["max_draws"].default

    def test_choices_are_the_tuples_validate_checks(self, series_csv):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        want = {"estimator": ESTIMATORS, "transform": TRANSFORM_KINDS, "selection_scheme": SCHEMES}
        for command in ("fit", "tdi", "eti"):
            assert {a.dest: a.choices for a in sub.choices[command]._actions if a.choices} == want
        data, _ = read_timeseries(series_csv)
        for name, values in want.items():
            for value in values:
                AnalysisConfig(**{name: value}).validate(data)
            with pytest.raises(ConfigError):
                AnalysisConfig(**{name: "other"}).validate(data)

    @pytest.mark.parametrize("command", ["fit", "tdi", "eti", "simulate", "fetch-covid"])
    def test_help_names_options_not_config_fields(self, capsys, command):
        code, _ = _run([command, "--help"])
        assert code == 0
        out = capsys.readouterr().out
        assert "usage: trendgp " + command in out
        for field in ("GRID_SIZE", "INTERVALS", "CANDIDATE_DEGREES", "CANDIDATE_FAMILIES", "PRIOR_OVERRIDES"):
            assert field not in out


class TestAutoSelection:
    def test_auto_model_restricted_grid(self, tmp_path):
        ts = np.linspace(0, 4, 10)
        path = tmp_path / "line.csv"
        _write_series(path, ts, np.round(1.0 + 0.5 * ts, 6))
        out = tmp_path / "auto"
        code, _ = _run(["fit", str(path), "--out", str(out), "--model", "auto",
                        "--degrees", "0,1", "--families", "SE",
                        "--selection-scheme", "osa", "--restarts", "4", "--grid", "30"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["model"]["selected_by"] == "auto-osa"
        assert report["model"]["mean_degree"] == 1
        sel = report["diagnostics"]["selection"]
        assert sel["winner"]["degree"] == 1
        assert len(sel["scores"]) == 2

    @pytest.mark.parametrize("case", ["se-winner", "rq-winner-refit-as-se", "bayes"])
    def test_reused_winner_fit_equals_an_explicit_fit(self, tmp_path, case):
        # The auto run reports the selection's own full-data fit of the winner;
        # an explicit run of the model it ends up fitting refits it from scratch.
        rng = np.random.default_rng(4)
        if case == "rq-winner-refit-as-se":
            # very smooth data: the RQ shape parameter diverges to the SE limit
            from trendgp.kernels import KernelSpec, MeanSpec
            from trendgp.posterior import Hyperparams, prior_joint

            from conftest import sample_paths

            ts = np.linspace(0, 1, 30)
            truth = Hyperparams(MeanSpec((0.0,)), KernelSpec("SE", 1.0, 0.45), 0.01)
            ys = sample_paths(prior_joint(truth, ts, blocks=("f",)), 1, seed=14)[0] + rng.normal(0, 0.01, 30)
            candidates, seed = ["--degrees", "0", "--families", "RQ"], "2"
        else:
            ts = np.linspace(0, 3, 11)
            ys = np.sin(2.0 * ts) + rng.normal(0, 0.2, 11)
            candidates, seed = ["--degrees", "0,1", "--families", "SE,M52"], "1"
        path = tmp_path / "d.csv"
        _write_series(path, ts, ys)
        common = ["--seed", seed, "--restarts", "6", "--grid", "25", "--no-eti"]
        if case == "bayes":
            common += ["--estimator", "bayes", "--chains", "2", "--iters", "200", "--max-draws", "20"]
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "auto"), "--model", "auto", *candidates,
                        *common])
        assert code == 0
        report = json.loads((tmp_path / "auto" / "report.json").read_text())
        model = report["model"]
        if case == "rq-winner-refit-as-se":
            assert report["diagnostics"]["selection"]["scores"][0]["substituted_to_se"]
            assert model["kernel_family"] == "SE"
        explicit = f"{model['mean_degree']}:{model['kernel_family']}"
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "explicit"), "--model", explicit, *common])
        assert code == 0
        want = json.loads((tmp_path / "explicit" / "report.json").read_text())
        assert report["fit"] == want["fit"]
        assert report["curves"] == want["curves"]
        if case != "bayes":
            assert report["fit"]["substituted_from"] is None
            for key in ("n_restarts", "n_failed_restarts"):
                assert report["diagnostics"][key] == want["diagnostics"][key]

    def test_eti_selection_scores_only_families_that_admit_it(self, tmp_path):
        # a random walk, where M32 wins the selection when it is scored
        ts = np.linspace(0, 1, 14)
        path = tmp_path / "walk.csv"
        _write_series(path, ts, np.cumsum(np.random.default_rng(0).normal(0, 1, 14)))
        out = tmp_path / "auto"
        code, _ = _run(["fit", str(path), "--out", str(out), "--model", "auto", "--degrees", "0",
                        "--families", "SE,M32", "--restarts", "4", "--grid", "30"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["model"]["kernel_family"] == "SE"
        assert [s["family"] for s in report["diagnostics"]["selection"]["scores"]] == ["SE"]

    def test_eti_selection_without_a_family_for_it_exits_4_before_fitting(self, tmp_path, capsys,
                                                                         monkeypatch):
        from trendgp import reporting, selection

        fits = []
        for module in (reporting, selection):
            monkeypatch.setattr(module, "fit_ml", lambda *a, **k: fits.append(a))
        ts = np.linspace(0, 4, 8)
        path = tmp_path / "d.csv"
        _write_series(path, ts, np.sin(ts))
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "x"), "--model", "auto",
                        "--families", "M32"])
        assert code == 4
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "assumption"
        assert "A3" in payload["reason"]
        assert fits == []

    @pytest.mark.parametrize("scheme, reason", [
        ("loo", "leave-one-out scoring needs n >= 4 observations, got 3"),
        ("osa", "one-step-ahead scoring needs n > min_train, got n=3"),
    ], ids=["loo", "osa"])
    def test_series_too_short_for_the_scheme_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                                    scheme, reason):
        from trendgp import selection

        monkeypatch.setattr(selection, "fit_ml", lambda *a, **k: pytest.fail("fit_ml called"))
        path = tmp_path / "d.csv"
        _write_series(path, [0.0, 1.0, 2.0], [0.1, 0.5, 0.2])
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "x"), "--model", "auto",
                        "--degrees", "0", "--families", "SE", "--selection-scheme", scheme])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["reason"] == reason

    @pytest.mark.parametrize("scheme", ["loo", "osa"])
    def test_selection_does_not_depend_on_the_seed(self, tmp_path, scheme):
        # with one restart the full-data fits use the default start alone, and
        # every fold refit starts from it and the full-data optimum: no run
        # draws a random number, so the seed changes nothing in the selection
        path = tmp_path / "series.csv"
        path.write_text("t,y\n" + "".join(f"{i / 11!r},{math.sin(6 * i / 11) + 0.1 * (-1) ** i!r}\n"
                                           for i in range(12)))
        selections = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            code, _ = _run(["fit", str(path), "--out", str(out), "--model", "auto", "--families", "SE,M52",
                            "--restarts", "1", "--selection-scheme", scheme, "--seed", seed, "--grid", "30"])
            assert code == 0
            selections.append(json.loads((out / "report.json").read_text())["diagnostics"]["selection"])
        assert selections[0] == selections[1]

    def test_bad_family_in_grid_exits_2(self, tmp_path, capsys):
        ts = np.linspace(0, 4, 8)
        path = tmp_path / "d.csv"
        _write_series(path, ts, np.sin(ts))
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "x"), "--model", "auto",
                        "--families", "SE,OU"])
        assert code == 2


class TestErrorExitCodes:
    def test_fit_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        _write_series(path, [0.0, 1.0, 2.0, 3.0], [1e200, -1e200, 1e200, -1e200])
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--restarts", "3"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "fit"

    @pytest.mark.parametrize("query", [["--delta", "0.5"], ["--at", "5", "--forecast"], ["--at", "-1"],
                                       ["--at=-1e-9"], ["--anchor", "3", "--forecast"],
                                       ["--estimator", "bayes", "--delta", "1"]],
                             ids=["delta-past-end", "at-past-end-forecast", "at-before-start",
                                  "just-before-start", "anchor-past-end", "bayes-delta"])
    def test_tdi_query_outside_the_data_exits_2_before_fitting(self, series_csv, capsys, monkeypatch, query):
        # the TDI grid spans the data even with --forecast, so a later query would read its last value
        from trendgp import cli

        monkeypatch.setattr(cli, "run_fit", lambda *a, **k: pytest.fail("run_fit called"))
        code, _ = _run(["tdi", series_csv, "--model", "0:SE", *query])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "outside the data span" in payload["reason"]

    def test_tdi_query_at_the_data_span_edges_is_accepted(self, series_csv, capsys):
        # the series spans [0, 2] and the anchor is its last time
        code, _ = _run(["tdi", series_csv, "--model", "0:SE", "--restarts", "2", "--grid", "20",
                        "--at=-1e-13", "--delta", "1e-13", "--delta", "-0.5"])
        assert code == 0
        assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == ["t", "-1e-13", "2", "1.5"]

    @pytest.mark.parametrize("window, forecast", [("0:5", []), ("0:5", ["--forecast"]),
                                                  ("-1:2", []), ("-1e-9:2", [])],
                             ids=["past-end", "past-end-forecast", "before-start", "just-before-start"])
    def test_crosspoint_window_outside_the_data_exits_2_before_fitting(self, series_csv, tmp_path, capsys,
                                                                       monkeypatch, window, forecast):
        # the TDI grid spans the data even with --forecast, so the window must too
        from trendgp import reporting

        monkeypatch.setattr(reporting, "fit_ml", lambda *a, **k: pytest.fail("fit_ml called"))
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:SE",
                        f"--crosspoint-window={window}", *forecast])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "crosspoint window" in payload["reason"]

    def test_crosspoint_window_at_the_data_span_edges_is_accepted(self, series_csv, tmp_path, capsys):
        # crosspoint allows 1e-12 beyond the grid ends; the series spans [0, 2]
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--restarts", "2", "--grid", "20", "--no-eti", "--crosspoint-window=-1e-13:2"])
        assert code == 0

    @pytest.mark.parametrize("priors, model, reason", [
        ([{"dist": "half_normal", "loc": 0, "scale": 5}], ["--model", "0:SE"], "must be a JSON object"),
        ({"rho": 3}, ["--model", "0:SE"], "prior override for 'rho' must be a JSON object"),
        ({"rh0": {"dist": "half_normal", "loc": 0, "scale": 5}}, ["--model", "0:SE"],
         "'rh0' is not a parameter of model '0:SE'"),
        ({"nu": {"dist": "half_t", "loc": 1, "scale": 3, "df": 3}}, ["--model", "auto", "--families", "SE,M52"],
         "'nu' is not a parameter of any candidate model"),
    ], ids=["file-not-an-object", "entry-not-an-object", "misspelled-name", "no-candidate-has-it"])
    def test_bad_prior_overrides_exit_2_before_fitting(self, series_csv, tmp_path, capsys, monkeypatch,
                                                       priors, model, reason):
        from trendgp import reporting, selection

        for module in (reporting, selection):
            monkeypatch.setattr(module, "fit_ml", lambda *a, **k: pytest.fail("fit_ml called"))
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), *model, "--estimator", "bayes",
                        "--priors", str(path)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "parse"
        assert reason in payload["reason"]

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("spec, reason", [
        ({"dist": "gamma", "loc": 0, "scale": 2}, "unknown prior dist 'gamma'"),
        ({"dist": "half_normal", "loc": 0}, "missing 1 required positional argument: 'scale'"),
        ({"dist": "half_normal", "loc": 0, "scale": 2, "df": 3}, "unexpected keyword argument 'df'"),
        ({"dist": "half_normal", "loc": 0, "scale": "2"}, "scale must be a finite number, got '2'"),
        ({"dist": "half_normal", "loc": True, "scale": 2}, "loc must be a finite number, got True"),
        ({"dist": "half_normal", "loc": 0, "scale": float("inf")}, "scale must be a finite number, got inf"),
        ({"dist": "half_normal", "loc": 0, "scale": 10**400}, "scale must be a finite number, got 1000"),
        ({"dist": "half_normal", "loc": 0, "scale": -1}, "scale must be positive"),
        ({"dist": "half_t", "loc": 0, "scale": 2, "df": 0}, "scale and df must be positive"),
    ], ids=["unknown-dist", "missing-parameter", "extra-parameter", "non-numeric", "boolean", "non-finite",
            "too-large-for-a-float", "negative-scale", "zero-df"])
    def test_malformed_prior_overrides_exit_2_before_fitting(self, series_csv, tmp_path, capsys, monkeypatch,
                                                             estimator, spec, reason):
        # every override builds its prior before any fit, whichever estimator runs
        self._no_fits(monkeypatch)
        path = tmp_path / "priors.json"
        path.write_text(json.dumps({"rho": spec}))
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--estimator", estimator, "--priors", str(path)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "parse"
        assert "'rho'" in payload["reason"] and reason in payload["reason"]

    def test_well_formed_prior_overrides_are_accepted_under_ml(self, series_csv, tmp_path):
        path = tmp_path / "priors.json"
        path.write_text(json.dumps({"rho": {"dist": "half_normal", "loc": 0, "scale": 2}}))
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "x"), "--model", "0:SE", "--restarts", "1",
                        "--grid", "20", "--no-eti", "--priors", str(path)])
        assert code == 0

    @pytest.mark.parametrize("args, reason", [
        (["fit", "{csv}", "--out", "{out}", "--estimator", "foo"], "argument --estimator: invalid choice: 'foo'"),
        (["fit", "{csv}", "--out", "{out}", "--grid", "ten"], "argument --grid: invalid int value: 'ten'"),
        (["fit", "{csv}"], "the following arguments are required: --out"),
        (["frobnicate", "{csv}"], "argument command: invalid choice: 'frobnicate'"),
    ], ids=["bad-estimator", "non-integer-grid", "missing-out", "unknown-subcommand"])
    def test_argparse_rejection_exits_2_with_a_json_line(self, series_csv, tmp_path, capsys, monkeypatch,
                                                         args, reason):
        self._no_fits(monkeypatch)
        code, _ = _run([a.format(csv=series_csv, out=tmp_path / "x") for a in args])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "parse"
        assert reason in payload["reason"]

    def test_top_level_help_exits_0(self, capsys):
        # the subcommands' --help is tested with their options above
        code, _ = _run(["--help"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("model", ["auto", "0:SE"])
    def test_reversed_interval_is_a_config_error_before_any_fit(self, series_csv, monkeypatch, model):
        # the CLI's interval parser rejects one; a library caller's reaches validate
        from trendgp import reporting, selection

        for module in (reporting, selection):
            monkeypatch.setattr(module, "fit_ml", lambda *a, **k: pytest.fail("fit_ml called"))
        data, digest = read_timeseries(series_csv)
        with pytest.raises(ConfigError, match="ends before it starts"):
            reporting.run_fit(data, AnalysisConfig(model=model, intervals=((0.8, 0.2),)), digest)

    def test_prior_overrides_may_name_any_candidates_parameter(self, series_csv):
        from trendgp.reporting import AnalysisConfig, ConfigError

        data, _ = read_timeseries(series_csv)
        nu = {"nu": {"dist": "half_t", "loc": 1, "scale": 3, "df": 3}}
        AnalysisConfig(model="auto", candidate_families=("SE", "RQ"), prior_overrides=nu).validate(data)
        AnalysisConfig(model="0:RQ", prior_overrides=nu).validate(data)
        beta2 = {"beta2": {"dist": "t", "loc": 0, "scale": 1, "df": 3}}
        AnalysisConfig(model="2:SE", prior_overrides=beta2).validate(data)
        with pytest.raises(ConfigError, match="'beta2' is not a parameter"):
            AnalysisConfig(model="1:SE", prior_overrides=beta2).validate(data)

    @pytest.mark.parametrize("command", [["fit", "--model", "auto"], ["fit", "--model", "0:SE"], ["simulate"]],
                             ids=["fit-auto", "fit-fixed", "simulate"])
    def test_negative_seed_exits_2_before_fitting(self, series_csv, tmp_path, capsys, monkeypatch, command):
        from trendgp import reporting, selection, simulation

        for module in (reporting, selection, simulation):
            monkeypatch.setattr(module, "fit_ml", lambda *a, **k: pytest.fail("fit_ml called"))
        if command[0] == "fit":
            args = ["fit", series_csv, "--out", str(tmp_path / "x"), *command[1:]]
        else:
            args = ["simulate", "--n", "10", "--reps", "1"]
        code, _ = _run([*args, "--seed", "-1"])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "seed must be a non-negative integer, got -1" in payload["reason"]

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    @pytest.mark.parametrize("command", [["fit", "--model", "auto"], ["fit", "--model", "0:SE"], ["tdi"],
                                         ["eti", "--interval", "0:1"], ["simulate"]],
                             ids=["fit-auto", "fit-fixed", "tdi", "eti", "simulate"])
    def test_restarts_below_one_exit_2_before_fitting(self, series_csv, tmp_path, capsys, monkeypatch,
                                                      command, restarts):
        self._no_fits(monkeypatch)
        code, _ = _run([*self._args(command, series_csv, tmp_path), "--restarts", restarts])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert f"restarts must be >= 1, got {restarts}" in payload["reason"]

    @pytest.mark.parametrize("threshold", ["-0.1", "1.5", "nan"])
    @pytest.mark.parametrize("command", [["fit", "--model", "0:SE"], ["tdi"], ["eti", "--interval", "0:1"]],
                             ids=["fit", "tdi", "eti"])
    def test_threshold_outside_the_unit_interval_exits_2_before_fitting(self, series_csv, tmp_path, capsys,
                                                                       monkeypatch, command, threshold):
        self._no_fits(monkeypatch)
        code, _ = _run([*self._args(command, series_csv, tmp_path), "--threshold", threshold])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert f"threshold must lie in [0, 1], got {float(threshold)}" in payload["reason"]

    @staticmethod
    def _no_fits(monkeypatch):
        from trendgp import reporting, selection, simulation

        for module in (reporting, selection, simulation):
            monkeypatch.setattr(module, "fit_ml", lambda *a, **k: pytest.fail("fit_ml called"))

    @staticmethod
    def _args(command, series_csv, tmp_path):
        if command[0] == "simulate":
            return ["simulate", "--n", "10", "--reps", "1"]
        if command[0] == "fit":
            return ["fit", series_csv, "--out", str(tmp_path / "x"), *command[1:]]
        return [command[0], series_csv, *command[1:]]

    @pytest.mark.parametrize("command, reason", [
        (["eti", "--interval", "0:1", "--no-eti"], "eti prints ETI, so it cannot take --no-eti"),
        (["fit", "--forecast", "--anchor", "nan"], "anchor must be finite, got nan"),
        (["fit", "--forecast", "--interval", "0:inf"], "interval end must be finite, got inf"),
        (["fit", "--crosspoint-window", "nan:1"], "crosspoint window end must be finite, got nan"),
        (["simulate", "--sigma", "inf"], "scenario noise must be finite and non-negative, got inf"),
        (["simulate", "--sigma", "nan"], "scenario noise must be finite and non-negative, got nan"),
    ], ids=["eti-no-eti", "anchor-nan", "interval-inf", "crosspoint-window-nan", "sigma-inf", "sigma-nan"])
    def test_input_no_report_can_hold_exits_2_before_fitting(self, series_csv, tmp_path, capsys, monkeypatch,
                                                             command, reason):
        # NaN and Infinity are not JSON, and eti --no-eti would print a header alone
        self._no_fits(monkeypatch)
        code, _ = _run([*self._args(command[:1], series_csv, tmp_path), *command[1:]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["reason"] == reason

    def test_network_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRENDGP_COVID_URL", "http://127.0.0.1:9/nothing.csv")
        code, _ = _run(["fetch-covid", "--out", str(tmp_path / "c.csv")])
        assert code == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "network"


class TestSimulateCommand:
    def test_single_rep_csv(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code, _ = _run(["simulate", "--n", "25", "--sigma", "0.05", "--reps", "1",
                        "--seed", "4", "--restarts", "4", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "n"
        assert len(rows) == 3
        assert rows[1][0] == "25"

    def test_negative_sigma_exits_2(self, capsys):
        code, _ = _run(["simulate", "--n", "25", "--sigma", "-0.1", "--reps", "1"])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert "noise" in payload["reason"] and "-0.1" in payload["reason"]


class TestFetchCovid:
    def test_fixture_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "covid.csv"
        code, _ = _run(["fetch-covid", "--out", str(out), "--offline", "--fixture", FIXTURE])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["date", "new_positives"]
        assert len(rows) - 1 == 90
        assert rows[1][0] == "2020-02-24"
        sidecar = json.loads((tmp_path / "covid.csv.provenance.json").read_text())
        assert sidecar["n_rows"] == 90
        assert sidecar["first_date"] == "2020-02-24"

    def test_output_feeds_fit(self, tmp_path, capsys):
        out = tmp_path / "covid.csv"
        code, _ = _run(["fetch-covid", "--out", str(out), "--offline", "--fixture", FIXTURE])
        assert code == 0
        # the same rows in the plain t,y layout read as the same series
        plain = tmp_path / "plain.csv"
        rows = list(csv.reader(open(out)))
        with open(plain, "w", newline="") as fh:
            csv.writer(fh).writerows([["t", "y"]] + rows[1:])
        fetched, _ = read_timeseries(str(out))
        expected, _ = read_timeseries(str(plain))
        assert np.array_equal(fetched.ts, expected.ts) and np.array_equal(fetched.ys, expected.ys)
        code, _ = _run(["fit", str(out), "--out", str(tmp_path / "run"), "--model", "0:SE",
                        "--transform", "log", "--restarts", "4", "--grid", "40"])
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["model"]["kernel_family"] == "SE"
        assert report["model"]["transform"] == "log"

    def test_missing_column_exits_6(self, tmp_path, capsys):
        broken = tmp_path / "broken.csv"
        with open(FIXTURE) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("nuovi_positivi")
        with open(broken, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow([c for i, c in enumerate(row) if i != drop])
        code, _ = _run(["fetch-covid", "--out", str(tmp_path / "o.csv"), "--offline",
                        "--fixture", str(broken)])
        assert code == 6
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "nuovi_positivi" in err["reason"]

    def test_offline_requires_fixture(self, tmp_path, capsys):
        code, _ = _run(["fetch-covid", "--out", str(tmp_path / "o.csv"), "--offline"])
        assert code == 2
