"""Command-line surface: formats, determinism and exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from trendgp.cli import main
from trendgp.dataio import iso_to_fractional_year, read_timeseries

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
        from trendgp.dataio import write_timeseries
        from trendgp.posterior import Dataset

        data = Dataset(np.array([0.5, 1.25, 2.0]), np.array([0.1, -0.7, 0.33]))
        path = tmp_path / "out.csv"
        write_timeseries(data, str(path))
        back, _ = read_timeseries(str(path))
        assert np.array_equal(back.ts, data.ts)
        assert np.array_equal(back.ys, data.ys)


class TestFitCommand:
    def test_deterministic_reports(self, series_csv, tmp_path):
        args = [series_csv, "--model", "0:SE", "--seed", "9", "--restarts", "5", "--grid", "60"]
        code1, _ = _run(["fit", series_csv, "--out", str(tmp_path / "a")] + args[1:])
        code2, _ = _run(["fit", series_csv, "--out", str(tmp_path / "b")] + args[1:])
        assert code1 == 0 and code2 == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

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

    def test_m32_without_eti_succeeds(self, series_csv, tmp_path):
        code, _ = _run(["fit", series_csv, "--out", str(tmp_path / "m32"), "--model", "0:M32",
                        "--restarts", "4", "--no-eti", "--grid", "30"])
        assert code == 0
        report = json.loads((tmp_path / "m32" / "report.json").read_text())
        assert report["curves"]["local_eti"] is None
        assert report["eti"] == []

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
        assert report["curves"]["tdi"]["scale"] == "transformed"

    def test_boundary_proportion_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        _write_series(path, [0.0, 1.0, 2.0, 3.0], [0.4,  1.0, 0.5, 0.6])
        code, _ = _run(["fit", str(path), "--out", str(tmp_path / "x"), "--model", "0:SE",
                        "--transform", "logit"])
        assert code == 2


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
