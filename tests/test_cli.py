import json

import numpy as np
import pytest

from trendkit.calibration import lambda_max
from trendkit.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ingest_csv,
    main,
    read_table,
    write_csv,
)
from trendkit.errors import DataError
from trendkit.strategy import performance_stats


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestIngest:
    def test_two_point_date_file(self, tmp_path):
        f = tmp_path / "a.csv"
        write_lines(f, ["date,value", "2011-01-03,100.0", "2011-01-04,101.5"])
        series = ingest_csv(f)
        assert len(series) == 2
        np.testing.assert_array_equal(series.values, [100.0, 101.5])
        assert list(series.times) == ["2011-01-03", "2011-01-04"]

    def test_integer_index_file(self, tmp_path):
        f = tmp_path / "b.csv"
        write_lines(f, ["t,value", "0,1", "1,2", "2,3"])
        series = ingest_csv(f)
        np.testing.assert_array_equal(series.times, [0, 1, 2])

    def test_duplicate_date_names_line(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(f, ["date,value", "2011-01-03,1", "2011-01-03,2"])
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(f)

    def test_missing_value_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["date,value", "0,1.0", "1,", "2,3.0"])
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(f)

    def test_unparseable_number_names_line(self, tmp_path):
        f = tmp_path / "e.csv"
        write_lines(f, ["date,value", "0,1.0", "1,abc"])
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest_csv(f)

    def test_mixed_stamp_kinds_rejected(self, tmp_path):
        f = tmp_path / "g.csv"
        write_lines(f, ["date,value", "0,1.0", "2011-01-03,2.0"])
        with pytest.raises(DataError, match="mixed"):
            ingest_csv(f)

    def test_multi_column_requires_choice(self, tmp_path):
        f = tmp_path / "h.csv"
        write_lines(f, ["date,a,b", "0,1,2", "1,3,4"])
        with pytest.raises(DataError, match="--column"):
            ingest_csv(f)
        series = ingest_csv(f, column="b")
        np.testing.assert_array_equal(series.values, [2.0, 4.0])

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_csv(f1, np.arange(50), [("value", rng.normal(size=50) * 1e3)])
        series = ingest_csv(f1)
        write_csv(f2, series.times, [("value", series.values)])
        assert f1.read_bytes() == f2.read_bytes()


class TestFilterCommand:
    def make_input(self, tmp_path, n=120, seed=2):
        rng = np.random.default_rng(seed)
        f = tmp_path / "in.csv"
        write_csv(f, np.arange(n), [("value", rng.normal(size=n).cumsum())])
        return f

    def test_zero_weight_copies_observed(self, tmp_path):
        f = self.make_input(tmp_path)
        assert main(["filter", str(f), "--kind", "l1t", "--lambda", "0"]) == EXIT_OK
        _, cols = read_table(tmp_path / "in.trend.csv")
        np.testing.assert_array_equal(cols["observed"], cols["trend"])

    def test_ceiling_fraction_gives_affine_trend_no_breaks(self, tmp_path):
        f = self.make_input(tmp_path)
        assert main([
            "filter", str(f), "--kind", "l1t", "--lambda-max-fraction", "1.0"
        ]) == EXIT_OK
        report = json.loads((tmp_path / "in.filter-report.json").read_text())
        assert report["breaks"] == []
        assert report["converged"] is True
        _, cols = read_table(tmp_path / "in.trend.csv")
        assert np.max(np.abs(np.diff(cols["trend"], 2))) < 1e-5

    def test_mixed_filter_requires_both_weights(self, tmp_path):
        f = self.make_input(tmp_path)
        assert main(["filter", str(f), "--kind", "l1tc", "--lambda1", "1"]) == EXIT_USAGE
        assert main([
            "filter", str(f), "--kind", "l1tc", "--lambda1", "1", "--lambda2", "2"
        ]) == EXIT_OK
        report = json.loads((tmp_path / "in.filter-report.json").read_text())
        assert "breaks_order1" in report and "breaks_order2" in report

    def test_multivariate_kind(self, tmp_path):
        rng = np.random.default_rng(4)
        f = tmp_path / "multi.csv"
        write_csv(f, np.arange(80), [
            ("a", rng.normal(size=80).cumsum()),
            ("b", rng.normal(size=80).cumsum()),
        ])
        assert main([
            "filter", str(f), "--kind", "l1t-multi", "--lambda", "3.0"
        ]) == EXIT_OK
        _, cols = read_table(tmp_path / "multi.trend.csv")
        assert "trend" in cols

    def test_auto_selection(self, tmp_path):
        f = self.make_input(tmp_path, n=260)
        assert main([
            "filter", str(f), "--kind", "l1t", "--auto",
            "--t1", "60", "--t2", "15", "--m", "3", "--p", "3", "--n-grid", "4",
        ]) == EXIT_OK
        report = json.loads((tmp_path / "in.filter-report.json").read_text())
        assert report["selection"] == "cross-validation"
        assert report["lambda"] > 0

    def test_convergence_failure_exits_3(self, tmp_path):
        f = self.make_input(tmp_path)
        code = main([
            "filter", str(f), "--kind", "l1t", "--lambda-max-fraction", "0.2",
            "--max-iter", "1",
        ])
        assert code == EXIT_NUMERICAL

    def test_index_level_series_is_numerical_failure(self, tmp_path, capsys):
        # 1,008 samples at index levels (about 1200, daily moves about 12): at
        # a tenth of lambda_max a slack rounds to zero and the Newton system
        # stops being finite, which must surface as a numerical failure.
        rng = np.random.default_rng(0)
        f = tmp_path / "index.csv"
        write_csv(f, np.arange(1008), [("value", 1200 + np.cumsum(12 * rng.standard_normal(1008)))])
        code = main(["filter", str(f), "--kind", "l1t", "--lambda-max-fraction", "0.1"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, tmp_path):
        f = self.make_input(tmp_path)
        assert main(["filter", str(f), "--kind", "wavelet"]) == EXIT_USAGE

    def test_bad_csv_is_data_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["date,value", "0,oops"])
        assert main(["filter", str(f), "--kind", "l1t", "--lambda", "1"]) == EXIT_DATA

    def test_config_file_overridden_by_flags(self, tmp_path):
        f = self.make_input(tmp_path)
        cfg = tmp_path / "cfg.txt"
        write_lines(cfg, ["kind = l1c", "lam = 0.0"])
        out = tmp_path / "out.csv"
        assert main([
            "filter", str(f), "--config", str(cfg), "--out", str(out),
            "--report", str(tmp_path / "rep.json"),
        ]) == EXIT_OK
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["kind"] == "l1c"  # from config
        assert main([
            "filter", str(f), "--config", str(cfg), "--kind", "l1t",
            "--out", str(out), "--report", str(tmp_path / "rep.json"),
        ]) == EXIT_OK
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["kind"] == "l1t"  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        f = self.make_input(tmp_path)
        cfg = tmp_path / "cfg.txt"
        write_lines(cfg, ["far_out = 1"])
        assert main(["filter", str(f), "--config", str(cfg)]) == EXIT_USAGE

    def test_multivariate_ceiling_fraction_uses_standardized_mean(self, tmp_path):
        rng = np.random.default_rng(5)
        f = tmp_path / "panel.csv"
        write_csv(f, np.arange(90), [
            (name, scale * rng.normal(size=90).cumsum() + shift)
            for name, scale, shift in (("a", 1.0, 0.0), ("b", 40.0, 7.0), ("c", 0.2, -3.0))
        ])
        assert main([
            "filter", str(f), "--kind", "l1t-multi", "--standardize",
            "--lambda-max-fraction", "0.05",
        ]) == EXIT_OK
        _, cols = read_table(f)
        data = np.vstack([cols[name] for name in sorted(cols)])
        z = (data - data.mean(axis=1)[:, None]) / data.std(axis=1)[:, None]
        ceiling = lambda_max(z.mean(axis=0), 2)
        report = json.loads((tmp_path / "panel.filter-report.json").read_text())
        assert report["selection"] == "lambda-max-fraction"
        assert report["lambda_max"] == ceiling
        assert report["lambda"] == 0.05 * ceiling

    def test_multivariate_constant_column_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f = tmp_path / "panel.csv"
        write_csv(f, np.arange(40), [
            ("a", rng.normal(size=40).cumsum()), ("flat", np.full(40, 3.0)),
        ])
        code = main([
            "filter", str(f), "--kind", "l1t-multi", "--standardize", "--lambda", "1",
        ])
        assert code == EXIT_DATA
        assert "'flat'" in capsys.readouterr().err

    def test_numeric_config_value_names_a_column(self, tmp_path):
        f = tmp_path / "years.csv"
        write_csv(f, np.arange(30), [("2020", np.arange(30.0)), ("2021", np.ones(30))])
        cfg = tmp_path / "cfg.txt"
        write_lines(cfg, ["column = 2020", "lambda = 1"])
        assert main(["filter", str(f), "--config", str(cfg)]) == EXIT_OK
        _, cols = read_table(tmp_path / "years.trend.csv")
        np.testing.assert_array_equal(cols["observed"], np.arange(30.0))

    def test_numeric_config_value_names_an_output(self, tmp_path, monkeypatch):
        f = self.make_input(tmp_path)
        cfg = tmp_path / "cfg.txt"
        write_lines(cfg, ["out = 123", "lambda = 1"])
        monkeypatch.chdir(tmp_path)
        assert main(["filter", str(f), "--config", str(cfg)]) == EXIT_OK
        _, cols = read_table(tmp_path / "123")
        assert "trend" in cols

    def test_config_switch_takes_only_true_or_false(self, tmp_path):
        f = self.make_input(tmp_path)
        cfg = tmp_path / "cfg.txt"
        write_lines(cfg, ["auto = no"])
        assert main(["filter", str(f), "--config", str(cfg)]) == EXIT_USAGE

    def test_config_switches_follow_true_and_false(self, tmp_path):
        f = self.make_input(tmp_path, n=260)
        cfg = tmp_path / "cfg.txt"
        write_lines(cfg, ["auto = TRUE", "standardize = false", "t1 = 60", "t2 = 15",
                          "m = 3", "p = 3", "n_grid = 4"])
        assert main(["filter", str(f), "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "in.filter-report.json").read_text())
        assert report["selection"] == "cross-validation"
        assert len(report["grid"]) == 4


class TestCalibrateCommand:
    def test_line_input_all_errors_tiny(self, tmp_path):
        f = tmp_path / "line.csv"
        write_csv(f, np.arange(300), [("value", 0.5 * np.arange(300.0))])
        assert main([
            "calibrate", str(f),
            "--t1", "60", "--t2", "15", "--m", "4", "--p", "4", "--n-grid", "5",
        ]) == EXIT_OK
        report = json.loads((tmp_path / "line.cv-report.json").read_text())
        assert all(e < 1e-10 for e in report["errors"])
        assert len(report["grid"]) == 5
        idx = int(np.argmin(report["errors"]))
        assert report["lambda_star"] == report["grid"][idx]
        lines = (tmp_path / "line.cv-errors.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,error"
        assert len(lines) == 6

    def test_insufficient_history_is_data_error(self, tmp_path):
        f = tmp_path / "short.csv"
        write_csv(f, np.arange(30), [("value", np.arange(30.0))])
        assert main(["calibrate", str(f)]) == EXIT_DATA


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "simulate", "--model", "2", "--n", "200", "--seed", "7",
                "--out", str(out),
            ]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_persistent_noiseless_model1_is_line(self, tmp_path):
        out = tmp_path / "m1.csv"
        assert main([
            "simulate", "--model", "1", "--n", "100", "--p", "1.0",
            "--sigma", "0.0", "--seed", "1", "--out", str(out),
        ]) == EXIT_OK
        _, cols = read_table(out)
        # tolerance reflects the 12-significant-digit CSV quantization
        assert np.max(np.abs(np.diff(cols["observed"], 2))) < 1e-10

    def test_full_reversion_tracks_mean(self, tmp_path):
        out = tmp_path / "m4.csv"
        assert main([
            "simulate", "--model", "4", "--theta", "1.0", "--sigma", "0.0",
            "--n", "50", "--seed", "3", "--out", str(out),
        ]) == EXIT_OK
        _, cols = read_table(out)
        np.testing.assert_allclose(cols["observed"][1:], cols["trend"][1:],
                                   atol=1e-12)

    def test_invalid_model_is_usage_error(self, tmp_path):
        assert main(["simulate", "--model", "9"]) == EXIT_USAGE

    def test_invalid_params_are_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--model", "1", "--p", "1.5", "--out", str(out)
        ]) == EXIT_USAGE


class TestBacktestCommand:
    def make_prices(self, tmp_path, n=300):
        f = tmp_path / "prices.csv"
        write_csv(f, np.arange(n), [("value", np.full(n, 75.0))])
        return f

    def test_constant_prices_flat_wealth(self, tmp_path):
        f = self.make_prices(tmp_path)
        assert main([
            "backtest", str(f), "--model", "ma", "--vol-window", "20",
            "--t1", "60", "--t2", "15", "--t3", "30",
            "--cv-m", "2", "--cv-p", "2", "--n-grid", "4",
        ]) == EXIT_OK
        _, cols = read_table(tmp_path / "prices.wealth.csv")
        np.testing.assert_array_equal(cols["wealth"], np.ones(len(cols["wealth"])))
        np.testing.assert_array_equal(cols["alpha"], np.zeros(len(cols["alpha"])))

    def test_stats_recomputable_from_wealth_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        f = tmp_path / "p.csv"
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
        write_csv(f, np.arange(400), [("value", values)])
        assert main([
            "backtest", str(f), "--model", "ma", "--vol-window", "20",
            "--t1", "60", "--t2", "15", "--t3", "30",
            "--cv-m", "2", "--cv-p", "2", "--n-grid", "4",
        ]) == EXIT_OK
        report = json.loads((tmp_path / "p.backtest-report.json").read_text())
        wealth = ingest_csv(tmp_path / "p.wealth.csv", column="wealth")
        start = report["start_index"]
        benchmark = values[start:]
        recomputed = performance_stats(wealth.values, benchmark=benchmark, rate=0.0)
        assert abs(recomputed.performance_pct - report["stats"]["performance_pct"]) < 1e-8
        assert abs(recomputed.sharpe - report["stats"]["sharpe"]) < 1e-8
        assert abs(recomputed.max_drawdown_pct - report["stats"]["max_drawdown_pct"]) < 1e-8

    def test_monotone_uptrend_positive_performance(self, tmp_path):
        f = tmp_path / "up.csv"
        values = 100.0 * np.exp(0.001 * np.arange(350))
        write_csv(f, np.arange(350), [("value", values)])
        assert main([
            "backtest", str(f), "--model", "hp", "--vol-window", "20",
            "--t1", "60", "--t2", "15", "--t3", "30",
            "--cv-m", "2", "--cv-p", "2", "--n-grid", "4",
        ]) == EXIT_OK
        report = json.loads((tmp_path / "up.backtest-report.json").read_text())
        assert report["stats"]["performance_pct"] > 0

    def test_short_history_is_data_error(self, tmp_path):
        f = self.make_prices(tmp_path, n=40)
        assert main(["backtest", str(f), "--model", "l1-global"]) == EXIT_DATA


def test_missing_input_file_is_usage_or_data_error(tmp_path):
    assert main(["filter", str(tmp_path / "nope.csv"), "--kind", "l1t",
                 "--lambda", "1"]) == EXIT_DATA


def test_unknown_command_is_usage_error():
    assert main(["explode"]) == EXIT_USAGE
