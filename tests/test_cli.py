import argparse
import json
import math
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from trendkit import cli, ipm, strategy
from trendkit.calibration import CVConfig, lambda_max
from trendkit.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    ingest_csv,
    main,
    read_table,
    write_csv,
)
from trendkit.errors import ConvergenceError, DataError
from trendkit.filters import l1_filter
from trendkit.strategy import StrategyConfig, performance_stats
from trendkit.synth import default_params, simulate_model1


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

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        f = tmp_path / "i.csv"
        write_lines(f, ["date,value", "0,1.0", "", "1,2.0", "", "1,3.0"])
        with pytest.raises(DataError, match="line 6"):
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

    # week (extended and basic), week without a day, ordinal, unpadded
    @pytest.mark.parametrize("stamp", ["2020-W01-4", "2020W014", "2020-W01", "2020-002",
                                       "2020-1-2"])
    def test_only_calendar_dates_are_read(self, tmp_path, stamp):
        f = tmp_path / "w.csv"
        write_lines(f, ["date,value", "2020-01-01,1.0", f"{stamp},2.0", "2020-01-03,3.0"])
        with pytest.raises(DataError, match=f"^line 3: time '{stamp}' is neither an "
                                            "integer nor YYYY-MM-DD$"):
            ingest_csv(f)

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

    def test_convergence_failure_exits_3(self, tmp_path, monkeypatch):
        f = self.make_input(tmp_path)
        monkeypatch.setattr(ipm, "MAX_ITER", 1)
        code = main([
            "filter", str(f), "--kind", "l1t", "--lambda-max-fraction", "0.2",
        ])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("flags, config", [
        (["--tol", "1e-6"], "tol = 1e-6\n"),
        (["--max-iter", "5"], "max_iter = 5\n"),
    ], ids=["tol", "max-iter"])
    def test_solver_knobs_are_not_options(self, tmp_path, capsys, flags, config):
        f = self.make_input(tmp_path)
        (tmp_path / "s.cfg").write_text(config)
        for extra in (flags, ["--config", str(tmp_path / "s.cfg")]):
            assert main(["filter", str(f), "--lambda-max-fraction", "0.05",
                         *extra]) == EXIT_USAGE
            assert "usage error: unrecognized arguments: --" in capsys.readouterr().err
        assert not (tmp_path / "in.trend.csv").exists()

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

    @pytest.mark.parametrize("weights", [
        ["--kind", "l1t", "--lambda", "inf"],
        ["--kind", "l1t", "--lambda", "nan"],
        ["--kind", "l1c", "--lambda", "inf"],
        ["--kind", "l1c", "--lambda", "nan"],
        ["--kind", "hp", "--lambda", "inf"],
        ["--kind", "hp", "--lambda", "nan"],
        ["--kind", "l1tc", "--lambda1", "inf", "--lambda2", "1"],
        ["--kind", "l1tc", "--lambda1", "1", "--lambda2", "nan"],
        ["--kind", "l1t-multi", "--lambda", "inf"],
        ["--kind", "l1t", "--lambda-max-fraction", "inf"],
    ], ids=lambda weights: "_".join(arg.lstrip("-") for arg in weights))
    def test_nonfinite_weight_is_usage_error(self, tmp_path, capsys, weights):
        f = self.make_input(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["filter", str(f), *weights]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: lam") and "must be finite" in err
        assert not (tmp_path / "in.trend.csv").exists()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        f = self.make_input(tmp_path)
        assert main(["filter", str(f), "--kind", "wavelet"]) == EXIT_USAGE

    def test_bad_csv_is_data_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["date,value", "0,oops"])
        assert main(["filter", str(f), "--kind", "l1t", "--lambda", "1"]) == EXIT_DATA

    @pytest.mark.parametrize("kind", ["l1t", "l1c", "hp"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_value_is_data_error(self, tmp_path, capsys, kind, bad):
        f = tmp_path / "in.csv"
        write_lines(f, ["date,value", "0,1.0", f"1,{bad}", "2,3.0", "3,2.0"])
        assert main(["filter", str(f), "--kind", kind, "--lambda", "1"]) == EXIT_DATA
        assert capsys.readouterr().err == \
            f"data error: {f}: line 3: non-finite value {bad!r} for 'value'\n"

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

    def test_config_naming_another_config_rejected(self, tmp_path, capsys, monkeypatch):
        # the command line's own --config would win, so b.cfg would go unread
        monkeypatch.chdir(tmp_path)
        f = self.make_input(tmp_path)
        write_lines(tmp_path / "a.cfg", ["config = b.cfg"])
        write_lines(tmp_path / "b.cfg", ["lambda = 1"])
        before = sorted(tmp_path.iterdir())
        assert main(["filter", str(f), "--config", "a.cfg"]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "usage error: a.cfg: line 1: a config file cannot name another\n"
        assert sorted(tmp_path.iterdir()) == before  # no file written

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
        for level in (3.0, 0.3):  # the std of ten 0.3s is 5.6e-17, not 0
            write_csv(f, np.arange(10), [
                ("a", rng.normal(size=10).cumsum()), ("flat", np.full(10, level)),
            ])
            code = main([
                "filter", str(f), "--kind", "l1t-multi", "--standardize", "--lambda", "1",
            ])
            assert code == EXIT_DATA
            assert capsys.readouterr().err == \
                "data error: column 'flat' is constant; cannot standardize\n"
            assert not (tmp_path / "panel.trend.csv").exists()

    def test_multivariate_underflowing_column_is_named(self, tmp_path, capsys):
        # the range of [0, 5e-324, 0, ...] is not 0, but its standard deviation
        # underflows to 0; the column sorts first, the second given
        f = tmp_path / "panel.csv"
        walk = np.cumsum(np.random.default_rng(5).standard_normal(10))
        write_lines(f, ["date,z,tiny", *(f"{i},{float(v)!r},{5e-324 if i == 1 else 0.0!r}"
                                          for i, v in enumerate(walk))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["filter", str(f), "--kind", "l1t-multi", "--standardize",
                         "--lambda", "1"]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: column 'tiny' is constant; cannot standardize\n"
        assert not (tmp_path / "panel.trend.csv").exists()

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

    def test_test_window_no_longer_than_order_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "walk.csv"
        log_p = np.cumsum(0.01 * np.random.default_rng(5).standard_normal(300))
        write_csv(f, np.arange(300), [("value", 100.0 * np.exp(log_p))])
        for command, t2, order in [("calibrate", 2, 2), ("calibrate", 1, 1), ("filter", 2, 2)]:
            flags = ["--t1", "10", "--t2", str(t2)]
            flags += ["--auto"] if command == "filter" else ["--order", str(order)]
            assert main([command, str(f), *flags]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"usage error: test window T2={t2} must be longer than "
                f"the filter order {order}\n")
        assert list(tmp_path.iterdir()) == [f]
        assert main(["calibrate", str(f), "--t1", "10", "--t2", "2", "--order", "1"]) == EXIT_OK

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
            "backtest", str(f), "--model", "ma", "--vol-window", "20", "--t3", "30",
        ]) == EXIT_OK
        _, cols = read_table(tmp_path / "prices.wealth.csv")
        np.testing.assert_array_equal(cols["wealth"], np.ones(len(cols["wealth"])))
        np.testing.assert_array_equal(cols["alpha"], np.zeros(len(cols["alpha"])))

    def test_single_return_report_is_strict_json(self, tmp_path, capsys):
        # 22 prices at a 20-day window trade on one day: one return has no
        # sample spread, so volatility is null, not NaN
        f = tmp_path / "p.csv"
        log_p = np.cumsum(0.01 * np.random.default_rng(3).standard_normal(22))
        write_csv(f, np.arange(22), [("value", 100.0 * np.exp(log_p))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--vol-window", "20",
                         "--t3", "20"]) == EXIT_OK
        assert "vol n/a" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "p.backtest-report.json").read_text()
        stats = json.loads(text, parse_constant=reject)["stats"]
        assert stats["volatility_pct"] is None
        assert stats["information_ratio"] is None

    def test_stats_recomputable_from_wealth_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        f = tmp_path / "p.csv"
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
        write_csv(f, np.arange(400), [("value", values)])
        assert main([
            "backtest", str(f), "--model", "ma", "--vol-window", "20", "--t3", "30",
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
            "backtest", str(f), "--model", "hp", "--vol-window", "20", "--t3", "30",
        ]) == EXIT_OK
        report = json.loads((tmp_path / "up.backtest-report.json").read_text())
        assert report["stats"]["performance_pct"] > 0

    @pytest.mark.parametrize("g, day, jump, extra", [
        (-0.002, 395, 3.0, []),
        (-0.002, 399, 3.0, []),
        (0.002, 395, 0.3, ["--alpha-max", "4"]),
    ], ids=["short-tripling", "short-tripling-last-day", "levered-crash"])
    def test_ruin_is_data_error(self, tmp_path, capsys, g, day, jump, extra):
        f = tmp_path / "p.csv"
        values = 100.0 * np.exp(g * np.arange(400))
        values[day:] *= jump
        write_csv(f, np.arange(400), [("value", values)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                         "--vol-window", "20", *extra]) == EXIT_DATA
        assert f"data error: wealth ruined at {day}: allocation " in capsys.readouterr().err
        assert not (tmp_path / "p.wealth.csv").exists()

    def test_short_history_is_data_error(self, tmp_path):
        f = self.make_prices(tmp_path, n=40)
        assert main(["backtest", str(f), "--model", "l1-global"]) == EXIT_DATA

    def test_short_ma_history_names_the_backtest_need(self, tmp_path, capsys):
        f = self.make_prices(tmp_path, n=15)
        assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                     "--vol-window", "5"]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: model 'ma' needs at least 22 samples, got 15\n"

    @pytest.mark.parametrize("model, reads_t2", [
        ("ma", 0), ("hp", 0), ("l1-local", 1), ("l1-global", 0), ("l1-two-trend", 1),
    ])
    def test_only_l1_models_read_the_local_windows(self, tmp_path, capsys, monkeypatch,
                                                   model, reads_t2):
        def no_cv_config(**kw):
            raise AssertionError(f"CVConfig built for {model!r}")

        if model not in strategy.L1_MODELS:
            monkeypatch.setattr(strategy, "CVConfig", no_cv_config)
        f = self.make_prices(tmp_path, n=60)
        t3 = ["--t3", "20"] if "T3" in strategy.TREND_WINDOWS[model] else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", model, "--vol-window", "20",
                         *t3, "--t2", "0"]) == EXIT_USAGE
        message = f"the {model} window T2 must be at least 3, got 0" if reads_t2 else \
            f"--model {model} does not read --t2"
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "prices.wealth.csv").exists()

    @pytest.mark.parametrize("model, message", [
        ("l1-local", "--model l1-local does not read --t3"),
        ("l1-global", "the l1-global window T3 must be at least 3, got 0"),
        ("l1-two-trend", "the l1-two-trend window T3 must be at least 3, got 0"),
    ], ids=["l1-local", "l1-global", "l1-two-trend"])
    def test_l1_models_name_a_zero_long_window(self, tmp_path, capsys, model, message):
        f = self.make_prices(tmp_path, n=60)
        t2 = ["--t2", "5"] if "T2" in strategy.TREND_WINDOWS[model] else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", model, "--vol-window", "20",
                         *t2, "--t3", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == [f]

    @pytest.mark.parametrize("flags, window", [
        (["--model", "l1-global", "--t3", "1"], ("l1-global", "T3", 1)),
        (["--model", "l1-global", "--t3", "2"], ("l1-global", "T3", 2)),
        (["--model", "l1-two-trend", "--t2", "10", "--t3", "2", "--vol-window", "20"],
         ("l1-two-trend", "T3", 2)),
        (["--model", "l1-local", "--t2", "2", "--vol-window", "20"], ("l1-local", "T2", 2)),
    ], ids=["global-t3-1", "global-t3-2", "two-trend-t3-2", "local-t2-2"])
    def test_test_window_no_longer_than_order_is_usage_error(self, tmp_path, capsys,
                                                              flags, window):
        # an L1 test width must exceed the order 2; the message names the flag set
        model, name, width = window
        f = tmp_path / "p.csv"
        log_p = np.cumsum(0.01 * np.random.default_rng(5).standard_normal(300))
        write_csv(f, np.arange(300), [("value", 100.0 * np.exp(log_p))])
        assert main(["backtest", str(f), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"usage error: the {model} window {name} must be "
                                           f"at least 3, got {width}\n")
        assert not (tmp_path / "p.wealth.csv").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_nonfinite_rate_is_usage_error(self, tmp_path, capsys, monkeypatch, rate):
        def no_model(*args, **kw):
            raise AssertionError("trend model built")

        monkeypatch.setattr(strategy, "_make_mu_estimator", no_model)
        monkeypatch.setattr(cli, "read_table", _no_input)  # the rate is checked first
        f = self.make_prices(tmp_path, n=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                         "--vol-window", "20", f"--rate={rate}"]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"usage error: rate must be finite and above -1, got {rate}\n"
        assert not (tmp_path / "prices.wealth.csv").exists()

    @pytest.mark.parametrize("rate", ["-1", "-2"])
    def test_rate_of_minus_one_or_less_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                      rate):
        # a rate of -1 takes flat prices' cash position to zero on the first day
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "read_table", _no_input)  # the rate is checked first
        f = self.make_prices(tmp_path, n=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                         "--vol-window", "20", "--rate", rate]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"usage error: rate must be finite and above -1, got {float(rate)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["prices.csv"]

    def test_rates_value_of_minus_one_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = self.make_prices(tmp_path, n=400)
        rates = np.full(400, 1e-4)
        rates[51] = -1.0
        write_csv(tmp_path / "r.csv", np.arange(400), [("value", rates)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                         "--vol-window", "20", "--rates", "r.csv"]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: rate -1 at 51 is not above -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prices.csv", "r.csv"]

    @pytest.mark.parametrize("flags, config", [(["--rates", ""], ""), ([], "rates =\n")],
                             ids=["flag", "config"])
    def test_empty_rates_path_is_data_error(self, tmp_path, capsys, monkeypatch, flags,
                                            config):
        # an empty path names no file, so it is read and fails like any other
        monkeypatch.chdir(tmp_path)
        self.make_prices(tmp_path, n=60)
        (tmp_path / "b.cfg").write_text(config)
        assert main(["backtest", "prices.csv", "--model", "ma", "--t3", "20",
                     "--vol-window", "20", "--config", "b.cfg", *flags]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: cannot read : ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.cfg", "prices.csv"]

    @pytest.mark.parametrize("n, g, jump, flags, figure", [
        (60, 0.0, 1.0, ["--rate", "20"], "return"),
        (60, 0.0, 1.0, ["--rates", "r.csv"], "return"),
        (22, 0.002, 20.0, [], "return"),
        (60, 0.0, 1.0, ["--rate", "20", "--alpha-min", "1"], "risk-free rate"),
    ], ids=["rate-20", "rates-20", "one-return-x20", "rate-20-all-in"])
    def test_overflowing_statistics_are_numerical_failure(self, tmp_path, capsys,
                                                          monkeypatch, n, g, jump,
                                                          flags, figure):
        # flat prices hold no stock, so wealth compounds the rate, unless it
        # is held all in; a rising market is held all in as its last price
        # moves twentyfold
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "p.csv"
        values = 75.0 * np.exp(g * np.arange(n))
        values[-1] *= jump
        write_csv(f, np.arange(n), [("value", values)])
        write_csv(tmp_path / "r.csv", np.arange(n), [("value", np.full(n, 20.0))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                         "--vol-window", "20", *flags]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == \
            f"numerical failure: annualized {figure} is not finite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "r.csv"]

    def test_rates_on_other_dates_are_data_error(self, tmp_path, capsys):
        f = self.make_prices(tmp_path, n=200)
        rates = tmp_path / "r.csv"
        write_csv(rates, np.arange(1000, 1200), [("value", np.full(200, 1e-4))])
        assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                     "--vol-window", "20", "--rates", str(rates)]) == EXIT_DATA
        assert capsys.readouterr().err == ("data error: rates date 1000 at position 0 "
                                           "does not match the price date 0\n")
        assert not (tmp_path / "prices.wealth.csv").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--rate", "0.5", "--rates", "r.csv"], ""),
        ([], "rate = 0.5\nrates = r.csv\n"),
        (["--rate", "0.5"], "rates = r.csv\n"),
        (["--rates", "r.csv"], "rate = 0.5\n"),
    ], ids=["flags", "config", "rate-flag", "rates-flag"])
    def test_rate_and_rates_together_are_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     flags, config):
        monkeypatch.chdir(tmp_path)
        f = self.make_prices(tmp_path, n=200)
        write_csv(tmp_path / "r.csv", np.arange(200), [("value", np.full(200, 1e-4))])
        (tmp_path / "b.cfg").write_text(config)
        assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                     "--vol-window", "20", "--config", "b.cfg", *flags]) == EXIT_USAGE
        assert "give --rate or --rates, not both" in capsys.readouterr().err
        assert not (tmp_path / "prices.wealth.csv").exists()

    @pytest.mark.parametrize("model, windows", [
        ("ma", ["--t3", "1"]),
        # l1-local reads no T3, so the default 520 asks for no long history
        ("l1-local", ["--t2", "15", "--cv-m", "2", "--cv-p", "2", "--n-grid", "4"]),
    ], ids=["ma", "l1-local"])
    def test_models_without_an_hp_weight_accept_t3_of_1(self, tmp_path, model, windows):
        f = self.make_prices(tmp_path, n=120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", model, "--vol-window", "20",
                         *windows]) == EXIT_OK

    @pytest.mark.parametrize("t3", ["0", "1", "2"])
    def test_short_hp_window_is_usage_error(self, tmp_path, capsys, monkeypatch, t3):
        def no_fit(*args, **kw):
            raise AssertionError("hp_filter called")

        monkeypatch.setattr(strategy, "hp_filter", no_fit)
        f = self.make_prices(tmp_path)
        assert main(["backtest", str(f), "--model", "hp", "--vol-window", "20",
                     "--t3", t3]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"usage error: the hp window T3 must be at least 3, got {t3}\n"

    @pytest.mark.parametrize("model", ["ma", "hp", "l1-local"])
    @pytest.mark.parametrize("flags, message", [
        (["--risk-aversion", "0"], "risk_aversion must be positive and finite, got 0.0"),
        (["--risk-aversion", "-1"], "risk_aversion must be positive and finite, got -1.0"),
        (["--risk-aversion", "inf"], "risk_aversion must be positive and finite, got inf"),
        (["--risk-aversion", "nan"], "risk_aversion must be positive and finite, got nan"),
        (["--alpha-min", "nan"], "alpha_min must not exceed alpha_max"),
        (["--alpha-max", "nan"], "alpha_min must not exceed alpha_max"),
    ], ids=["ra-0", "ra-neg", "ra-inf", "ra-nan", "min-nan", "max-nan"])
    def test_unusable_allocation_rule_is_usage_error(self, tmp_path, capsys, model,
                                                     flags, message):
        f = tmp_path / "p.csv"
        log_p = np.cumsum(0.01 * np.random.default_rng(4).standard_normal(300))
        write_csv(f, np.arange(300), [("value", 100.0 * np.exp(log_p))])
        windows = ["--t3", "20"] if model in ("ma", "hp") else [
            "--t2", "15", "--cv-m", "2", "--cv-p", "2", "--n-grid", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", model, "--vol-window", "20",
                         *windows, *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "p.wealth.csv").exists()

    def test_ma_window_is_not_an_option(self, tmp_path, capsys):
        f = self.make_prices(tmp_path)
        (tmp_path / "m.cfg").write_text("ma_window = 20\n")
        assert main(["backtest", str(f), "--model", "ma", "--ma-window", "20"]) == EXIT_USAGE
        assert "unrecognized arguments: --ma-window 20" in capsys.readouterr().err
        assert main(["backtest", str(f), "--model", "ma",
                     "--config", str(tmp_path / "m.cfg")]) == EXIT_USAGE
        assert "unrecognized arguments: --ma-window=20" in capsys.readouterr().err
        assert not (tmp_path / "prices.wealth.csv").exists()

    def test_local_training_window_is_not_an_option(self, tmp_path, capsys):
        f = self.make_prices(tmp_path)
        (tmp_path / "t.cfg").write_text("t1 = 60\n")
        assert main(["backtest", str(f), "--model", "ma", "--t1", "60"]) == EXIT_USAGE
        assert "unrecognized arguments: --t1 60" in capsys.readouterr().err
        assert main(["backtest", str(f), "--model", "ma",
                     "--config", str(tmp_path / "t.cfg")]) == EXIT_USAGE
        assert "unrecognized arguments: --t1=60" in capsys.readouterr().err
        assert not (tmp_path / "prices.wealth.csv").exists()
        # calibrate keeps the training window it cross-validates with
        log_p = np.cumsum(0.01 * np.random.default_rng(8).standard_normal(200))
        write_csv(tmp_path / "w.csv", np.arange(200), [("value", log_p)])
        assert main(["calibrate", str(tmp_path / "w.csv"), "--t1", "60", "--t2", "15",
                     "--m", "3", "--p", "3", "--n-grid", "4"]) == EXIT_OK
        report = json.loads((tmp_path / "w.cv-report.json").read_text())
        assert (report["config"]["T1"], report["config"]["T2"]) == (60, 15)

    def test_config_echo_is_what_was_given(self, tmp_path):
        f = self.make_prices(tmp_path)
        assert main(["backtest", str(f), "--model", "hp", "--vol-window", "20",
                     "--t3", "30"]) == EXIT_OK
        report = json.loads((tmp_path / "prices.backtest-report.json").read_text())
        assert report["config"] == {**asdict(StrategyConfig()), "trend_model": "hp",
                                    "vol_window": 20, "T3": 30}

    def test_hp_weight_is_not_an_option(self, tmp_path, capsys):
        f = self.make_prices(tmp_path)
        (tmp_path / "h.cfg").write_text("hp_lambda = 500\n")
        assert main(["backtest", str(f), "--model", "hp", "--hp-lambda", "500"]) == EXIT_USAGE
        assert "unrecognized arguments: --hp-lambda 500" in capsys.readouterr().err
        assert main(["backtest", str(f), "--model", "hp",
                     "--config", str(tmp_path / "h.cfg")]) == EXIT_USAGE
        assert "unrecognized arguments: --hp-lambda=500" in capsys.readouterr().err
        assert not (tmp_path / "prices.wealth.csv").exists()

    def test_wealth_overflow_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # flat prices hold no stock, so wealth grows 21-fold a day at rate 20
        monkeypatch.chdir(tmp_path)
        f = self.make_prices(tmp_path, n=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(f), "--model", "ma", "--t3", "20",
                         "--vol-window", "20", "--rate", "20"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: wealth is not finite at 254\n"
        assert [p.name for p in tmp_path.iterdir()] == ["prices.csv"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("command, target", [
    (["filter", "{f}", "--lambda", "1"], "value"),
    (["calibrate", "{f}"], "value"),
    (["backtest", "{p}", "--model", "ma", "--rates", "{f}"], "value"),
    (["filter", "{f}", "--kind", "l1t-multi", "--lambda", "1"], "value"),
    (["filter", "{m}", "--kind", "l1t-multi", "--lambda", "1"], "b"),
], ids=["filter", "calibrate", "backtest-rates", "l1t-multi", "l1t-multi-second-column"])
def test_nonfinite_cell_is_data_error_at_its_line(tmp_path, capsys, monkeypatch, command,
                                                  target, bad):
    monkeypatch.chdir(tmp_path)
    write_lines(tmp_path / "f.csv", ["date,value", "0,1.0", "1,2.0", f"2,{bad}", "3,4.0",
                                     "4,5.0"])
    write_lines(tmp_path / "m.csv", ["date,a,b", "0,1.0,1.0", "1,2.0,2.0", f"2,3.0,{bad}"])
    write_csv(tmp_path / "p.csv", np.arange(5), [("value", np.full(5, 75.0))])
    argv = [arg.format(f="f.csv", m="m.csv", p="p.csv") for arg in command]
    source = "m.csv" if "m.csv" in argv else "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == \
        f"data error: {source}: line 4: non-finite value {bad!r} for {target!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "m.csv", "p.csv"]


@pytest.mark.parametrize("content, reason", [
    (b"date,value\n0,1\n1,2\n2,\xff\xfe\n",
     "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"),
    (b"date,value\n0,1\n1,\"" + b"9" * 200000 + b"\"\n", "field larger than field limit (131072)"),
], ids=["not-utf8", "huge-field"])
@pytest.mark.parametrize("command", [
    ["filter", "bad.csv", "--lambda", "1"],
    ["backtest", "p.csv", "--model", "ma", "--rates", "bad.csv"],
], ids=["filter", "backtest-rates"])
def test_unreadable_csv_text_is_data_error(tmp_path, capsys, monkeypatch, command, content,
                                           reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_bytes(content)
    write_csv(tmp_path / "p.csv", np.arange(5), [("value", np.full(5, 75.0))])
    assert main(command) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: cannot read bad.csv: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "p.csv"]


@pytest.mark.parametrize("command", [["calibrate"], ["filter", "--kind", "l1t", "--auto"]],
                         ids=["calibrate", "filter-auto"])
def test_overflowing_cv_grid_is_numerical_failure(tmp_path, capsys, command):
    _, observed = simulate_model1(default_params(1, n=1008, seed=0))
    f = tmp_path / "big.csv"
    write_csv(f, np.arange(1008), [("value", 1e152 * observed)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], str(f), *command[1:]]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: weight grid overflows at ceilings up to ")
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


@pytest.mark.parametrize("command", [["calibrate", "--order", "1"],
                                     ["filter", "--kind", "l1c", "--auto"]],
                         ids=["calibrate", "filter-auto"])
def test_overflowing_forecast_errors_are_numerical_failure(tmp_path, capsys, command):
    # the first fold trains on zeros, which forecast zeros, and tests on 1e200
    f = tmp_path / "jump.csv"
    write_csv(f, np.arange(105), [("value", np.where(np.arange(105) < 60, 0.0, 1e200))])
    geometry = ["--t1", "60", "--t2", "15", "--m", "3", "--p", "3", "--n-grid", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], str(f), *command[1:], *geometry]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: squared forecast errors overflow\n"
    assert [p.name for p in tmp_path.iterdir()] == ["jump.csv"]


def test_missing_input_file_is_usage_or_data_error(tmp_path):
    assert main(["filter", str(tmp_path / "nope.csv"), "--kind", "l1t",
                 "--lambda", "1"]) == EXIT_DATA


@pytest.mark.parametrize("command", [["filter", "--lambda", "1"], ["calibrate"]],
                         ids=["filter", "calibrate"])
def test_header_only_csv_is_data_error(tmp_path, capsys, command):
    f = tmp_path / "hdr.csv"
    write_lines(f, ["date,value"])
    assert main([command[0], str(f), *command[1:]]) == EXIT_DATA
    assert f"{f}: no data rows" in capsys.readouterr().err


def test_trailing_blank_line_is_ignored(tmp_path):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    write_lines(plain, ["date,value", "0,1", "1,2", "2,4"])
    write_lines(blank, ["date,value", "0,1", "1,2", "2,4", ""])
    for f in (plain, blank):
        assert main(["filter", str(f), "--lambda", "1"]) == EXIT_OK
    assert ((tmp_path / "blank.trend.csv").read_bytes()
            == (tmp_path / "plain.trend.csv").read_bytes())


@pytest.mark.parametrize("command", [["filter", "--lambda", "1"], ["calibrate"]],
                         ids=["filter", "calibrate"])
def test_header_and_blank_lines_is_data_error(tmp_path, capsys, command):
    f = tmp_path / "hdr.csv"
    write_lines(f, ["date,value", "", ""])
    assert main([command[0], str(f), *command[1:]]) == EXIT_DATA
    assert f"{f}: no data rows after the header" in capsys.readouterr().err


def test_whitespace_line_is_ignored(tmp_path):
    plain, spaces = tmp_path / "plain.csv", tmp_path / "spaces.csv"
    write_lines(plain, ["date,value", "0,1", "1,2", "2,4"])
    write_lines(spaces, ["date,value", "0,1", "  ", "1,2", "2,4", " , "])
    for f in (plain, spaces):
        assert main(["filter", str(f), "--lambda", "1"]) == EXIT_OK
    assert ((tmp_path / "spaces.trend.csv").read_bytes()
            == (tmp_path / "plain.trend.csv").read_bytes())


@pytest.mark.parametrize("command", [["filter", "--lambda", "1"], ["calibrate"]],
                         ids=["filter", "calibrate"])
def test_header_and_whitespace_lines_is_data_error(tmp_path, capsys, command):
    f = tmp_path / "hdr.csv"
    write_lines(f, ["date,value", "  ", "\t"])
    assert main([command[0], str(f), *command[1:]]) == EXIT_DATA
    assert f"{f}: no data rows after the header" in capsys.readouterr().err


@pytest.mark.parametrize("weights, order", [
    (["--lambda", "1"], 2),
    (["--kind", "l1c", "--lambda", "1"], 1),
    (["--lambda-max-fraction", "0.1"], 2),
], ids=["l1t", "l1c", "lambda-max-fraction"])
def test_overflowing_differences_are_data_error(tmp_path, capsys, weights, order):
    f = tmp_path / "ovf.csv"
    write_lines(f, ["date,value", "0,1e308", "1,-1e308", "2,1e308", "3,-1e308"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", str(f), *weights]) == EXIT_DATA
    assert f"order-{order} differences of the data overflow" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [
    ["--kind", "l1t", "--lambda", "1"],
    ["--kind", "l1t", "--lambda-max-fraction", "0.1"],
    ["--kind", "hp", "--lambda", "1"],
    ["--kind", "hp", "--lambda", "0"],
], ids=["l1t", "lambda-max-fraction", "hp", "hp-zero"])
def test_series_too_short_for_order_is_data_error(tmp_path, capsys, weights):
    f = tmp_path / "two.csv"
    write_lines(f, ["date,value", "0,1", "1,2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", str(f), *weights]) == EXIT_DATA
    assert "data error: signal length 2 too small for order 2" in capsys.readouterr().err
    assert not (tmp_path / "two.trend.csv").exists()


def test_overflowing_order1_gap_is_numerical_failure_without_warnings(tmp_path, capsys):
    # the exact order-1 fit of a huge input has a gap that overflows to nan
    _, observed = simulate_model1(default_params(1, n=300, seed=1))
    y = 1e153 * observed
    f = tmp_path / "huge.csv"
    write_csv(f, np.arange(300), [("value", y)])
    message = "direct order-1 solve left duality gap nan above 1e-08"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=f"^{message}$") as info:
            l1_filter(y, 0.1 * lambda_max(y, 1), order=1)
        record = info.value.diagnostics
        assert (record.failure, record.iterations) == (message, 0)
        assert math.isnan(record.duality_gap)
        assert main(["filter", str(f), "--kind", "l1c",
                     "--lambda-max-fraction", "0.1"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]


@pytest.mark.parametrize("weights, message", [
    (["--lambda-max-fraction", "0.1"], "the order-2 weight ceiling lambda_max overflows"),
    (["--kind", "hp", "--lambda-max-fraction", "0.1"],
     "the order-2 weight ceiling lambda_max overflows"),
    (["--kind", "l1c", "--lambda-max-fraction", "1e300"],
     "weight 1e+300 x lambda_max 3.4e+306 overflows"),
], ids=["l1t", "hp", "l1c-fraction-1e300"])
def test_overflowing_weight_ceiling_is_numerical_failure(tmp_path, capsys, weights, message):
    f = tmp_path / "huge.csv"
    y = 1e306 * np.cumsum(np.random.default_rng(0).standard_normal(400)) / 400
    write_csv(f, np.arange(400), [("value", y)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", str(f), *weights]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]


def test_overflowing_hp_solve_is_numerical_failure(tmp_path, capsys):
    f = tmp_path / "big.csv"
    write_lines(f, ["date,value", "0,1e308", "1,1e308", "2,1e308", "3,1e308"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", str(f), "--kind", "hp", "--lambda", "1000"]) == EXIT_NUMERICAL
    assert "quadratic filter solve overflowed" in capsys.readouterr().err
    assert not (tmp_path / "big.trend.csv").exists()


@pytest.mark.parametrize("weights, message", [
    (["--kind", "l1t", "--lambda", "1e308"], "non-finite duality gap inf"),
    (["--kind", "l1tc", "--lambda1", "1e308", "--lambda2", "1"], "non-finite duality gap inf"),
    (["--kind", "hp", "--lambda", "1e308"], "quadratic filter system overflows"),
    (["--kind", "hp", "--order", "1", "--lambda", "1e308"], "quadratic filter system overflows"),
], ids=["l1t", "l1tc", "hp", "hp-order1"])
def test_huge_weight_is_numerical_failure(tmp_path, capsys, weights, message):
    f = tmp_path / "walk.csv"
    walk = np.cumsum(np.random.default_rng(0).standard_normal(50))
    write_lines(f, ["date,value", *(f"{i},{float(v)!r}" for i, v in enumerate(walk))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", str(f), *weights]) == EXIT_NUMERICAL
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert not (tmp_path / "walk.trend.csv").exists()


def _subparser(command):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


def test_cv_config_fields_are_the_calibrate_geometry_flags():
    dests = {a.dest for a in _subparser("calibrate")._actions}
    io = {"help", "input", "column", "report", "errors_out", "config"}
    assert dests - io == {f.name for f in fields(CVConfig)}
    assert io <= dests


def test_strategy_config_fields_are_the_backtest_flags():
    dests = {a.dest for a in _subparser("backtest")._actions}
    io = {"help", "input", "rate", "rates", "column", "out", "report", "config"}
    assert dests - io == {f.name for f in fields(StrategyConfig)}
    assert io <= dests


@pytest.mark.parametrize("command", ["filter", "backtest"])
def test_every_flag_is_in_the_table_for_every_variant(command):
    """Each flag is read by some variant or by all (``_SHARED``), the table has
    one entry per variant and names only flags the parser has, and each
    message names a flag as the user types it."""
    actions = {a.dest: a for a in _subparser(command)._actions if a.dest != "help"}
    key, reads = cli.READS[command]
    assert set(reads) == set(actions[key].choices)
    assert set().union(*reads.values()) | cli._SHARED | {key} == {*actions, "command", "func"}
    for dest, action in actions.items():
        if action.option_strings:
            assert cli._option(dest) == action.option_strings[0]
    if command == "backtest":  # the allocation rule, the model's windows, an L1 grid
        trade = {"rate", "rates", "column", "risk_aversion", "alpha_min", "alpha_max",
                 "vol_window"}
        grid = {"cv_m", "cv_p", "n_grid"}
        assert reads == {"ma": trade | {"T3"}, "hp": trade | {"T3"},
                         "l1-local": trade | {"T2"} | grid, "l1-global": trade | {"T3"} | grid,
                         "l1-two-trend": trade | {"T2", "T3"} | grid}


def _flag_cases():
    """(command line, flags that may go to --config instead, message) of every
    flag a variant does not read, a second weight, and windows without --auto."""
    weights = {"l1t": ["--lambda", "1"], "l1c": ["--lambda", "1"], "hp": ["--lambda", "1"],
               "l1t-multi": ["--lambda", "1"], "l1tc": ["--lambda1", "1", "--lambda2", "1"]}
    windows = [["--t1", "40"], ["--t2", "10"], ["--m", "2"], ["--p", "2"], ["--n-grid", "3"]]
    unread = {
        "l1t": [["--standardize"], ["--order", "1"], ["--lambda1", "1"], ["--lambda2", "1"]],
        "l1c": [["--standardize"], ["--order", "2"], ["--lambda1", "1"], ["--lambda2", "1"]],
        "hp": [["--standardize"], ["--lambda1", "1"], ["--lambda2", "1"], ["--auto"],
               *windows],
        "l1t-multi": [["--order", "2"], ["--lambda1", "1"], ["--lambda2", "1"],
                      ["--column", "value"]],
        "l1tc": [["--standardize"], ["--order", "1"], ["--lambda", "1"],
                 ["--lambda-max-fraction", "0.5"], ["--auto"], *windows],
    }
    def case(argv, extra, message):
        return pytest.param(argv, extra, message, id=" ".join([argv[0], *extra, *argv[2:]]))

    for kind, flags in unread.items():
        for flag in flags:
            yield case(["filter", "in.csv", *weights[kind]], ["--kind", kind, *flag],
                       f"--kind {kind} does not read {flag[0]}")
    lam, fraction, auto = ["--lambda", "1"], ["--lambda-max-fraction", "0.5"], ["--auto"]
    for kind in ("l1t", "l1c", "l1t-multi", "hp"):
        pairs = [(lam, fraction)] + ([(lam, auto), (fraction, auto)] if kind != "hp" else [])
        for first, second in pairs:
            yield case(["filter", "in.csv"], ["--kind", kind, *first, *second],
                       f"--kind {kind} takes one weight, got {first[0]} and {second[0]}")
    for kind in ("l1t", "l1c", "l1t-multi"):
        for window in windows:
            yield case(["filter", "in.csv", *lam], ["--kind", kind, *window],
                       f"--kind {kind} reads {window[0]} only with --auto")
    for model in ("ma", "hp"):
        for flag in (["--t2", "10"], ["--cv-m", "2"], ["--cv-p", "2"], ["--n-grid", "3"]):
            yield case(["backtest", "in.csv", "--t3", "20"], ["--model", model, *flag],
                       f"--model {model} does not read {flag[0]}")
    for model, flag in (("l1-local", ["--t3", "20"]), ("l1-global", ["--t2", "10"])):
        yield case(["backtest", "in.csv"], ["--model", model, *flag],
                   f"--model {model} does not read {flag[0]}")


def _config_lines(flags):
    """``key = value`` lines for flags, ``true`` for a switch."""
    lines, i = [], 0
    while i < len(flags):
        has_value = i + 1 < len(flags) and not flags[i + 1].startswith("--")
        lines.append(f"{flags[i][2:]} = {flags[i + 1] if has_value else 'true'}")
        i += 2 if has_value else 1
    return lines


@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize("argv, extra, message", list(_flag_cases()))
def test_unread_flag_is_usage_error_before_any_input(tmp_path, capsys, monkeypatch, argv,
                                                     extra, message, via_config):
    def no_input(*args, **kw):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "read_table", no_input)
    monkeypatch.chdir(tmp_path)
    if via_config:  # the variant and the flag both come from the file
        write_lines(tmp_path / "x.cfg", _config_lines(extra))
        extra = ["--config", "x.cfg"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, *extra]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["x.cfg"] if via_config else [])


def _no_input(*args, **kw):
    raise AssertionError("input read")


@pytest.mark.parametrize("model, name, least", [
    pytest.param(model, name, least, id=f"{model}-{name}")
    for model, windows in strategy.TREND_WINDOWS.items() for name, least in windows.items()])
def test_each_window_below_its_least_width_is_usage_error(tmp_path, capsys, monkeypatch,
                                                          model, name, least):
    message = f"the {model} window {name} must be at least {least}, got {least - 1}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        StrategyConfig(trend_model=model, **{name: least - 1})
    StrategyConfig(trend_model=model, **{name: least})
    monkeypatch.setattr(cli, "read_table", _no_input)
    monkeypatch.chdir(tmp_path)
    argv = ["backtest", "in.csv", "--model", model, cli._option(name)]
    assert main([*argv, str(least - 1)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    with pytest.raises(AssertionError, match="^input read$"):  # the config passed
        main([*argv, str(least)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "in.csv", "--t2", "2"], "test window T2=2 must be longer than the filter "
                                           "order 2"),
    (["filter", "in.csv", "--auto", "--t2", "2"], "test window T2=2 must be longer than the "
                                                  "filter order 2"),
    (["backtest", "in.csv", "--model", "hp", "--t3", "2"],
     "the hp window T3 must be at least 3, got 2"),
    (["backtest", "in.csv", "--n-grid", "1"], "grid needs at least 2 points, got 1"),
    (["backtest", "in.csv", "--rate", "0.1", "--rates", "r.csv"],
     "give --rate or --rates, not both"),
], ids=["calibrate-t2-2", "filter-auto-t2-2", "backtest-hp-t3-2", "backtest-n-grid-1",
        "backtest-rate-and-rates"])
def test_config_fault_is_usage_error_before_any_input(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    monkeypatch.setattr(cli, "read_table", _no_input)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _weight_cases():
    """One weight for each single-weight kind, both for l1tc, each value as the filters
    take it."""
    one = "one weight (--lambda, --lambda-max-fraction, --auto)"
    for kind in ("l1t", "l1c", "l1t-multi"):
        yield pytest.param(["--kind", kind], f"--kind {kind} takes {one}, got none",
                           id=f"{kind}-none")
    yield pytest.param(["--kind", "hp"], "--kind hp takes one weight (--lambda, "
                       "--lambda-max-fraction), got none", id="hp-none")
    for flag in ("--lambda1", "--lambda2"):
        yield pytest.param(["--kind", "l1tc", flag, "1"], "--kind l1tc takes both weights "
                           f"(--lambda1, --lambda2), got {flag}", id=f"l1tc-only{flag[-1]}")
    yield pytest.param(["--lambda", "1", "--auto"],
                       "--kind l1t takes one weight, got --lambda and --auto", id="two")
    for weights, message, case in [
        (["--lambda", "nan"], "lam must be finite, got nan", "lambda-nan"),
        (["--kind", "hp", "--lambda", "-1"], "lam must be non-negative, got -1.0",
         "hp-lambda-negative"),
        (["--lambda-max-fraction", "inf"], "lambda_max_fraction must be finite, got inf",
         "fraction-inf"),
        (["--kind", "l1tc", "--lambda1", "inf", "--lambda2", "nan"],
         "lam1 must be finite, got inf", "l1tc-both-nonfinite"),
        (["--kind", "l1tc", "--lambda1", "1", "--lambda2", "-2"],
         "lam2 must be non-negative, got -2.0", "l1tc-lambda2-negative"),
    ]:
        yield pytest.param(weights, message, id=case)


@pytest.mark.parametrize("weights, message", list(_weight_cases()))
def test_weight_fault_is_usage_error_before_any_input(tmp_path, capsys, monkeypatch, weights,
                                                      message):
    monkeypatch.setattr(cli, "read_table", _no_input)
    monkeypatch.chdir(tmp_path)
    assert main(["filter", "in.csv", *weights]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_is_usage_error():
    assert main(["explode"]) == EXIT_USAGE
