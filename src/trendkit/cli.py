"""Command-line surface: filter, calibrate, simulate, backtest.

Data flows through two-column CSV files (``date,value`` with ISO dates
or integer indices) and JSON report documents. Exit codes are stable:
0 success, 1 usage error, 2 data error, 3 numerical failure.

An optional ``--config`` file holds ``key = value`` lines, read by the
command's own parser. A key is a long flag name (``n_grid`` or ``n-grid``
for ``--n-grid``; ``lam`` also names ``--lambda``) and its value is parsed
as that flag parses it; ``true`` and ``false`` turn a switch on and off.
Explicit flags win over the file. A flag given neither way is not passed
on, so the library's own default applies.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import calibration, filters, strategy, synth
from .errors import DataError, NumericalError
from .series import Series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_time(token: str, line_no: int):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        datetime.date.fromisoformat(token)
        return token
    except ValueError:
        raise DataError(
            f"line {line_no}: time {token!r} is neither an integer nor YYYY-MM-DD"
        )


def _time_key(t):
    return t if isinstance(t, int) else datetime.date.fromisoformat(t)


def read_table(path):
    """Parse a CSV with a time column first: returns (times, {name: values})."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2:
        raise DataError(f"{path}: need a time column and at least one value column")
    names = header[1:]
    times = []
    columns = {name: [] for name in names}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
            )
        times.append(_parse_time(row[0], line_no))
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if not cell:
                raise DataError(f"{path}: line {line_no}: missing value for {name!r}")
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: line {line_no}: cannot parse {cell!r} as a number"
                )
    keys = [_time_key(t) for t in times]
    for i in range(1, len(keys)):
        if type(keys[i]) is not type(keys[0]):
            raise DataError(f"{path}: line {i + 2}: mixed integer and date stamps")
        if keys[i] <= keys[i - 1]:
            raise DataError(
                f"{path}: line {i + 2}: time {times[i]!r} not after {times[i - 1]!r}"
            )
    time_arr = np.array(times, dtype=object if isinstance(times[0], str) else int)
    return time_arr, {k: np.array(v) for k, v in columns.items()}


def ingest_csv(path, column=None) -> Series:
    """Read one value column as a Series (the only column, or ``column``)."""
    times, columns = read_table(path)
    if column is None:
        if len(columns) == 1:
            column = next(iter(columns))
        elif "value" in columns:
            column = "value"
        else:
            raise DataError(
                f"{path}: several value columns {sorted(columns)}; pick one with --column"
            )
    if column not in columns:
        raise DataError(f"{path}: no column named {column!r}; have {sorted(columns)}")
    return Series(times=times, values=columns[column], name=column)


def write_csv(path, times, named_columns):
    """Write a time column plus named value columns at 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [name for name, _ in named_columns]
        writer.writerow(["date"] + names)
        for i, t in enumerate(times):
            writer.writerow([str(t)] + [_fmt(vals[i]) for _, vals in named_columns])


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_report(path, document):
    with open(path, "w") as fh:
        json.dump(_jsonable(document), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> list:
    """Turn ``key = value`` lines into flag tokens for the command's parser:
    ``--key=value``, the bare switch ``--key`` for ``true``, none for ``false``."""
    tokens = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        flag = "--" + {"lam": "lambda"}.get(key, key).replace("_", "-")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() != "false":
            tokens.append(f"{flag}={value}")
    return tokens


def _given(cls, args) -> dict:
    """The fields of dataclass ``cls`` that the flags or the config file set."""
    return {f.name: args[f.name] for f in fields(cls) if f.name in args}


def _out_path(args, key, input_path, suffix):
    given = args.get(key)
    return Path(given) if given else Path(input_path).with_suffix(suffix)


def _resolve_lambda(values, order, args):
    """Penalty weight from --lambda, --lambda-max-fraction, or --auto."""
    if "lam" in args:
        return args["lam"], {"selection": "explicit"}
    if "lambda_max_fraction" in args:
        fraction = args["lambda_max_fraction"]
        ceiling = calibration.lambda_max(values, order)
        return fraction * ceiling, {
            "selection": "lambda-max-fraction",
            "lambda_max": ceiling,
            "fraction": fraction,
        }
    if args.get("auto"):
        # --order is the hp filter's; the kind fixes the order cross-validated
        cfg = calibration.CVConfig(**{**_given(calibration.CVConfig, args), "order": order})
        report = calibration.cv_filter(values, cfg)
        return report.lambda_star, {
            "selection": "cross-validation",
            "grid": report.grid,
            "errors": report.errors,
        }
    raise UsageError("give --lambda, --lambda-max-fraction, or --auto")


def cmd_filter(args) -> int:
    kind = args["kind"]
    input_path = args["input"]
    options = {key: args[key] for key in ("tol", "max_iter") if key in args}

    if kind == "l1t-multi":
        times, columns = read_table(input_path)
        names = sorted(columns)
        rows = [columns[name] for name in names]
        order = 2
        if args.get("standardize"):
            options["standardize"] = True
            for name in names:
                if columns[name].std() == 0:
                    raise DataError(f"column {name!r} is constant; cannot standardize")
        # a zero weight returns the (standardized) cross-sectional mean unsolved
        mean = filters.l1t_multivariate(rows, 0.0, **options).observed
        lam, selection = _resolve_lambda(mean, order, args)
        result = filters.l1t_multivariate(rows, lam, **options)
        observed = result.observed
    else:
        order = {"l1t": 2, "l1c": 1, "l1tc": 2, "hp": args["order"]}[kind]
        series = ingest_csv(input_path, column=args.get("column"))
        observed = series.values
        times = series.times
        if kind == "l1tc":
            if "lambda1" not in args or "lambda2" not in args:
                raise UsageError("l1tc needs both --lambda1 and --lambda2")
            lam, selection = (args["lambda1"], args["lambda2"]), {"selection": "explicit"}
            result = filters.l1tc_filter(observed, *lam, **options)
        else:
            if kind == "hp" and args.get("auto"):
                raise UsageError("--auto cross-validates the L1 filters; "
                                 "give --lambda for hp")
            lam, selection = _resolve_lambda(observed, order, args)
            if kind == "hp":
                result = filters.hp_filter(observed, lam, order=order)
            else:
                result = filters.l1_filter(observed, lam, order=order, **options)

    out_path = _out_path(args, "out", input_path, ".trend.csv")
    write_csv(out_path, times, [("observed", observed), ("trend", result.trend)])

    diag = result.diagnostics
    document = {
        "kind": kind,
        "n": len(result.trend),
        "lambda": lam,
        **selection,
        "converged": bool(diag.converged) if diag else True,
        "iterations": diag.iterations if diag else 0,
        "duality_gap": diag.duality_gap if diag else 0.0,
        "kkt_residual": diag.kkt_residual if diag else 0.0,
    }
    if kind == "l1tc":
        document["breaks_order1"] = filters.detect_breaks(result, 1)
        document["breaks_order2"] = filters.detect_breaks(result, 2)
    else:
        document["breaks"] = filters.detect_breaks(result, order)
    write_report(_out_path(args, "report", input_path, ".filter-report.json"), document)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    input_path = args["input"]
    series = ingest_csv(input_path, column=args.get("column"))
    cfg = calibration.CVConfig(**_given(calibration.CVConfig, args))
    report = calibration.cv_filter(series.values, cfg)

    errors_path = _out_path(args, "errors_out", input_path, ".cv-errors.csv")
    with open(errors_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "error"])
        for lam, err in zip(report.grid, report.errors):
            writer.writerow([_fmt(lam), _fmt(err)])

    document = {
        "config": asdict(cfg),
        "grid": report.grid,
        "errors": report.errors,
        "fold_errors": report.fold_errors,
        "lambda_star": report.lambda_star,
        "lambda_mean": report.lambda_mean,
        "lambda_std": report.lambda_std,
    }
    report_path = _out_path(args, "report", input_path, ".cv-report.json")
    write_report(report_path, document)
    print(f"lambda_star = {_fmt(report.lambda_star)} ({report_path})")
    return EXIT_OK


# model -> (generator, the columns it writes)
_SIMULATORS = {
    1: (synth.simulate_model1, ("trend", "observed")),
    2: (lambda params: [synth.simulate_model2(params).values], ("value",)),
    3: (synth.simulate_model3, ("trend", "observed")),
    4: (synth.simulate_model4, ("trend", "observed")),
}


def cmd_simulate(args) -> int:
    model = args["model"]
    params = synth.default_params(model, **_given(synth.ModelParams, args))
    simulate, names = _SIMULATORS[model]
    out_path = Path(args["out"]) if args.get("out") else Path(f"model{model}.csv")
    write_csv(out_path, np.arange(params.n), list(zip(names, simulate(params))))
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    input_path = args["input"]
    prices = ingest_csv(input_path, column=args.get("column"))
    rates = {"rates": args["rate"]} if "rate" in args else {}
    if args.get("rates"):
        rates["rates"] = ingest_csv(args["rates"])
    cfg = strategy.StrategyConfig(**_given(strategy.StrategyConfig, args))
    report = strategy.run_backtest(prices, cfg=cfg, **rates)

    out_path = _out_path(args, "out", input_path, ".wealth.csv")
    write_csv(out_path, report.wealth.times, [
        ("wealth", report.wealth.values),
        ("alpha", report.allocations.values),
    ])
    document = {
        "model": cfg.trend_model,
        "start_index": report.start_index,
        "samples": len(prices),
        "stats": asdict(report.stats),
        "failures": report.failures,
        "floored_variance_dates": report.floored_variance_dates,
        "config": asdict(cfg),
    }
    report_path = _out_path(args, "report", input_path, ".backtest-report.json")
    write_report(report_path, document)
    stats = report.stats
    print(
        f"performance {stats.performance_pct:.2f}%  vol {stats.volatility_pct:.2f}%  "
        f"sharpe {stats.sharpe:.2f}  drawdown {stats.max_drawdown_pct:.2f}%"
    )
    return EXIT_OK


def _flags(sub, cast, *names):
    """One flag per config field, named after it: T1 as --t1, n_grid as --n-grid."""
    for name in names:
        sub.add_argument("--" + name.lower().replace("_", "-"), dest=name, type=cast)


def build_parser() -> _Parser:
    parser = _Parser(prog="trendkit", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # a flag the user does not give stays out of the parsed arguments
        sub = commands.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sub.set_defaults(func=func)
        return sub

    f = command("filter", cmd_filter, "extract a trend from a CSV series")
    f.add_argument("input")
    f.add_argument("--kind", choices=["hp", "l1t", "l1c", "l1tc", "l1t-multi"],
                   default="l1t")
    f.add_argument("--lambda", dest="lam", type=float)
    f.add_argument("--lambda1", type=float)
    f.add_argument("--lambda2", type=float)
    f.add_argument("--lambda-max-fraction", type=float)
    f.add_argument("--auto", action="store_true", help="pick lambda by cross-validation")
    f.add_argument("--order", type=int, choices=[1, 2], default=2,
                   help="difference order for --kind hp")
    f.add_argument("--column")
    f.add_argument("--standardize", action="store_true")
    f.add_argument("--tol", type=float)
    f.add_argument("--max-iter", type=int)
    _flags(f, int, "T1", "T2", "m", "p", "n_grid")
    f.add_argument("--out")
    f.add_argument("--report")

    c = command("calibrate", cmd_calibrate, "cross-validate the penalty weight")
    c.add_argument("input")
    _flags(c, int, "T1", "T2", "T3", "m", "p", "n_grid")
    c.add_argument("--order", type=int, choices=[1, 2])
    c.add_argument("--column")
    c.add_argument("--report")
    c.add_argument("--errors-out")

    s = command("simulate", cmd_simulate, "generate a benchmark process")
    s.add_argument("--model", type=int, choices=list(_SIMULATORS), default=1)
    _flags(s, int, "n", "seed")
    _flags(s, float, "p", "b", "sigma", "theta")
    s.add_argument("--out")

    b = command("backtest", cmd_backtest, "walk-forward momentum backtest")
    b.add_argument("input")
    b.add_argument("--model", dest="trend_model", choices=list(strategy.TREND_MODELS))
    b.add_argument("--rate", type=float)
    b.add_argument("--rates", help="CSV of per-period risk-free rates")
    b.add_argument("--column")
    _flags(b, float, "risk_aversion", "alpha_min", "alpha_max")
    _flags(b, int, "vol_window", "T1", "T2", "T3", "cv_m", "cv_p", "n_grid", "ma_window")
    _flags(b, float, "hp_lambda")
    b.add_argument("--out")
    b.add_argument("--report")

    for sub in (f, c, s, b):
        sub.add_argument("--config", help="file of key = value flags; explicit flags win")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = vars(parser.parse_args(argv))
        if "config" in args:  # the file's flags go first, so explicit ones win
            args = vars(parser.parse_args(argv[:1] + load_config(args["config"]) + argv[1:]))
        return args.pop("func")(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
