"""Command-line surface: filter, calibrate, simulate, backtest.

Data flows through two-column CSV files (``date,value`` with YYYY-MM-DD dates
or integer indices) and JSON report documents. Exit codes are stable:
0 success, 1 usage error, 2 data error, 3 numerical failure.

An optional ``--config`` file holds ``key = value`` lines, read by the
command's own parser. A key is a long flag name (``n_grid`` or ``n-grid``
for ``--n-grid``; ``lam`` also names ``--lambda``) and its value is parsed
as that flag parses it; ``true`` and ``false`` turn a switch on and off.
Explicit flags win over the file, which must not name another. A flag given
neither way is not passed on, so the library's own default applies; one that
the ``filter`` kind or ``backtest`` model does not read (``READS``) is a usage
error either way.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
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
    try:  # calendar dates only: newer Pythons also parse week and ordinal dates
        if datetime.date.fromisoformat(token).isoformat() == token:
            return token
    except ValueError:
        pass
    raise DataError(f"line {line_no}: time {token!r} is neither an integer nor YYYY-MM-DD")


def read_table(path):
    """Parse a CSV with a time column first: returns (times, {name: values})."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a huge field
        raise DataError(f"cannot read {path}: {exc}")
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2:
        raise DataError(f"{path}: need a time column and at least one value column")
    # skip blank lines (csv.reader yields [] or spaces), as a hand-edited file often ends
    lines = [(line_no, row) for line_no, row in enumerate(rows[1:], start=2)
             if any(cell.strip() for cell in row)]
    if not lines:
        raise DataError(f"{path}: no data rows after the header")
    names = header[1:]
    times = []
    columns = {name: [] for name in names}
    for line_no, row in lines:
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
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {line_no}: cannot parse {cell!r} as a number")
            if not math.isfinite(value):
                raise DataError(f"{path}: line {line_no}: non-finite value {cell!r} for {name!r}")
            columns[name].append(value)
    for i, (line_no, _) in enumerate(lines[1:], start=1):  # YYYY-MM-DD sorts as dates do
        if type(times[i]) is not type(times[0]):
            raise DataError(f"{path}: line {line_no}: mixed integer and date stamps")
        if times[i] <= times[i - 1]:
            raise DataError(
                f"{path}: line {line_no}: time {times[i]!r} not after {times[i - 1]!r}"
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
    return Series(times=times, values=columns[column])


def write_csv(path, times, named_columns):
    """Write a time column plus named value columns at 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [name for name, _ in named_columns]
        writer.writerow(["date"] + names)
        for i, t in enumerate(times):
            writer.writerow([str(t)] + [_fmt(vals[i]) for _, vals in named_columns])


def write_report(path, document):
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
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
        if flag == "--config":  # the command line's own --config would win over it
            raise UsageError(f"{path}: line {line_no}: a config file cannot name another")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() != "false":
            tokens.append(f"{flag}={value}")
    return tokens


_WEIGHTS = ("lam", "lambda_max_fraction", "auto")  # filter reads one of them
_PAIR = {"lambda1": "lam1", "lambda2": "lam2"}  # l1tc reads both: l1tc_filter's names
_WINDOWS = ("T1", "T2", "m", "p", "n_grid")  # filter reads them with --auto only
_L1 = {"column", *_WEIGHTS, *_WINDOWS}
_TRADE = {"rate", "rates", "column", "risk_aversion", "alpha_min", "alpha_max", "vol_window"}
_SHARED = {"command", "func", "input", "out", "report", "config"}  # every variant's
READS = {  # command -> (the flag picking its variant, {variant: the other flags it reads})
    "filter": ("kind", {"l1t": _L1, "l1c": _L1, "l1t-multi": _L1 - {"column"} | {"standardize"},
                        "hp": {"column", "lam", "lambda_max_fraction", "order"},
                        "l1tc": {"column", *_PAIR}}),
    "backtest": ("trend_model", {  # the allocation rule, the model's windows, an L1 grid
        m: _TRADE | {*w, *(("cv_m", "cv_p", "n_grid") if m in strategy.L1_MODELS else ())}
        for m, w in strategy.TREND_WINDOWS.items()}),
}


def _option(dest: str) -> str:
    """The flag that sets ``dest``: T1 is --t1, n_grid --n-grid, lam --lambda."""
    name = {"lam": "lambda", "trend_model": "model"}.get(dest, dest)
    return "--" + name.lower().replace("_", "-")


def _given(cls, args) -> dict:
    """The fields of dataclass ``cls`` that the flags or the config file set."""
    return {f.name: args[f.name] for f in fields(cls) if f.name in args}


def _out_path(args, key, input_path, suffix):
    return Path(args.get(key) or Path(input_path).with_suffix(suffix))


def _resolve_lambda(values, order, args, cv):
    """Penalty weight from --lambda, --lambda-max-fraction, or --auto at geometry cv."""
    if "lam" in args:
        return args["lam"], {"selection": "explicit"}
    if "lambda_max_fraction" in args:
        fraction, ceiling = args["lambda_max_fraction"], calibration.lambda_max(values, order)
        if math.isinf(fraction * ceiling):  # both finite: a fraction above 1
            raise NumericalError(f"weight {fraction:g} x lambda_max {ceiling:.3g} overflows")
        return fraction * ceiling, {"selection": "lambda-max-fraction",
                                    "lambda_max": ceiling, "fraction": fraction}
    report = calibration.cv_filter(values, cv)
    return report.lambda_star, {"selection": "cross-validation",
                                "grid": report.grid, "errors": report.errors}


def cmd_filter(args) -> int:
    kind = args["kind"]
    input_path = args["input"]
    weights = [d for d in (*_WEIGHTS, *_PAIR) if d in READS["filter"][1][kind]]
    given = [_option(d) for d in weights if d in args]
    if len(given) != (2 if kind == "l1tc" else 1):
        takes = ("both weights" if kind == "l1tc" else "one weight") + \
            ("" if len(given) > 1 else f" ({', '.join(map(_option, weights))})")  # the choices
        raise UsageError(f"--kind {kind} takes {takes}, got {' and '.join(given) or 'none'}")
    for d in sorted(set(weights) & set(args) - {"auto"}):  # as the filters check each value
        filters.check_weight(_PAIR.get(d, d), args[d])
    if "auto" not in args and (windows := [_option(d) for d in _WINDOWS if d in args]):
        raise UsageError(f"--kind {kind} reads {', '.join(windows)} only with --auto")
    order = args.get("order", 1 if kind == "l1c" else 2)  # only hp reads --order
    cv = calibration.CVConfig(**_given(calibration.CVConfig, args), order=order) \
        if "auto" in args else None  # checked before any input is read
    if kind == "l1t-multi":
        times, columns = read_table(input_path)
        names = sorted(columns)
        try:  # a zero weight returns the (standardized) cross-sectional mean unsolved
            observed = filters.l1t_multivariate([columns[name] for name in names], 0.0,
                                                standardize="standardize" in args).observed
        except DataError as exc:  # name the constant row's column
            if not hasattr(exc, "series"):
                raise
            raise DataError(f"column {names[exc.series]!r} is constant; cannot standardize")
    else:
        series = ingest_csv(input_path, column=args.get("column"))
        times, observed = series.times, series.values

    if kind == "l1tc":
        lam, selection = (args["lambda1"], args["lambda2"]), {"selection": "explicit"}
        result = filters.l1tc_filter(observed, *lam)
        breaks = {f"breaks_order{k}": filters.detect_breaks(result, k) for k in (1, 2)}
    else:
        lam, selection = _resolve_lambda(observed, order, args, cv)
        fit = filters.hp_filter if kind == "hp" else filters.l1_filter
        result = fit(observed, lam, order=order)
        breaks = {"breaks": filters.detect_breaks(result, order)}

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
        **breaks,
    }
    out_path = _out_path(args, "out", input_path, ".trend.csv")
    write_csv(out_path, times, [("observed", observed), ("trend", result.trend)])
    write_report(_out_path(args, "report", input_path, ".filter-report.json"), document)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    input_path = args["input"]
    cfg = calibration.CVConfig(**_given(calibration.CVConfig, args))
    series = ingest_csv(input_path, column=args.get("column"))
    report = calibration.cv_filter(series.values, cfg)

    rows = [[_fmt(lam), _fmt(err)] for lam, err in zip(report.grid, report.errors)]
    with open(_out_path(args, "errors_out", input_path, ".cv-errors.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows([["lambda", "error"], *rows])

    report_path = _out_path(args, "report", input_path, ".cv-report.json")
    write_report(report_path, {"config": asdict(cfg), **asdict(report)})
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
    if "rate" in args and "rates" in args:
        raise UsageError("give --rate or --rates, not both")
    cfg = strategy.StrategyConfig(**_given(strategy.StrategyConfig, args))
    rates = {"rates": strategy.check_rate(args["rate"])} if "rate" in args else {}
    prices = ingest_csv(input_path, column=args.get("column"))
    if "rates" in args:  # an empty path too: it names no readable file
        rates["rates"] = ingest_csv(args["rates"])
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
    vol = "n/a" if stats.volatility_pct is None else f"{stats.volatility_pct:.2f}%"
    print(
        f"performance {stats.performance_pct:.2f}%  vol {vol}  "
        f"sharpe {stats.sharpe:.2f}  drawdown {stats.max_drawdown_pct:.2f}%"
    )
    return EXIT_OK


def _flags(sub, cast, *names):
    """One flag per config field, named after it: T1 as --t1, n_grid as --n-grid."""
    for name in names:
        sub.add_argument(_option(name), dest=name, type=cast)


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
    f.add_argument("--order", type=int, choices=[1, 2], help="difference order for --kind hp")
    f.add_argument("--column")
    f.add_argument("--standardize", action="store_true")
    _flags(f, int, "T1", "T2", "m", "p", "n_grid")
    f.add_argument("--out")
    f.add_argument("--report")

    c = command("calibrate", cmd_calibrate, "cross-validate the penalty weight")
    c.add_argument("input")
    _flags(c, int, "T1", "T2", "m", "p", "n_grid")
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
    _flags(b, int, "vol_window", "T2", "T3", "cv_m", "cv_p", "n_grid")
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
        if args["command"] in READS:
            key, reads = READS[args["command"]]
            variant = args.get(key, strategy.StrategyConfig.trend_model)  # --kind has a default
            unread = [_option(d) for d in args if d not in _SHARED | {key} | reads[variant]]
            if unread:
                raise UsageError(f"{_option(key)} {variant} does not read {', '.join(unread)}")
        return args.pop("func")(args)
    except (UsageError, ValueError, OSError) as exc:
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
