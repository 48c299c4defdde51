"""Command-line front end: run, analyze, sweep, calibrate.

Every command is deterministic given its inputs, writes CSV outputs, and
ends its report with a machine-readable ``key=value`` stanza so scripts
never have to parse prose.  Exit codes are stable: 0 success, 1
configuration or input error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .analysis import (
    PriceSeries,
    decompose,
    ingest_ohlc_csv,
    write_decomposition_csv,
)
from .config import KEYS, ConfigError, ScenarioConfig, check_removed_key, load_config
from .engine import (
    DAILY_CSV_HEADER,
    RunSummary,
    SimulationError,
    read_daily_columns,
    run_sweep,
    simulate,
    summarize,
    sweep_paths,
    write_daily_csv,
)
from .ledger import AccountingError
from .market import CalibrationError, calibrate_lambda

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_SUMMARY_FIELDS = tuple(f.name for f in fields(RunSummary))  # run stanza and sweep table, in order


def _stanza(pairs: dict) -> None:
    print()
    for key, value in pairs.items():
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")


def _summary_pairs(summary) -> dict:
    return {name: getattr(summary, name) for name in _SUMMARY_FIELDS}


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    for name in ("seed", "days"):
        if getattr(args, name, None) is not None:
            cfg = cfg.with_key(f"run.{name}", getattr(args, name))
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    out = args.out or cfg.daily_csv
    if out is None:
        raise ConfigError("output.daily_csv: no output path; pass --out or set [output] daily_csv")
    scenario = cfg.build()
    days = simulate(scenario).columns
    try:
        write_daily_csv(days, out)
    except ValueError as exc:  # the run produced prices the CSV cannot carry
        raise SimulationError(str(exc)) from exc
    summary = summarize(days)
    print(f"simulated {summary.days} day(s), seed {scenario.seed}; daily records -> {out}")
    print(f"  final close       {summary.final_close:.6f}  (total return {summary.total_return * 100:+.6f}%)")
    print(f"  total cost        ${summary.total_cost:,.2f}  (${summary.cost_per_day:,.2f}/day)")
    print(f"  total MTM gain    ${summary.total_mtm_gain:,.2f}  (${summary.mtm_gain_per_day:,.2f}/day)")
    print(f"  total net P&L     ${summary.total_net_pnl:,.2f}")
    print(f"  gain/cost ratio   {summary.gain_cost_ratio:.2f}")
    pairs = _summary_pairs(summary)
    pairs["seed"] = scenario.seed
    pairs["out"] = out
    _stanza(pairs)
    return EXIT_OK


def _read_series(path) -> PriceSeries:
    try:
        with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
            daily = fh.readline().rstrip("\n") == DAILY_CSV_HEADER  # the reader refuses what does not decode
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return PriceSeries(*read_daily_columns(path)[:4]) if daily else ingest_ohlc_csv(path)


def cmd_analyze(args) -> int:
    series = _read_series(args.csv)
    result = decompose(series)
    out = args.out or f"{args.csv}.decomposition.csv"
    write_decomposition_csv(result, out)
    gaps = series.continuity_gaps()
    if gaps:
        print(f"note: {len(gaps)} day(s) whose prev_close != prior close (first at row {gaps[0]})")
    print(f"decomposed {len(series)} day(s); report -> {out}")
    print(f"  cumulative overnight factor  {result.cumulative_overnight:.6f}")
    print(f"  cumulative intraday factor   {result.cumulative_intraday:.6f}")
    print(f"  cumulative total factor      {result.cumulative_total:.6f}")
    _stanza(
        {
            "days": len(series),
            "cum_overnight": result.cumulative_overnight,
            "cum_intraday": result.cumulative_intraday,
            "cum_total": result.cumulative_total,
            "identity_gap": result.identity_gap,
            "continuity_gaps": len(gaps),
            "out": out,
        }
    )
    return EXIT_OK


def _grid_value(key: str, token: str) -> int | float:
    """A grid value; an integer literal of an integer key stays an exact ``int``."""
    if key in KEYS and KEYS[key].kind == "int":
        try:
            return int(token)
        except ValueError:
            pass  # a non-integral value stays a float and fails its cell
    return float(token)


def _parse_grid(specs: list[str]) -> list[tuple[str, list[float]]]:
    grid = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid spec {spec!r} is not of the form key=v1,v2,...")
        key, _, raw_values = spec.partition("=")
        key = key.strip()
        check_removed_key(key)
        try:
            values = [_grid_value(key, v) for v in raw_values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"grid spec {spec!r} has a non-numeric value") from None
        if not values:
            raise ConfigError(f"grid spec {spec!r} has no values")
        grid.append((key, values))
    return grid


def cmd_sweep(args) -> int:
    import csv as _csv

    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    base = _load(args)
    base.build()  # a bad base is a config error, not a failure in every cell
    grid = _parse_grid(args.grid)
    cells = run_sweep(base, grid)

    keys = [key for key, _ in grid]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(keys + list(_SUMMARY_FIELDS) + ["error"])
        for cell in cells:
            row = [repr(value) for _, value in cell.params]
            if cell.ok:
                row += [repr(getattr(cell.summary, name)) for name in _SUMMARY_FIELDS]
                row.append("")
            else:
                row += [""] * len(_SUMMARY_FIELDS)
                row.append(cell.error)
            writer.writerow(row)

    ok = sum(1 for c in cells if c.ok)
    failed = len(cells) - ok
    print(f"swept {len(cells)} cell(s): {ok} ok, {failed} failed; table -> {args.out}")
    for cell in cells:
        if not cell.ok:
            label = ", ".join(f"{k}={v!r}" for k, v in cell.params)
            print(f"  failed cell [{label}]: {cell.error}")
    paths = len(sweep_paths([cell.params for cell in cells]))
    _stanza({"cells": len(cells), "ok": ok, "failed": failed, "paths": paths, "out": args.out})
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_calibrate(args) -> int:
    cfg = _load(args)
    if not cfg.has_agents:
        raise ConfigError("agents: config declares no agents; nothing to calibrate")
    scenario = cfg.build()
    trader = scenario.agents[0]
    lam = calibrate_lambda(
        scenario.profile,
        scenario.impact,
        cfg.leg_notional,
        trader.buy_tick,
        trader.sell_tick,
        args.target_bps,
    )
    # the check day trades whether or not the config enables the trader
    check = replace(cfg, lam=lam, sigma_daily=0.0, half_life_days=None, days=1, enabled=True).build()
    try:
        record = simulate(check).records[0]
    except SimulationError as exc:
        raise CalibrationError(
            f"target of {args.target_bps} bps needs an impact coefficient of {lam}, at which the check day fails: {exc}"
        ) from exc
    achieved_bps = ((record.close - record.prev_close) / record.prev_close) * 1e4
    print(f"calibrated impact coefficient lambda = {lam!r}")
    print(f"  target nudge    {args.target_bps:.4f} bp/day")
    print(f"  verified nudge  {achieved_bps:.4f} bp/day  (one noiseless day)")
    _stanza(
        {
            "lambda": lam,
            "target_nudge_bps": float(args.target_bps),
            "achieved_nudge_bps": achieved_bps,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daydrift",
        description="Deterministic single-security market simulator with intraday "
        "round-trip traders, exact accounting, and overnight/intraday return analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario and write daily records")
    run_p.add_argument("--config", required=True, help="scenario config file")
    run_p.add_argument("--seed", type=int, default=None, help="override run.seed")
    run_p.add_argument("--days", type=int, default=None, help="override run.days")
    run_p.add_argument("--out", default=None, help="daily CSV path (overrides output.daily_csv)")
    run_p.set_defaults(func=cmd_run)

    analyze_p = sub.add_parser("analyze", help="overnight/intraday decomposition of a CSV")
    analyze_p.add_argument("csv", help="simulation daily CSV or OHLC CSV (date,open,close[,high,low])")
    analyze_p.add_argument("--out", default=None, help="report CSV path (default: <input>.decomposition.csv)")
    analyze_p.set_defaults(func=cmd_analyze)

    sweep_p = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    sweep_p.add_argument("--config", required=True, help="base scenario config file")
    sweep_p.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="grid values for one numeric field (repeat for a cartesian product), "
        "e.g. agents.book_value=1e7,1e8,1e9",
    )
    sweep_p.add_argument("--out", required=True, help="sweep table CSV path")
    sweep_p.add_argument("--workers", type=int, default=1, help="no effect: paths run one after another in this process")
    sweep_p.add_argument("--seed", type=int, default=None, help="override run.seed")
    sweep_p.add_argument("--days", type=int, default=None, help="override run.days")
    sweep_p.set_defaults(func=cmd_sweep)

    cal_p = sub.add_parser("calibrate", help="solve the impact coefficient for a target daily drift")
    cal_p.add_argument("--config", required=True, help="scenario config file")
    cal_p.add_argument("--target-bps", type=float, required=True, help="target net drift per day, in bps")
    cal_p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, AccountingError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # unexpected failure is still a runtime error
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
