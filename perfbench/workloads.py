"""The four benchmark workloads: inputs from the seed, timed operations, checks.

Each workload is a closed loop with one caller.  ``run_op`` times only the
calls into the program; ``check_op`` then checks that operation's outputs
outside the timed region and counts every check in ``Ctx``.  ``finish``
runs the checks that need a second execution, after the loop.  Workloads
call ``daydrift`` through module attributes at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import daydrift as dd
import daydrift.cli as dd_cli
from calibrate import kernel_seconds, speed_scale

clock = time.perf_counter

NUDGE = 1e-4  # reference.ini is calibrated to +1 bp/day
DAILY_COST = 10_000.0  # $10M legs at 15/5 bps: exact in micro-currency
IDENTITY_GAP = 1e-12  # pinned bound of the decomposition identity
CLOSE_RTOL = 1e-9  # pinned relative bound on compounded closes
BOOK_GRID = ("1e7", "3e7", "1e8", "3e8", "1e9", "1e10")  # demo 04's breakeven grid


@dataclass
class Ctx:
    root: Path
    work: Path
    seed: int
    corrupt: bool = False
    tracer: object | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok, what: str) -> None:
        """Count one checked operation; a falsy ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def phase(self, name: str):
        if self.tracer is None or self.tracer.op < 0:
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.{name}", phase=name)

    def rng(self, workload: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(workload.encode())])


def cli(argv: list[str]) -> tuple[int, dict[str, str], str]:
    """Run ``daydrift <argv>`` in this process; exit code, stanza, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dd_cli.main(argv)
    stanza = {}
    for line in out.getvalue().splitlines():
        key, sep, value = line.partition("=")
        if sep and key.replace("_", "").isalnum():
            stanza[key] = value
    return code, stanza, err.getvalue().strip()


def close_enough(got: float, want: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def perturb_row(path: Path, row: int, column: str) -> None:
    """Multiply one numeric cell of a CSV by (1 + 1e-6): the corruption self-check."""
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[row].split(",")
    i = lines[0].split(",").index(column)
    cells[i] = repr(float(cells[i]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def jitter(rng: np.random.Generator, size: int) -> int:
    """``size`` moved by up to 0.5% so inputs differ between seeds."""
    return size + int(rng.integers(-(size // 200), size // 200 + 1))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def ref_times(ops, key: str = "op_s") -> list[float]:
    """One timed part of each operation, in reference seconds."""
    return [r[key] * r["scale"] for r in ops]


def rate(ops, key: str = "op_s", count: str = "days") -> float:
    """Median over operations of ``count`` per reference second of ``key``."""
    return statistics.median(r[count] / t for r, t in zip(ops, ref_times(ops, key)))


class Signature:
    """Acceptance criterion 4: noisy.ini, trader on then the driftless control, per seed."""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.config = ctx.root / "configs" / "noisy.ini"
        self.base = dd.load_config(self.config).build()
        self.control = replace(
            self.base, agents=tuple(replace(a, enabled=False) for a in self.base.agents)
        )
        self.seeds = [int(s) for s in ctx.rng("signature").choice(2**31, size=4096, replace=False)]
        self.days = self.base.days
        self.ticks = self.base.clock.ticks_per_day
        self.first = None
        self.pooled = []  # per-seed (log overnight, log intraday, log total), trader on
        sigma = self.base.noise.sigma_daily
        self.control_bound = 4 * sigma / math.sqrt(self.days)

    def describe(self) -> list[str]:
        return [
            f"config noisy.ini: {self.days} days x {self.ticks} ticks, sigma_daily {self.base.noise.sigma_daily}",
            f"scenario seeds: drawn from --seed, first {self.seeds[:3]}; two runs per seed (trader on, control)",
        ]

    def warmup(self) -> None:
        dd.run_sim(replace(self.base, days=20, seed=self.seeds[-1]))

    def run_op(self, i: int) -> dict:
        seed = self.seeds[i % len(self.seeds)]
        t0 = clock()
        records = dd.run_sim(replace(self.base, seed=seed))
        if self.ctx.corrupt:
            k = len(records) // 2
            records[k] = replace(records[k], close=records[k].close * (1 + 1e-6))
        result = dd.decompose(dd.PriceSeries.from_day_records(records))
        t1 = clock()
        control = dd.run_sim(replace(self.control, seed=seed))
        t2 = clock()
        return {"seed": seed, "run_s": t1 - t0, "op_s": t2 - t0, "days": 2 * self.days,
                "normals": 2 * self.days * self.ticks, "records": records, "control": control,
                "result": result}

    def check_op(self, r: dict) -> None:
        check, seed = self.ctx.check, r["seed"]
        records, control, result = r.pop("records"), r.pop("control"), r.pop("result")
        if self.first is None:
            self.first = (seed, records)
        check(all(rec.total_cost == DAILY_COST for rec in records), f"seed {seed}: daily cost != $10,000")
        check(result.identity_gap <= IDENTITY_GAP, f"seed {seed}: identity_gap {result.identity_gap}")
        on, off = (np.array([(x.prev_close, x.open, x.close) for x in recs]).T for recs in (records, control))
        for name, (prev, _, close) in (("trader-on", on), ("control", off)):
            check(np.array_equal(prev[1:], close[:-1]), f"seed {seed}: {name} run has a continuity gap")
        log_total_off = np.log(off[2] / off[0])
        check(abs(log_total_off.mean()) <= self.control_bound,
              f"seed {seed}: control drifts, |mean log return| {abs(log_total_off.mean()):.3g}")
        logs = [math.log(result.cumulative_overnight), math.log(result.cumulative_intraday),
                math.log(result.cumulative_total)]
        self.pooled.append(logs)
        # The control shares the trader-on run's noise draws, so the difference
        # is the trader's signature without the noise.
        o = logs[0] - np.log(off[1] / off[0]).sum()
        t = logs[2] - log_total_off.sum()
        check(o >= 0.80 * t and o > t - o, f"seed {seed}: overnight capture {o:.4f} of {t:.4f}")

    def finish(self, ops) -> None:
        seed, records = self.first
        a, b = self.ctx.work / "rerun_a.csv", self.ctx.work / "rerun_b.csv"
        dd.write_daily_csv(records, a)
        dd.write_daily_csv(dd.run_sim(replace(self.base, seed=seed)), b)
        self.ctx.check(a.read_bytes() == b.read_bytes(), f"seed {seed}: rerun is not byte-identical")

    def metrics(self, ops) -> dict:
        run_s = ref_times(ops, "run_s")
        mean_o, _, mean_t = np.mean(self.pooled, axis=0)
        return {"run_s_p50": statistics.median(run_s), "run_s_p75": percentile(run_s, 75),
                "days_per_s": rate(ops), "sim_days_per_s": rate(ops), "runs_timed": len(ops),
                "pooled_capture": mean_o / mean_t}


class LongHorizon:
    """CLI ``run`` of the noiseless reference at a long and a short horizon, then ``analyze``."""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.config = ctx.root / "configs" / "reference.ini"
        rng = ctx.rng("long_horizon")
        self.days, self.short_days = jitter(rng, 8000), jitter(rng, 500)
        self.seed = int(rng.integers(2**31))
        self.initial_mid = dd.load_config(self.config).initial_mid
        self.csv, self.short_csv = ctx.work / "long_daily.csv", ctx.work / "short_daily.csv"
        self.report = ctx.work / "long_report.csv"

    def describe(self) -> list[str]:
        return [f"config reference.ini (noiseless): --days {self.days} (long), {self.short_days} (short), "
                f"--seed {self.seed}"]

    def _run(self, days: int, out: Path):
        return cli(["run", "--config", str(self.config), "--days", str(days),
                    "--seed", str(self.seed), "--out", str(out)])

    def warmup(self) -> None:
        self._run(50, self.short_csv)
        cli(["analyze", str(self.short_csv), "--out", str(self.report)])

    def run_op(self, i: int) -> dict:
        with self.ctx.phase("short_run"):
            t0 = clock()
            short = self._run(self.short_days, self.short_csv)
            t1 = clock()
        with self.ctx.phase("long_run"):
            t2 = clock()
            long = self._run(self.days, self.csv)
            t3 = clock()
        if self.ctx.corrupt:
            perturb_row(self.csv, self.days // 2, "close")
        with self.ctx.phase("analyze"):
            t4 = clock()
            analyze = cli(["analyze", str(self.csv), "--out", str(self.report)])
            t5 = clock()
        return {"short_s": t1 - t0, "long_s": t3 - t2, "analyze_s": t5 - t4,
                "op_s": (t3 - t2) + (t5 - t4), "days": self.days, "normals": 0,
                "short": short, "long": long, "analyze": analyze}

    def check_op(self, r: dict) -> None:
        check = self.ctx.check
        for step, days in (("short", self.short_days), ("long", self.days)):
            code, stanza, err = r.pop(step)
            check(code == 0, f"{step} run: exit {code}: {err}")
            check(stanza.get("total_cost") == repr(DAILY_COST * days), f"{step} run: total_cost {stanza.get('total_cost')}")
        code, stanza, err = r.pop("analyze")
        check(code == 0, f"analyze: exit {code}: {err}")
        check(float(stanza.get("identity_gap", "inf")) <= IDENTITY_GAP, f"analyze: identity_gap {stanza.get('identity_gap')}")
        check(stanza.get("continuity_gaps") == "0", f"analyze: continuity_gaps {stanza.get('continuity_gaps')}")
        check(stanza.get("days") == str(self.days), f"analyze: days {stanza.get('days')}")
        day, close = np.loadtxt(self.csv, delimiter=",", skiprows=1, usecols=(0, 3), unpack=True)
        want = self.initial_mid * (1 + NUDGE) ** day
        check(np.all(np.abs(close - want) <= 0.5e-6 + CLOSE_RTOL * want), "CSV closes leave +1 bp/day compounding")

    def finish(self, ops) -> None:
        """The last CSV against an in-memory run of the same scenario."""
        scenario = replace(dd.load_config(self.config).build(), days=self.days, seed=self.seed)
        records = dd.run_sim(scenario)
        close = np.array([r.close for r in records])
        want = self.initial_mid * (1 + NUDGE) ** np.arange(1, self.days + 1)
        self.ctx.check(np.all(np.abs(close / want - 1) <= CLOSE_RTOL), "in-memory closes leave +1 bp/day compounding")
        table = np.loadtxt(self.csv, delimiter=",", skiprows=1)
        mem = np.array([(r.day, r.prev_close, r.open, r.close, dd.overnight_return(r), dd.intraday_return(r),
                         r.total_cost, r.mtm_gain, r.net_pnl) for r in records])
        half_unit = np.array([0, 0.5e-6, 0.5e-6, 0.5e-6, 0.5e-10, 0.5e-10, 0.005, 0.005, 0.005])
        ok = table.shape == mem.shape and np.all(np.abs(table - mem) <= half_unit + 1e-12 * np.abs(mem))
        self.ctx.check(ok, "CSV read-back differs from in-memory records beyond printed precision")

    def metrics(self, ops) -> dict:
        pipeline = ref_times(ops)
        growth = [(r["long_s"] / self.days) / (r["short_s"] / self.short_days) for r in ops]
        return {
            "run_s_p50": statistics.median(pipeline),
            "run_s_p75": percentile(pipeline, 75),
            "days_per_s": rate(ops),
            "sim_days_per_s": rate(ops, "long_s"),
            "rows_per_s": rate(ops, "analyze_s"),
            "per_day_growth": statistics.median(growth),
            "runs_timed": len(ops),
        }


class OhlcAnalyze:
    """CLI ``analyze`` on a large generated OHLC CSV; no engine or ledger involved."""

    config = None  # set-up is the import alone

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.path, self.report = ctx.work / "ohlc.csv", ctx.work / "ohlc_report.csv"
        # A child process writes the file, so its arrays stay out of this process's peak RSS.
        out = subprocess.run([sys.executable, str(Path(__file__).with_name("ohlc_gen.py")), "--seed", str(ctx.seed),
                              "--out", str(self.path)], capture_output=True, text=True, timeout=120, check=True)
        generated = json.loads(out.stdout.splitlines()[-1])
        n = generated["rows"]
        self.rows, self.expected = n - 1, generated["expected"]
        if ctx.corrupt:
            perturb_row(self.path, n // 2, "close")

    def describe(self) -> list[str]:
        size = os.path.getsize(self.path)
        l2 = cache_sizes().get("L2")
        ratio = f", {size / l2:.1f}x the per-core L2 of {l2 / 2**20:.1f} MiB" if l2 else ""
        return [f"OHLC CSV: {self.rows + 1} rows, {size} bytes{ratio}"]

    def warmup(self) -> None:
        small = self.ctx.work / "ohlc_small.csv"
        with open(self.path, encoding="utf-8") as src:
            small.write_text("".join(next(src) for _ in range(200)), encoding="utf-8")
        cli(["analyze", str(small), "--out", str(self.report)])

    def run_op(self, i: int) -> dict:
        t0 = clock()
        analyze = cli(["analyze", str(self.path), "--out", str(self.report)])
        return {"op_s": clock() - t0, "days": self.rows, "normals": 0, "analyze": analyze}

    def check_op(self, r: dict) -> None:
        check = self.ctx.check
        code, stanza, err = r.pop("analyze")
        check(code == 0, f"analyze: exit {code}: {err}")
        check(stanza.get("days") == str(self.rows), f"analyze: days {stanza.get('days')}")
        for key, want in self.expected.items():
            got = float(stanza.get(key, "nan"))
            check(close_enough(got, want, 0.0, CLOSE_RTOL), f"analyze: {key} {got!r} != {want!r}")
        check(float(stanza.get("identity_gap", "inf")) <= IDENTITY_GAP, f"analyze: identity_gap {stanza.get('identity_gap')}")
        check(stanza.get("continuity_gaps") == "0", f"analyze: continuity_gaps {stanza.get('continuity_gaps')}")

    def finish(self, ops) -> None:
        rows, last = 0, None
        with open(self.report, encoding="utf-8") as fh:
            for rows, last in enumerate(csv.reader(fh), 1):
                pass
        last_total = float(last[5]) if rows > 1 else math.nan
        self.ctx.check(rows == self.rows + 1 and close_enough(last_total, self.expected["cum_total"], 0.5e-10, CLOSE_RTOL),
                       "decomposition report rows or final cum_total are wrong")

    def metrics(self, ops) -> dict:
        times = ref_times(ops)
        return {"run_s_p50": statistics.median(times), "run_s_p75": percentile(times, 75),
                "days_per_s": rate(ops), "rows_per_s": rate(ops), "runs_timed": len(ops)}


class SweepGrid:
    """CLI ``sweep`` on noisy.ini over demo 04's book values x seeds, nproc workers."""

    pool_workers = True  # the simulation runs in run_sweep's pool; peak RSS includes the workers

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.config = ctx.root / "configs" / "noisy.ini"
        rng = ctx.rng("sweep_grid")
        self.days = jitter(rng, 500)
        self.seeds = [str(int(s)) for s in rng.choice(2**31, size=2, replace=False)]
        self.cells = len(BOOK_GRID) * len(self.seeds)
        self.workers = min(nproc(), self.cells)
        self.ticks = dd.load_config(self.config).ticks_per_day
        self.table, self.first_table = ctx.work / "sweep.csv", None
        self.parallel_eff = None

    def describe(self) -> list[str]:
        return [f"grid agents.book_value={','.join(BOOK_GRID)} x run.seed={','.join(self.seeds)}: "
                f"{self.cells} cells x {self.days} days, --workers {self.workers}"]

    def _sweep(self, workers: int, days: int, out: Path):
        return cli(["sweep", "--config", str(self.config), "--grid", "agents.book_value=" + ",".join(BOOK_GRID),
                    "--grid", "run.seed=" + ",".join(self.seeds), "--days", str(days),
                    "--workers", str(workers), "--out", str(out)])

    def warmup(self) -> None:
        self._sweep(self.workers, 5, self.table)

    def run_op(self, i: int) -> dict:
        t0 = clock()
        sweep = self._sweep(self.workers, self.days, self.table)
        elapsed = clock() - t0
        if self.ctx.corrupt:
            perturb_row(self.table, 1 + self.cells // 2, "cost_per_day")
        return {"op_s": elapsed, "days": self.cells * self.days, "cells": self.cells,
                "normals": self.cells * self.days * self.ticks, "sweep": sweep}

    def check_op(self, r: dict) -> None:
        check = self.ctx.check
        code, stanza, err = r.pop("sweep")
        check(code == 0, f"sweep: exit {code}: {err}")
        data = self.table.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        check(len(rows) == self.cells, f"sweep: {len(rows)} rows for {self.cells} cells")
        r["ok_cells"] = sum(1 for row in rows if not row["error"])
        for row in rows:
            check(not row["error"], f"sweep cell {row['agents.book_value']}/{row['run.seed']}: {row['error']}")
            check(row["cost_per_day"] == repr(DAILY_COST), f"sweep cell cost_per_day {row['cost_per_day']}")
        if self.first_table is None:
            self.first_table = data
        check(data == self.first_table, "sweep table differs from the first run of the same grid")

    def finish(self, ops) -> None:
        """Traced run only: the 1-worker table must equal the nproc-worker table."""
        if self.ctx.tracer is None:
            return
        serial = self.ctx.work / "sweep_serial.csv"
        before = kernel_seconds()
        t0 = clock()
        code, _, err = self._sweep(1, self.days, serial)
        serial_s = (clock() - t0) * speed_scale(before, kernel_seconds())
        self.ctx.check(code == 0, f"sweep --workers 1: exit {code}: {err}")
        self.ctx.check(serial.read_bytes() == self.table.read_bytes(), "1-worker table differs from nproc-worker table")
        parallel_s = statistics.median(ref_times(r for r in ops if not r["traced"]))
        self.parallel_eff = serial_s / (self.workers * parallel_s)

    def metrics(self, ops) -> dict:
        times = ref_times(ops)
        return {"run_s_p50": statistics.median(times), "run_s_p75": percentile(times, 75),
                "days_per_s": rate(ops), "sim_days_per_s": rate(ops),
                "cells_per_s": rate(ops, count="cells"), "runs_timed": len(ops)}


WORKLOADS = {
    "signature": Signature,
    "long_horizon": LongHorizon,
    "ohlc_analyze": OhlcAnalyze,
    "sweep_grid": SweepGrid,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes of CPU 0 in bytes, from sysfs where it exists."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes
